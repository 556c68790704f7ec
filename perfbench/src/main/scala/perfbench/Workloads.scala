package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{Dangoron, HorizontalPrune, PairSketch, RunStats, SlidingQuery, Sketch}
import repro.streaming.StreamingCorrelation.StreamingDangoron
import repro.tsubasa.Tsubasa

import Bench._
import Metrics.Metric

/** Command-line arguments of one run. */
final case class RunArgs(workload: String, seed: Long, seconds: Int, trace: Boolean) {
  /** Length of each timed loop: a traced run splits ``seconds`` between an
    * untraced and a traced loop, so that it measures as long as an untraced one.
    */
  def loopSeconds: Double = if (trace) seconds / 2.0 else seconds.toDouble
}

/** The benchmark's workloads, all on generated climate data (the paper's
  * hourly station readings, daily basic windows). Each run sets up
  * [[Bench.SetupReps]] times, then times one kind of operation in a closed
  * loop: one driver thread, each op starting when the previous one ends.
  */
object Workloads {

  val names: Seq[String] = Seq("climate-build", "climate-query")

  def run(spark: SparkSession, a: RunArgs): Outcome = a.workload match {
    case "climate-build" => build(spark, a)
    case "climate-query" => query(spark, a)
  }

  /** An op that threw, or whose result the gate rejected, is a failure and
    * its time is left out; ``ok`` tells a passing result apart.
    */
  private def latencies[T](ops: Seq[(Either[Throwable, T], Double)])(ok: T => Boolean): (Seq[Double], Int) = {
    val good = ops.collect { case (Right(r), s) if ok(r) => s }
    (good, ops.length - good.length)
  }

  private def p50(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)

  private def tailMetrics(prefix: String, xs: Seq[Double]): Seq[Metric] =
    Stats.tail(xs).toSeq.flatMap { t =>
      Seq(Metric(s"${prefix}_tail_s", t.value, "s"), Metric(s"${prefix}_tail_percentile", t.percentile, "%"),
        Metric(s"${prefix}_tail_samples", t.samples.toDouble, "count"))
    }

  private def outcome(attempted: Int, failed: Int, errors: Seq[String], e2e: Map[String, Double],
                      layers: Option[Map[String, Double]], summary: Seq[Metric]): Outcome = {
    errors.take(10).foreach(e => log(s"check failed: $e"))
    val all = summary ++ Seq(
      Metric("error_rate", failed.toDouble / math.max(1, attempted), "ratio"),
      Metric("setup_s", e2e("setup_s"), "s"),
      Metric("edge_recall", e2e("edge_recall"), "ratio"),
      Metric("heap_after_gc_mb", e2e("heap_after_gc_mb"), "MB"))
    Outcome(attempted, failed, errors.isEmpty && failed == 0, layers.getOrElse(e2e), all)
  }

  private def runStats(st: RunStats): Map[String, Double] = Map(
    "dangoron.computed_pair_windows" -> st.computedWindows.toDouble,
    "dangoron.skipped_pair_windows" -> st.skippedWindows.toDouble,
    "dangoron.skip_fraction" -> st.skippedFraction)

  // ------------------------------------------------------------ climate-build

  /** N=100 stations, one year hourly; 30-day windows sliding one day. */
  val BuildStations = 100
  val BuildQuery: SlidingQuery = SlidingQuery(0L, 8760L, windowLen = 720, step = 24, beta = 0.7, bwSize = 24)
  private val SketchGroups = Seq("sketch.segments", "sketch.pair_stats", "sketch.assembly")

  /** Op: ``Dangoron.run`` from the persisted raw rows to the edge count. */
  def build(spark: SparkSession, a: RunArgs): Outcome = {
    val q = BuildQuery
    val (in, setupS) = setUp { () =>
      val in = input(spark, climate(BuildStations, q.end.toInt, a.seed))
      Dangoron.run(in.values, q)._1.count()
      in
    }(_.release())
    val ops = closedLoop(a.loopSeconds)(Dangoron.run(in.values, q)._1.count())

    val layers = if (!a.trace) None else Some {
      val tr = new Tracer(spark)
      val traced = closedLoop(a.loopSeconds) {
        val (sk, sketchLayers) = tracedSketches(tr, in.values, q)
        val ((_, st), sweepS) = tr("dangoron") { val (ds, st) = Dangoron.edges(sk, q); (ds.count(), st()) }
        sk.unpersist(blocking = true)
        (sketchLayers + ("dangoron.sweep_s" -> sweepS), st)
      }.collect { case (Right(r), s) => (r, s) }
      val opLayers = traced.map(_._1._1)
      zeroLayers ++ opLayers.head ++
        (SketchGroups.map(g => s"${g}_s") :+ "dangoron.sweep_s").map(k => k -> Stats.median(opLayers.map(_(k)))) ++
        runStats(traced.head._1._2) +
        ("trace_overhead_s" -> (Stats.median(traced.map(_._2)) - p50(ops.collect { case (Right(_), s) => s }))) ++
        tr.stageMetrics("sketch", traced.length, SketchGroups) ++
        tr.stageMetrics("dangoron", traced.length, Seq("dangoron"))
    }

    val heap = heapAfterGcMb()
    val sk = Sketch.build(in.values, q).persist()
    val c = check(sk, q, in.raw, a.seed)
    val (good, failed) = latencies(ops)(_ == c.dangoronEdges)
    sk.unpersist(blocking = true)
    val e2e = Map("setup_s" -> setupS, "latency_p50_s" -> p50(good),
      "edge_recall" -> c.dangoronEdges.toDouble / c.exactEdges, "heap_after_gc_mb" -> heap)
    outcome(ops.length, failed, c.errors, e2e, layers,
      Seq(Metric("values_to_edges_p50_s", p50(good), "s")) ++ tailMetrics("values_to_edges", good))
  }

  // ------------------------------------------------------------ climate-query

  /** The queries climate-query cycles through: β ∈ {0.5, 0.7, 0.9} × a
    * slide of s=1 and s=8 basic windows, all over the sketches of [[BuildQuery]].
    */
  val QueryMix: Seq[SlidingQuery] =
    for { s <- Seq(1, 8); beta <- Seq(0.5, 0.7, 0.9) } yield BuildQuery.copy(step = s * BuildQuery.bwSize, beta = beta)

  /** Sketches built and persisted in set-up, with the rows they came from
    * and the bytes Spark stores for them.
    */
  private final case class Cached(in: Input, sketches: Dataset[PairSketch], bytes: Long) {
    def release(): Unit = { sketches.unpersist(blocking = true); in.release() }
  }

  /** The next query of [[QueryMix]] on each call, round robin. */
  private def mixCycle(): () => SlidingQuery = {
    val it = Iterator.continually(QueryMix).flatten
    () => it.next()
  }

  /** Op: ``Dangoron.edges`` over the cached sketches to the edge count, for
    * the next query of [[QueryMix]], so that every run times the same mix.
    */
  def query(spark: SparkSession, a: RunArgs): Outcome = {
    val q = BuildQuery
    val (c, setupS) = setUp { () =>
      val in = input(spark, climate(BuildStations, q.end.toInt, a.seed))
      val before = cachedBytes(spark)
      val sk = Sketch.build(in.values, q).persist()
      sk.count()
      val c = Cached(in, sk, cachedBytes(spark) - before)
      Dangoron.edges(sk, q)._1.count()
      c
    }(_.release())
    // One untimed pass over the mix, so that its first queries do not land in the latencies.
    QueryMix.foreach(mq => Dangoron.edges(c.sketches, mq)._1.count())
    val nextQuery = mixCycle()
    val ops = closedLoop(a.loopSeconds) { val mq = nextQuery(); mq -> Dangoron.edges(c.sketches, mq)._1.count() }

    val traced = if (!a.trace) None else Some {
      val tr = new Tracer(spark)
      val nextTraced = mixCycle()
      val sweeps = closedLoop(a.loopSeconds) {
        val mq = nextTraced(); mq -> tr("dangoron")(Dangoron.edges(c.sketches, mq)._1.count())._2
      }.collect { case (Right(r), _) => r }
      def sweepS(p: SlidingQuery => Boolean) = Stats.median(sweeps.collect { case (mq, s) if p(mq) => s })
      val st = { val (ds, st) = Dangoron.edges(c.sketches, q); ds.count(); st() }
      val ts = tr("tsubasa") { val (ds, st) = Tsubasa.edges(c.sketches, q); ds.count(); st() }
      val (hp, hpS) = tr("hprune")(HorizontalPrune.edgesForWindow(c.sketches, q, w = 0, pivot = 0))
      val (streamLayers, streamErrors) = streaming(tr, a.seed, a.loopSeconds)
      val layers = zeroLayers ++ runStats(st) ++ Map(
        "sketch.cached_bytes" -> c.bytes.toDouble,
        "dangoron.sweep_s" -> sweepS(_ == q),
        "dangoron.sweep_s1_s" -> sweepS(_.s == 1),
        "dangoron.sweep_s8_s" -> sweepS(_.s == 8),
        "tsubasa.sweep_s" -> ts._2, "tsubasa.computed_pair_windows" -> ts._1.computedWindows.toDouble,
        "hprune.s" -> hpS, "hprune.pruned_pairs" -> hp.prunedPairs.toDouble,
        "hprune.computed_pairs" -> hp.computedPairs.toDouble,
        "trace_overhead_s" -> (Stats.median(sweeps.map(_._2)) - p50(ops.collect { case (Right(_), s) => s }))) ++
        tr.stageMetrics("dangoron", sweeps.length, Seq("dangoron")) ++
        tr.stageMetrics("tsubasa", 1, Seq("tsubasa")) ++ tr.stageMetrics("hprune", 1, Seq("hprune")) ++
        streamLayers
      (layers, streamErrors)
    }

    val heap = heapAfterGcMb()
    val checks = QueryMix.zipWithIndex.map { case (mq, k) => check(c.sketches, mq, c.in.raw, a.seed + k) }
    val expected = QueryMix.zip(checks.map(_.dangoronEdges)).toMap
    val (good, failed) = latencies(ops) { case (mq, n) => n == expected(mq) }
    c.release()
    val e2e = Map("setup_s" -> setupS, "latency_p50_s" -> p50(good),
      "edge_recall" -> checks.map(_.dangoronEdges).sum.toDouble / checks.map(_.exactEdges).sum,
      "heap_after_gc_mb" -> heap)
    outcome(ops.length, failed, checks.flatMap(_.errors) ++ traced.toSeq.flatMap(_._2), e2e, traced.map(_._1),
      Seq(Metric("query_p50_s", p50(good), "s")) ++ tailMetrics("query", good))
  }

  // ------------------------------------------------------------ streaming

  /** N=40 stations; 30-day windows sliding one day over daily basic windows. */
  val StreamStations = 40
  val StreamQuery: SlidingQuery = SlidingQuery(0L, 365L * 24, windowLen = 720, step = 24, beta = 0.7, bwSize = 24)
  /** Days fed before timing: 30 fill the first window, 2 more emit one each. */
  val StreamWarmupDays = 32

  private def day(raw: Array[Array[Double]], d: Int): Array[(Int, Long, Double)] =
    (for { sid <- raw.indices; t <- d * 24 until (d + 1) * 24 } yield (sid, t.toLong, raw(sid)(t))).toArray

  /** The streaming layer, traced in climate-query runs: one day of readings
    * per micro-batch into ``StreamingDangoron.ingest`` for ``seconds``, each
    * batch emitting one window. Returns the layer numbers and the gate's
    * errors: every streamed edge must be in ``Tsubasa.edges`` over all
    * emitted windows, and a batch that throws is an error.
    */
  def streaming(tr: Tracer, seed: Long, seconds: Double): (Map[String, Double], Seq[String]) = {
    val spark = tr.spark
    val q = StreamQuery
    val raw = climate(StreamStations, q.end.toInt, seed)
    val lastDay = (q.end / 24).toInt
    val sd = new StreamingDangoron(spark, StreamStations, q)
    (0 until StreamWarmupDays).foreach(d => sd.ingest(day(raw, d)))
    var next = StreamWarmupDays
    val windowsBefore = sd.windowsEmitted
    val heapBefore = heapAfterGcMb()
    val batches = closedLoop(seconds) {
      require(next < lastDay, "the generated year is used up")
      val batch = day(raw, next); next += 1
      tr("streaming")(sd.ingest(batch))
    }
    val heapGrowth = heapAfterGcMb() - heapBefore
    val times = batches.collect { case (Right(_), s) => s }

    val emitted = sd.windowsEmitted
    val refQ = q.copy(end = q.windowStartT(emitted - 1) + q.windowLen)
    val in = input(spark, raw)
    val sk = Sketch.build(in.values, refQ).persist()
    val exact = Tsubasa.edges(sk, refQ)._1.collect().map(e => (e.i, e.j, e.w) -> e.corr).toMap
    sk.unpersist(blocking = true); in.release()
    val errors = batches.collect { case (Left(e), _) => s"streaming batch failed: $e" } ++
      sd.edgesSoFar.flatMap { e =>
        val c = exact.get((e.i, e.j, e.w))
        if (c.exists(c => math.abs(c - e.corr) <= Tol)) None else Some(s"streamed edge $e, reference $c")
      } ++
      directPearsonErrors(samplePairWindows(StreamStations, emitted, seed), (i, j, w) => exact.get((i, j, w)), raw, refQ)
    (Map(
      "streaming.ingest_s" -> p50(times),
      "streaming.jobs_per_batch" -> tr.jobs("streaming").toDouble / math.max(1, times.length),
      "streaming.heap_growth_mb_per_100_windows" -> heapGrowth * 100 / math.max(1, emitted - windowsBefore),
    ) ++ tr.stageMetrics("streaming", times.length, Seq("streaming")), errors)
  }
}
