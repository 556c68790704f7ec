package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusDrain
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions.col

import repro.{SparkSpec, SparkTestData}
import repro.naive.NaiveCorr
import repro.streaming.StreamingCorrelation.StreamingDangoron
import repro.tsubasa.Tsubasa

class DangoronSparkSpec extends SparkSpec {

  private lazy val n = 6
  private lazy val len = 192
  private lazy val matrix = SparkTestData.panel(61L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)

  private def q(beta: Double) =
    SlidingQuery(0L, len.toLong, windowLen = 48, step = 8, beta = beta, bwSize = 8)

  test("beta = -1: Dangoron equals naive on every pair-window") {
    val query = q(-1.0)
    val (edges, _) = Dangoron.run(values, query)
    val got = edges.collect().map(e => (e.i, e.j, e.w) -> e.corr).toMap
    val expect = NaiveCorr.allCorrs(SparkTestData.tiles(values, query), query).collect()
      .map(e => (e.i, e.j, e.w) -> e.corr).toMap
    assert(got.keySet === expect.keySet)
    assert(got.size === n * (n - 1) / 2 * query.numWindows)
    got.foreach { case (k, c) => assert(math.abs(c - expect(k)) < 1e-9, s"at $k") }
  }

  test("every exact path is within 1e-9 of direct Pearson on data offset by 0, 1e4, 1e5 and 1e6") {
    val steps = 128
    val query = SlidingQuery(0L, steps.toLong, windowLen = 32, step = 8, beta = -1.0, bwSize = 8)
    for (offset <- Seq(0.0, 1e4, 1e5, 1e6)) {
      val m = SparkTestData.panel(67L, n, steps).map(_.map(_ + offset))
      val sk = Sketch.build(SparkTestData.toValuesDf(spark, m), query).persist()
      // At beta = -1 every pair-window is an edge, so each path reports them all.
      def check(path: String, edges: Iterable[Edge]): Unit = {
        val got = edges.map(e => (e.i, e.j, e.w) -> e.corr).toMap
        assert(got.size === n * (n - 1) / 2 * query.numWindows, s"$path at offset $offset")
        got.foreach { case ((i, j, w), c) =>
          val err = math.abs(c - PairMath.directPearson(m(i), m(j), w * query.step, query.windowLen))
          assert(err < 1e-9, s"$path at offset $offset: pair ($i, $j), window $w off by $err")
        }
      }
      try {
        check("Dangoron", Dangoron.edges(sk, query)._1.collect())
        check("TSUBASA", Tsubasa.edges(sk, query)._1.collect())
        check("horizontal pruning",
          (0 until query.numWindows).flatMap(w => HorizontalPrune.edgesForWindow(sk, query, w, pivot = 0).edges))
        val stream = new StreamingDangoron(spark, n, query)
        for (t0 <- 0 until steps by 32)
          stream.ingest(for (sid <- (0 until n).toArray; t <- (t0 until t0 + 32).toArray) yield (sid, t.toLong, m(sid)(t)))
        check("StreamingDangoron", stream.edgesSoFar)
      } finally sk.unpersist()
    }
  }

  for (beta <- Seq(0.4, 0.7, 0.9)) {
    test(s"reported edges are exact and truly above beta=$beta") {
      val query = q(beta)
      val (edges, _) = Dangoron.run(values, query)
      val truth = NaiveCorr.allCorrs(SparkTestData.tiles(values, query), query).collect()
        .map(e => (e.i, e.j, e.w) -> e.corr).toMap
      edges.collect().foreach { e =>
        assert(e.corr >= beta)
        assert(math.abs(e.corr - truth((e.i, e.j, e.w))) < 1e-9)
      }
    }
  }

  test("accumulators: computed + skipped = pairs × windows") {
    val query = q(0.7)
    val (edges, stats) = Dangoron.run(values, query)
    edges.count()
    val st = stats()
    assert(st.totalWindows === n.toLong * (n - 1) / 2 * query.numWindows)
  }

  test("high beta on noise-dominated pairs skips a large fraction") {
    val query = q(0.95)
    val (edges, stats) = Dangoron.run(values, query)
    edges.count()
    val st = stats()
    assert(st.skippedWindows > 0, "expected some Eq.2 jumps")
    assert(st.skippedFraction > 0.2, s"skipped only ${st.skippedFraction}")
  }

  test("pair-window classification accuracy > 90% vs naive (paper's metric)") {
    val query = q(0.6)
    val (edges, _) = Dangoron.run(values, query)
    val got = edges.collect().map(e => (e.i, e.j, e.w)).toSet
    val truthAll = NaiveCorr.allCorrs(SparkTestData.tiles(values, query), query).collect()
    var correct = 0
    truthAll.foreach { e =>
      val predicted = got.contains((e.i, e.j, e.w))
      val actual = e.corr >= query.beta
      if (predicted == actual) correct += 1
    }
    val acc = correct.toDouble / truthAll.length
    assert(acc > 0.9, s"accuracy $acc")
  }

  test("correlated cluster pairs produce sustained edges, noise pairs few") {
    val query = q(0.7)
    val (edges, _) = Dangoron.run(values, query)
    val byPair = edges.collect().groupBy(e => (e.i, e.j)).view.mapValues(_.length).toMap
    val clusterPairs = for (i <- 0 until n / 2; j <- (i + 1) until n / 2) yield (i, j)
    val noisePairs = for (i <- n / 2 until n; j <- (i + 1) until n) yield (i, j)
    val clusterEdges = clusterPairs.map(p => byPair.getOrElse(p, 0)).sum
    val noiseEdges = noisePairs.map(p => byPair.getOrElse(p, 0)).sum
    assert(clusterEdges > 10 * math.max(1, noiseEdges),
      s"cluster=$clusterEdges noise=$noiseEdges — generator or sweep broken")
  }

  // --- Horizontal pruning ----------------------------------------------------
  test("horizontal pruning is lossless (same edges as unpruned)") {
    val query = q(0.7)
    val sketches = Sketch.build(values, query)
    for (w <- Seq(0, 3, 7)) {
      val pruned = HorizontalPrune.edgesForWindow(sketches, query, w, pivot = 0)
      val full = sketches.collect().flatMap(_.pairs(query)).flatMap { p =>
        val c = PairMath.windowCorr(p, query.windowOffsetBw(w), query.nS, query.bwSize)
        if (c >= query.beta) Some(Edge(p.i, p.j, w, c)) else None
      }.toSet
      assert(pruned.edges.toSet === full, s"window $w")
    }
  }

  test("horizontal pruning actually prunes pairs at high beta") {
    val query = q(0.9)
    val sketches = Sketch.build(values, query)
    val r = HorizontalPrune.edgesForWindow(sketches, query, w = 0, pivot = 0)
    assert(r.prunedPairs > 0, "no pairs pruned — pivot bound never fired")
    assert(r.prunedPairs + r.computedPairs === n.toLong * (n - 1) / 2)
  }

  test("pivotCorrs returns one exact correlation per other series") {
    val query = q(0.5)
    val sketches = Sketch.build(values, query)
    val pc = HorizontalPrune.pivotCorrs(sketches, query, w = 0, pivot = 2)
    assert(pc.keySet === (0 until n).toSet - 2)
    pc.foreach { case (other, c) =>
      val (i, j) = if (other < 2) (other, 2) else (2, other)
      val direct = PairMath.directPearson(matrix(i), matrix(j), 0, query.windowLen)
      assert(math.abs(c - direct) < 1e-9)
    }
  }

  test("horizontal pruning rejects a window outside the query before any job runs") {
    val query = q(0.7)
    val sketches = Sketch.build(values, query)
    for (w <- Seq(-1, query.numWindows)) {
      intercept[IllegalArgumentException](HorizontalPrune.edgesForWindow(sketches, query, w, pivot = 0))
      intercept[IllegalArgumentException](HorizontalPrune.pivotCorrs(sketches, query, w, pivot = 0))
    }
  }

  // --- A sketch answers only the queries it was built for ----------------------
  /** Every path that reads ``sk`` under ``query``, as a thunk returning its edges. */
  private def paths(sk: Dataset[PairSketch], query: SlidingQuery): Seq[(String, () => Set[Edge])] =
    Seq(
      "Dangoron" -> (() => Dangoron.edges(sk, query)._1.collect().toSet),
      "TSUBASA" -> (() => Tsubasa.edges(sk, query)._1.collect().toSet),
      "edgesForWindow" -> (() => HorizontalPrune.edgesForWindow(sk, query, 0, pivot = 0).edges.toSet),
      "pivotCorrs" -> (() => HorizontalPrune.pivotCorrs(sk, query, 0, pivot = 0).map { case (o, c) => Edge(0, o, 0, c) }.toSet))

  test("a sketch rejects a query with another start or bwSize, or an end past its range") {
    val built = q(0.7)
    val sk = Sketch.build(SparkTestData.toValuesDf(spark, SparkTestData.panel(95L, n, len)), built).persist()
    try {
      for ((what, query) <- Seq(
             "shifted start" -> built.copy(start = built.start + built.step),
             "bwSize 16" -> built.copy(step = 16, bwSize = 16),
             "end past the sketch" -> built.copy(end = built.end + built.bwSize));
           (path, run) <- paths(sk, query)) {
        val e = intercept[Exception](run())
        val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
        assert(causes.exists(c => c.isInstanceOf[IllegalArgumentException] && c.getMessage.contains("sketch's [0, 192)")),
          s"$path, $what: $e")
      }
    } finally sk.unpersist()
  }

  test("a sketch answers a query with a smaller end, another step, windowLen or beta") {
    val built = q(0.7)
    val values95 = SparkTestData.toValuesDf(spark, SparkTestData.panel(95L, n, len))
    val sk = Sketch.build(values95, built).persist()
    try {
      for (query <- Seq(built.copy(end = 160), built.copy(step = 16), built.copy(windowLen = 32), built.copy(beta = 0.9))) {
        val own = Sketch.build(values95, query).persist()
        try paths(sk, query).zip(paths(own, query)).foreach { case ((path, got), (_, expect)) =>
          val (g, x) = (got().map(e => (e.i, e.j, e.w) -> e.corr).toMap, expect().map(e => (e.i, e.j, e.w) -> e.corr).toMap)
          assert(g.keySet === x.keySet, s"$path, $query")
          g.foreach { case (k, c) => assert(math.abs(c - x(k)) < 1e-12, s"$path, $query at $k") }
        } finally own.unpersist()
      }
    } finally sk.unpersist()
  }

  test("streams of different lengths per window count: step > bwSize") {
    val query = SlidingQuery(0L, len.toLong, windowLen = 48, step = 24, beta = -1.0, bwSize = 8)
    val (edges, stats) = Dangoron.run(values, query)
    val cnt = edges.count()
    assert(cnt === n.toLong * (n - 1) / 2 * query.numWindows)
    assert(stats().totalWindows === cnt)
  }

  // --- Dangoron.run: one RDD pipeline from raw rows to edges --------------------
  /** ``Dangoron.run`` over ``in`` gives the edges, corr bits and RunStats of ``Dangoron.edges`` over ``Sketch.build``. */
  private def assertRunMatchesEdges(layout: String, in: DataFrame, query: SlidingQuery): Unit = {
    def bits(es: Array[Edge]) = es.map(e => (e.i, e.j, e.w) -> java.lang.Double.doubleToRawLongBits(e.corr)).toMap
    val (got, gotStats) = Dangoron.run(in, query)
    val gotEdges = got.collect()
    val sk = Sketch.build(in, query).persist()
    try {
      val (expect, expectStats) = Dangoron.edges(sk, query)
      val (g, x) = (bits(gotEdges), bits(expect.collect()))
      assert(g.size === gotEdges.length && g.nonEmpty, s"$layout, $query: an edge twice, or none")
      assert(g.keySet === x.keySet, s"$layout, $query")
      assert(g === x, s"$layout, $query: corr bits")
      assert(gotStats() === expectStats(), s"$layout, $query")
    } finally sk.unpersist()
  }

  test("run gives the edges, corr bits and RunStats of edges over built sketches, on every input layout") {
    val timeMajor = values.repartitionByRange(4, col("t")).sortWithinPartitions("t").persist()
    val shuffled = values.repartition(7).persist()
    try for ((layout, in) <- Seq("series-major" -> values, "time-major" -> timeMajor, "repartition(7)" -> shuffled);
             beta <- Seq(-1.0, 0.7); step <- Seq(8, 24))
      assertRunMatchesEdges(layout, in, q(beta).copy(step = step))
    finally { timeMajor.unpersist(); shuffled.unpersist() }
  }

  test("run gives the bits and RunStats of edges over built sketches with each series in two spans, and with one-series blocks") {
    // Two partitions by t, each holding a run of every series: two spans of consecutive steps per series.
    val split = values.repartitionByRange(2, col("t")).sortWithinPartitions("sid", "t").persist()
    // Five series in four blocks: three blocks hold one series, and their diagonal tiles no pair.
    val five = SparkTestData.toValuesDf(spark, SparkTestData.panel(71L, 5, len))
    try {
      val spans = Sketch.segments(split, q(0.7)).collect()
      assert(spans.length === 2 * n && spans.forall(_.contiguous))
      for (beta <- Seq(-1.0, 0.7)) {
        assertRunMatchesEdges("split in two", split, q(beta))
        assertRunMatchesEdges("five series", five, q(beta))
        assertRunMatchesEdges("five series, repartition(64)", five.repartition(64), q(beta))
      }
    } finally split.unpersist()
  }

  /** Runs ``op`` with ``listener`` registered, after every earlier event has been delivered and before it is removed. */
  private def listening[T](listener: SparkListener)(op: => T): T = {
    val sc = spark.sparkContext
    ListenerBusDrain(sc) // no earlier job reaches the listener
    sc.addSparkListener(listener)
    try { val r = op; ListenerBusDrain(sc); r } finally sc.removeSparkListener(listener)
  }

  test("counting run's edges from persisted rows is one Spark job") {
    val in = SparkTestData.toValuesDf(spark, matrix).persist()
    in.count()
    val stagesPerJob = new ConcurrentLinkedQueue[Int]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = stagesPerJob.add(e.stageInfos.length)
    }
    try {
      assert(listening(listener)(Dangoron.run(in, q(0.7))._1.count()) > 0)
      // One shuffle-map stage and one result stage: a tile's two narrow parents read the one shuffle.
      assert(stagesPerJob.asScala.toSeq === Seq(2))
    } finally in.unpersist()
  }

  private val engines = Seq[(String, (Dataset[PairSketch], SlidingQuery) => (Edges, () => RunStats))](
    "Dangoron" -> Dangoron.edges, "TSUBASA" -> Tsubasa.edges)

  test("counting Dangoron's or TSUBASA's edges over persisted sketches is one Spark job") {
    val sk = Sketch.build(values, q(0.7)).persist()
    sk.count()
    try for ((engine, edges) <- engines) {
      val jobs = new AtomicLong
      val listener = new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      }
      assert(listening(listener)(edges(sk, q(0.7))._1.count()) > 0, engine)
      // Jobs, not stages: each job's stage list also names the build's shuffle-map stage, which it skips.
      assert(jobs.get === 1, engine)
    } finally sk.unpersist()
  }

  test("Dangoron's and TSUBASA's edges over one persisted sketch Dataset are partition-aligned") {
    val query = q(0.5)
    val sk = Sketch.build(values, query).persist()
    try {
      val Seq(d, t) = engines.map { case (_, edges) => edges(sk, query)._1.rdd }
      assert(d.getNumPartitions === t.getNumPartitions)
      // Per partition: Dangoron's edges, and those missing from TSUBASA's same partition or off by more than 1e-9.
      val parts = d.zipPartitions(t) { (ds, ts) =>
        val exact = ts.map(e => (e.i, e.j, e.w) -> e.corr).toMap
        val got = ds.toSeq
        Iterator((got.length, got.count(e => !exact.get((e.i, e.j, e.w)).exists(c => math.abs(c - e.corr) <= 1e-9))))
      }.collect()
      assert(parts.count(_._1 > 0) > 1, "fewer than two partitions hold edges")
      assert(parts.map(_._2).sum === 0, "Dangoron edges not in TSUBASA's same partition")
    } finally sk.unpersist()
  }

  test("run's shuffle writes each span once, on series-major and repartitioned input") {
    val shuffled = values.repartition(7).persist()
    shuffled.count()
    try for ((layout, in) <- Seq("series-major" -> values, "repartition(7)" -> shuffled)) {
      val written = new AtomicLong
      val listener = new SparkListener {
        override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
          Option(e.taskMetrics).foreach(m => written.addAndGet(m.shuffleWriteMetrics.recordsWritten))
      }
      assert(listening(listener)(Dangoron.run(in, q(0.7))._1.count()) > 0, layout)
      val spans = Sketch.segments(in, q(0.7)).count()
      assert(spans >= n, layout)
      assert(written.get === spans, s"$layout: shuffle records written")
    } finally shuffled.unpersist()
  }

  /** Every RDD that ``rdd`` reads, itself included, through narrow and shuffle dependencies. */
  private def lineage(rdd: RDD[_]): Seq[RDD[_]] = rdd +: rdd.dependencies.flatMap(d => lineage(d.rdd))

  test("runs over one persisted DataFrame read its one planned input, whatever the query") {
    val in = SparkTestData.toValuesDf(spark, matrix).persist()
    in.count()
    try {
      val input = in.queryExecution.toRdd // planned once, over the cache
      val queries = Seq(q(0.7), SlidingQuery(16L, 176L, windowLen = 48, step = 24, beta = 0.5, bwSize = 8))
      val runs = queries.map(query => Dangoron.run(in, query)._1)
      for ((edges, query) <- runs.zip(queries)) {
        assert(lineage(edges).map(_.id).contains(input.id), s"$query")
        assert(edges.count() > 0, s"$query")
      }
    } finally in.unpersist()
  }

  test("run reads a DataFrame's cache as it stands at each call: persisted, the cache; unpersisted, the source") {
    val sc = spark.sparkContext
    val reads = sc.longAccumulator("source rows read")
    val rows = SparkTestData.toValuesDf(spark, matrix)
    val query = q(0.7)
    val persistedBefore = sc.getPersistentRDDs.keySet
    def edgeBits(es: Array[Edge]) = es.map(e => (e.i, e.j, e.w, java.lang.Double.doubleToRawLongBits(e.corr))).sorted.toSeq
    lazy val want = Dangoron.run(rows, query) match { case (es, st) => (edgeBits(es.collect()), st()) }
    // A plan made before a persist, and one made over a cache since dropped or replaced.
    val fresh = Seq("fresh" -> false, "persisted" -> true, "unpersisted" -> false, "persisted again" -> true)
    for (states <- Seq(fresh, fresh.tail)) {
      val in = spark.createDataFrame(rows.rdd.map { r => reads.add(1); r }, rows.schema)
      try for ((state, cached) <- states) {
        if (cached) { in.persist(); in.count() } else in.unpersist(blocking = true)
        val before = reads.value
        val (edges, stats) = Dangoron.run(in, query)
        val got = (edgeBits(edges.collect()), stats())
        val at = s"${states.head._1} input, $state"
        assert(reads.value - before === (if (cached) 0 else n * len), s"$at: source rows read")
        assert((sc.getPersistentRDDs.keySet -- persistedBefore).size === (if (cached) 1 else 0), s"$at: persisted RDDs")
        assert(got._1.nonEmpty && got === want, at)
      } finally in.unpersist(blocking = true)
    }
  }
}
