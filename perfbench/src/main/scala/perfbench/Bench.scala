package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.ListenerBusDrain
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel

import repro.core.{Dangoron, PairMath, PairSketch, SlidingQuery, Sketch}
import repro.data.ClimateData
import repro.tsubasa.Tsubasa

/** What one workload run hands back to [[Main]]. ``metrics`` holds the
  * declared end-to-end or per-layer set; ``summary`` the workload's own
  * names for the same numbers, printed for a reader.
  */
final case class Outcome(attempted: Int, failed: Int, correct: Boolean,
                         metrics: Map[String, Double], summary: Seq[Metrics.Metric])

/** Helpers shared by the workloads: inputs, timing, the correctness gate. */
object Bench {

  /** Set-ups per run; ``setup_s`` is their median. */
  val SetupReps = 3
  /** Pair-windows per query checked against direct Pearson on raw values. */
  val SamplePairWindows = 200
  /** Largest |Δcorr| accepted between two exact computations. */
  val Tol = 1e-9

  /** A progress line on stderr, stamped with seconds since JVM start. */
  def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${java.lang.management.ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.2f s] $msg")

  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Runs ``op`` back to back (a closed loop) until ``seconds`` have passed;
    * an op that throws is kept as a failure with its time.
    */
  def closedLoop[T](seconds: Double)(op: => T): Vector[(Either[Throwable, T], Double)] = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val out = Vector.newBuilder[(Either[Throwable, T], Double)]
    while (System.nanoTime() < deadline)
      out += time(try Right(op) catch { case NonFatal(e) => Left(e) })
    val r = out.result()
    log(f"closed loop: ${r.length} ops in ${(System.nanoTime() - deadline) / 1e9 + seconds}%.2f s: " +
      r.map(o => f"${o._2}%.3f").mkString(" "))
    r
  }

  /** Driver heap in use after a full GC, in MB. The driver is also the
    * executor in local mode, so this includes cached blocks.
    */
  def heapAfterGcMb(): Double = {
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory() - rt.freeMemory()) / 1048576.0
  }

  /** Bytes Spark reports for every persisted RDD and Dataset. */
  def cachedBytes(spark: SparkSession): Long =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  /** Generated climate readings: the driver-side matrix the checks read,
    * and the ``(sid, t, v)`` rows the program receives, persisted.
    */
  final case class Input(raw: Array[Array[Double]], values: DataFrame, bc: Broadcast[Array[Array[Double]]]) {
    def release(): Unit = { values.unpersist(blocking = true); bc.destroy() }
  }

  def climate(nStations: Int, hours: Int, seed: Long): Array[Array[Double]] =
    ClimateData.hourlyLocal(ClimateData.Spec(nStations = nStations, hours = hours,
      nRegions = math.min(nStations, math.max(8, nStations / 10)), seed = seed))

  def input(spark: SparkSession, raw: Array[Array[Double]]): Input = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(raw)
    val hours = raw(0).length
    val values = spark.range(raw.length.toLong * hours)
      .map { id => val sid = (id / hours).toInt; val t = id % hours; (sid, t, bc.value(sid)(t.toInt)) }
      .toDF("sid", "t", "v")
      .persist(StorageLevel.MEMORY_ONLY)
    values.count()
    Input(raw, values, bc)
  }

  /** Runs ``make`` [[SetupReps]] times, releasing all but the last result;
    * returns it with the median set-up time.
    */
  def setUp[T](make: () => T)(release: T => Unit): (T, Double) = {
    val runs = (1 to SetupReps).map { k => val r = time(make()); log(f"set-up $k: ${r._2}%.2f s"); r }
    runs.init.foreach(r => release(r._1))
    (runs.last._1, Stats.median(runs.map(_._2)))
  }

  /** Where a traced run keeps its layer numbers. Each layer call runs under
    * a job group named after it, so [[LayerListener]] can attribute stage
    * metrics to it.
    */
  final class Tracer(val spark: SparkSession) {
    private val sc = spark.sparkContext
    private val listener = new LayerListener
    sc.addSparkListener(listener)

    def apply[T](group: String)(f: => T): (T, Double) = {
      sc.setJobGroup(group, group, interruptOnCancel = false)
      try time(f) finally sc.clearJobGroup()
    }

    /** Jobs Spark started under ``group``. */
    def jobs(group: String): Int = { ListenerBusDrain(sc); listener.jobs(group) }

    /** Stage metrics of ``layer``, summed over its job ``groups``, per
      * layer call, ``calls`` being how many calls ran.
      */
    def stageMetrics(layer: String, calls: Int, groups: Seq[String]): Map[String, Double] = {
      ListenerBusDrain(sc)
      val t = groups.map(listener.totals).reduce(_ + _)
      val per = math.max(1, calls).toDouble
      Map(
        "executor_run_s" -> t.executorRunMs / 1e3, "shuffle_write_bytes" -> t.shuffleWriteBytes.toDouble,
        "shuffle_read_bytes" -> t.shuffleReadBytes.toDouble, "spill_bytes" -> t.spillBytes.toDouble,
        "gc_s" -> t.gcMs / 1e3, "tasks" -> t.tasks.toDouble,
      ).map { case (k, v) => s"$layer.$k" -> v / per }
    }
  }

  /** Every per-layer metric at 0: a layer a workload does not call did no work. */
  def zeroLayers: Map[String, Double] = Metrics.perLayer.map(_._1 -> 0.0).toMap

  /** Sketch construction with each layer persisted, counted and timed on its
    * own; returns the persisted sketches and the layer numbers.
    */
  def tracedSketches(tr: Tracer, values: DataFrame, q: SlidingQuery): (Dataset[PairSketch], Map[String, Double]) = {
    val spark = values.sparkSession
    val before = cachedBytes(spark)
    val ((segs, nSegs), segS) = tr("sketch.segments") {
      val d = Sketch.segments(values, q).persist(); (d, d.count()) }
    val ((pairBw, nPairBw), pairS) = tr("sketch.pair_stats") {
      val d = Sketch.pairStats(segs).persist(); (d, d.count()) }
    val ((sk, nPairs), asmS) = tr("sketch.assembly") {
      val d = Sketch.pairSketches(pairBw, q).persist(); (d, d.count()) }
    segs.unpersist(blocking = true)
    pairBw.unpersist(blocking = true)
    (sk, Map(
      "sketch.segments_s" -> segS, "sketch.segments_rows" -> nSegs.toDouble,
      "sketch.pair_stats_s" -> pairS, "sketch.pair_stats_rows" -> nPairBw.toDouble,
      "sketch.assembly_s" -> asmS, "sketch.assembly_pairs" -> nPairs.toDouble,
      "sketch.cached_bytes" -> (cachedBytes(spark) - before).toDouble))
  }

  // ------------------------------------------------------------ the gate

  /** The correctness gate for one query: Dangoron's edges against the
    * ``Tsubasa.edges`` reference over the same sketches, and sampled
    * pair-windows of the reference against direct Pearson on raw values.
    */
  final case class Checked(dangoronEdges: Long, exactEdges: Long, errors: Seq[String])

  private def pairWindowKey(n: Int, numWindows: Int)(i: Int, j: Int, w: Int): Long =
    (i.toLong * n + j) * numWindows + w

  /** Seeded pair-windows ``(i < j, w)`` to check against direct Pearson. */
  def samplePairWindows(n: Int, numWindows: Int, seed: Long): Seq[(Int, Int, Int)] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(SamplePairWindows) {
      val a = rnd.nextInt(n); var b = rnd.nextInt(n - 1); if (b >= a) b += 1
      (math.min(a, b), math.max(a, b), rnd.nextInt(numWindows))
    }.distinct
  }

  /** Errors where the exact reference disagrees with direct Pearson on raw
    * values: a pair-window clearly at or above β must be an edge with the
    * same corr, one clearly below β must not be an edge.
    */
  def directPearsonErrors(sample: Seq[(Int, Int, Int)], exact: (Int, Int, Int) => Option[Double],
                          raw: Array[Array[Double]], q: SlidingQuery): Seq[String] =
    sample.flatMap { case (i, j, w) =>
      val direct = PairMath.directPearson(raw(i), raw(j), q.windowStartT(w).toInt, q.windowLen)
      val got = exact(i, j, w)
      val ok =
        if (direct >= q.beta + Tol) got.exists(c => math.abs(c - direct) <= Tol)
        else if (direct < q.beta - Tol) got.isEmpty
        else true
      if (ok) None else Some(s"pair-window ($i,$j,$w): direct Pearson $direct, reference $got")
    }

  /** Gate for a query over persisted ``sketches``. Both sweeps are narrow
    * ``flatMap``s of the same persisted Dataset, so partition k of one holds
    * the same pairs as partition k of the other and they are compared
    * partition by partition, without a shuffle.
    */
  def check(sketches: Dataset[PairSketch], q: SlidingQuery, raw: Array[Array[Double]], seed: Long): Checked = {
    val spark = sketches.sparkSession
    val key = pairWindowKey(raw.length, q.numWindows) _
    val sample = samplePairWindows(raw.length, q.numWindows, seed)
    val sampleKeys = spark.sparkContext.broadcast(sample.map { case (i, j, w) => key(i, j, w) }.toSet)
    val dangoron = Dangoron.edges(sketches, q)._1.rdd
    val exact = Tsubasa.edges(sketches, q)._1.rdd
    val parts = dangoron.zipPartitions(exact) { (ds, ts) =>
      val ref = new mutable.LongMap[Double]()
      ts.foreach(e => ref(key(e.i, e.j, e.w)) = e.corr)
      var n = 0L
      val bad = Vector.newBuilder[String]
      ds.foreach { e =>
        n += 1
        val c = ref.get(key(e.i, e.j, e.w))
        if (!c.exists(c => math.abs(c - e.corr) <= Tol)) bad += s"Dangoron edge $e, reference $c"
      }
      val sampled = sampleKeys.value.iterator.flatMap(k => ref.get(k).map(k -> _)).toVector
      Iterator((n, ref.size.toLong, bad.result().take(5), sampled))
    }.collect()
    sampleKeys.destroy()
    log(s"checked $q")
    val sampledRef = parts.flatMap(_._4).toMap
    val errors = parts.flatMap(_._3).toSeq ++
      directPearsonErrors(sample, (i, j, w) => sampledRef.get(key(i, j, w)), raw, q)
    Checked(parts.map(_._1).sum, parts.map(_._2).sum, errors)
  }
}
