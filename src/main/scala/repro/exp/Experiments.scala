package repro.exp

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel

import repro.core._
import repro.data.ClimateData
import repro.naive.NaiveCorr
import repro.parcorr.ParCorr
import repro.tomborg.{Band, PowerLaw, Spectrum, Tomborg, TomborgSpec, White}
import repro.tsubasa.Tsubasa

/** The experiment harnesses behind every reproduced table (DESIGN.md §4).
  * Each returns plain row case classes so the bench suites, the
  * spark-submit jobs, and EXPERIMENTS.md all print the same numbers.
  */
object Experiments {

  /** Wall-clock seconds of ``f`` (after the caller has warmed inputs). */
  def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Best-of-``reps`` timing: GC between repetitions, keep the minimum —
    * standard on-JVM benchmarking hygiene (full GCs of a large driver heap
    * otherwise land randomly inside one competitor's run).
    */
  def timeBest[T](reps: Int)(f: => T): (T, Double) = {
    var best = Double.MaxValue
    var out: Option[T] = None
    var i = 0
    while (i < reps) {
      System.gc()
      val (r, sec) = time(f)
      if (sec < best) best = sec
      out = Some(r)
      i += 1
    }
    (out.get, best)
  }

  def fmtTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(c => all.map(_(c).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (cell, w) => cell.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"\n=== $title ===" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  /** One table's workload, read by its job and its bench suite: ``n`` series of ``len``
    * steps, windows of ``windowLen`` steps sliding ``step`` over basic windows of ``bwSize``.
    */
  final case class Workload(n: Int, len: Int, windowLen: Int, step: Int, bwSize: Int) {
    def query(beta: Double): SlidingQuery = SlidingQuery(0L, len.toLong, windowLen, step, beta, bwSize)
  }

  /** Tomborg series of ``len`` (a power of two) steps, windows of ``len/8`` sliding ``len/64``. */
  def tomborg(n: Int, len: Int): Workload = Workload(n, len, windowLen = len / 8, step = len / 64, bwSize = len / 64)

  // Hourly climate: Table 1 slides 60-day windows 12 hours over 2 years, so that per-pair work,
  // not Spark task overhead, dominates; Tables 2 and 4 slide 30-day windows one day at a time.
  val Table1: Workload = Workload(200, 17520, windowLen = 1440, step = 12, bwSize = 12)
  val Table2: Workload = Workload(40, 4368, windowLen = 720, step = 24, bwSize = 24)
  val Table3: Workload = tomborg(40, 4096)
  val Table4: Workload = Table2.copy(n = 100, len = 8760)

  /** The paper's evaluation data for ``w``, NCEI-USCRN-like hourly climate readings, and its query at ``beta``. */
  def climateWorkload(spark: SparkSession, w: Workload, beta: Double): (DataFrame, SlidingQuery) = {
    // Regions scale with the station count (~10 stations per region), as in
    // real station networks: the thresholded network is a sparse union of
    // regional cliques, the regime the paper's pruning targets.
    val nRegions = math.max(1, math.min(w.n, math.max(8, w.n / 10)))
    val values = ClimateData.hourly(spark,
      ClimateData.Spec(nStations = w.n, hours = w.len, nRegions = nRegions))
    (values, w.query(beta))
  }

  // ------------------------------------------------------------------ T1

  final case class T1Row(framework: String, beta: Double, seconds: Double,
                         edges: Long, computedWindows: Long, skippedFrac: Double,
                         speedupVsTsubasa: Double, workRatioVsTsubasa: Double)

  /** Table 1 — pure query time, Dangoron vs TSUBASA (naive optional).
    * Sketches are prebuilt and cached for both frameworks, so the timed
    * section is the sliding query only ("pure query time").
    */
  def table1(spark: SparkSession, values: DataFrame, qBase: SlidingQuery,
             betas: Seq[Double], runNaive: Boolean): Seq[T1Row] = {
    val tiles = Sketch.pairStats(Sketch.segments(values, qBase))
    if (runNaive) tiles.persist(StorageLevel.MEMORY_AND_DISK) // the naive rows read it again
    val sketches = Sketch.pairSketches(tiles, qBase).persist(StorageLevel.MEMORY_AND_DISK)
    sketches.count() // materialize — sketch build excluded from query time
    // Warm-up run (JIT, codegen, shuffle setup) — not timed.
    locally { val (ds, _) = Dangoron.edges(sketches, qBase); ds.count() }
    locally { val (ds, _) = Tsubasa.edges(sketches, qBase); ds.count() }
    val rows = betas.flatMap { beta =>
      val q = qBase.copy(beta = beta)
      val (tres, tsubasaSec) = timeBest(3) { val (ds, st) = Tsubasa.edges(sketches, q); (ds.count(), st()) }
      val (tsubasaEdges, tSt) = tres
      val (dres, dangoronSec) = timeBest(3) { val (ds, st) = Dangoron.edges(sketches, q); (ds.count(), st()) }
      val (dangoronEdges, dSt) = dres
      val base = Seq(
        T1Row("TSUBASA", beta, tsubasaSec, tsubasaEdges, tSt.computedWindows, 0.0, 1.0, 1.0),
        T1Row("Dangoron", beta, dangoronSec, dangoronEdges, dSt.computedWindows,
          dSt.skippedFraction, tsubasaSec / dangoronSec,
          tSt.computedWindows.toDouble / math.max(1L, dSt.computedWindows)))
      val naiveRow = Option.when(runNaive) {
        val (nEdges, nSec) = time { NaiveCorr.edges(tiles, q).count() }
        T1Row("Naive", beta, nSec, nEdges, tSt.computedWindows, 0.0, tsubasaSec / nSec, 1.0)
      }
      base ++ naiveRow
    }
    sketches.unpersist(); tiles.unpersist()
    rows
  }

  def printT1(rows: Seq[T1Row]): String =
    fmtTable("Table 1 — pure query time (s)",
      Seq("framework", "beta", "seconds", "edges", "computed pair-windows",
        "skipped%", "speedup vs TSUBASA", "work ratio vs TSUBASA"),
      rows.map(r => Seq(r.framework, f"${r.beta}%.2f", f"${r.seconds}%.3f",
        r.edges.toString, r.computedWindows.toString, f"${r.skippedFrac * 100}%.1f",
        f"${r.speedupVsTsubasa}%.2fx", f"${r.workRatioVsTsubasa}%.2fx")))

  // ------------------------------------------------------------------ T2

  final case class T2Row(framework: String, beta: Double, accuracy: Double,
                         precision: Double, recall: Double, f1: Double, maxCorrErr: Double)

  val ParCorrD = 32 // ParCorr's sketch dimension in Table 2

  /** Table 2 — edge accuracy vs exact, Dangoron vs ParCorr. */
  def table2(spark: SparkSession, values: DataFrame, qBase: SlidingQuery, betas: Seq[Double]): Seq[T2Row] = {
    val tiles = Sketch.pairStats(Sketch.segments(values, qBase)).persist(StorageLevel.MEMORY_AND_DISK)
    val truth = NaiveCorr.allCorrs(tiles, qBase).persist(StorageLevel.MEMORY_AND_DISK)
    val total = truth.count() // the truth holds every pair-window
    val sketches = Sketch.pairSketches(tiles, qBase).persist(StorageLevel.MEMORY_AND_DISK)
    val rows = betas.flatMap { beta =>
      val q = qBase.copy(beta = beta)
      val dAcc = Metrics.compare(Dangoron.edges(sketches, q)._1.rdd, truth, beta, total)
      val pAcc = Metrics.compare(ParCorr.edges(tiles, q, d = ParCorrD), truth, beta, total)
      Seq(
        T2Row("Dangoron", beta, dAcc.accuracy, dAcc.precision, dAcc.recall, dAcc.f1, dAcc.maxCorrErrOnHits),
        T2Row(s"ParCorr(d=$ParCorrD)", beta, pAcc.accuracy, pAcc.precision, pAcc.recall, pAcc.f1, pAcc.maxCorrErrOnHits))
    }
    truth.unpersist(); sketches.unpersist(); tiles.unpersist()
    rows
  }

  def printT2(rows: Seq[T2Row]): String =
    fmtTable("Table 2 — accuracy vs exact",
      Seq("framework", "beta", "accuracy", "precision", "recall", "F1", "max corr err (TP)"),
      rows.map(r => Seq(r.framework, f"${r.beta}%.2f", f"${r.accuracy * 100}%.2f%%",
        f"${r.precision}%.4f", f"${r.recall}%.4f", f"${r.f1}%.4f", f"${r.maxCorrErr}%.4f")))

  // ------------------------------------------------------------------ T3

  final case class T3Row(spectrum: String, framework: String, seconds: Double,
                         accuracy: Double, f1: Double)

  /** Table 3 — robustness across Tomborg spectral distributions. */
  def table3(spark: SparkSession, w: Workload, beta: Double,
             spectra: Seq[(String, Spectrum)]): Seq[T3Row] = {
    spectra.flatMap { case (name, spec) =>
      val tspec = TomborgSpec(n = w.n, len = w.len, clusters = 8, rho = 0.8, spectrum = spec)
      val q = w.query(beta)
      val values = Tomborg.generate(spark, tspec)
      val tiles = Sketch.pairStats(Sketch.segments(values, q)).persist(StorageLevel.MEMORY_AND_DISK)
      val truth = NaiveCorr.allCorrs(tiles, q).persist(StorageLevel.MEMORY_AND_DISK)
      val total = truth.count() // the truth holds every pair-window
      val sketches = Sketch.pairSketches(tiles, q).persist(StorageLevel.MEMORY_AND_DISK)
      sketches.count()
      // Accuracy from one run of each framework's edges, then its seconds: the best of three edge counts, as in Table 1.
      def row(framework: String, count: => Long, edges: => RDD[Edge]) = {
        val acc = Metrics.compare(edges, truth, beta, total)
        T3Row(name, framework, timeBest(3)(count)._2, acc.accuracy, acc.f1)
      }
      val rows = Seq(
        row("Dangoron", Dangoron.edges(sketches, q)._1.count(), Dangoron.edges(sketches, q)._1.rdd),
        row("TSUBASA", Tsubasa.edges(sketches, q)._1.count(), Tsubasa.edges(sketches, q)._1.rdd),
        row("ParCorr", ParCorr.edges(tiles, q).count(), ParCorr.edges(tiles, q)))
      truth.unpersist(); sketches.unpersist(); tiles.unpersist()
      rows
    }
  }

  def printT3(rows: Seq[T3Row]): String =
    fmtTable("Table 3 — robustness across Tomborg spectra (β fixed)",
      Seq("spectrum", "framework", "seconds", "accuracy", "F1"),
      rows.map(r => Seq(r.spectrum, r.framework, f"${r.seconds}%.3f",
        f"${r.accuracy * 100}%.2f%%", f"${r.f1}%.4f")))

  // ------------------------------------------------------------------ T4

  final case class T4Row(beta: Double, computedWindows: Long, skippedWindows: Long,
                         skippedFrac: Double, horizPrunedPairs: Long, horizComputedPairs: Long)

  /** Table 4 — pruning power: Eq. 2 window skips + horizontal (triangle)
    * pair pruning at the first window.
    */
  def table4(spark: SparkSession, values: DataFrame, qBase: SlidingQuery, betas: Seq[Double]): Seq[T4Row] = {
    val sketches = Sketch.build(values, qBase).persist(StorageLevel.MEMORY_AND_DISK)
    sketches.count()
    val rows = betas.map { beta =>
      val q = qBase.copy(beta = beta)
      val (ds, stats) = Dangoron.edges(sketches, q)
      ds.count()
      val st = stats()
      val hp = HorizontalPrune.edgesForWindow(sketches, q, w = 0, pivot = 0)
      T4Row(beta, st.computedWindows, st.skippedWindows, st.skippedFraction,
        hp.prunedPairs, hp.computedPairs)
    }
    sketches.unpersist()
    rows
  }

  def printT4(rows: Seq[T4Row]): String =
    fmtTable("Table 4 — pruning power",
      Seq("beta", "computed windows", "skipped windows", "skipped%", "horiz pruned pairs (w=0)", "horiz computed pairs (w=0)"),
      rows.map(r => Seq(f"${r.beta}%.2f", r.computedWindows.toString, r.skippedWindows.toString,
        f"${r.skippedFrac * 100}%.1f", r.horizPrunedPairs.toString, r.horizComputedPairs.toString)))

  /** The Tomborg spectra used by Table 3. */
  val defaultSpectra: Seq[(String, Spectrum)] = Seq(
    ("white", White),
    ("1/f^1.5", PowerLaw(1.5)),
    ("band[2,16]", Band(2, 16)))
}
