package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, Encoders}

/** Work counters for one Dangoron (or TSUBASA) run. Valid only after an
  * action has materialized the edges.
  */
final case class RunStats(computedWindows: Long, skippedWindows: Long) {
  def totalWindows: Long = computedWindows + skippedWindows
  def skippedFraction: Double =
    if (totalWindows == 0) 0.0 else skippedWindows.toDouble / totalWindows
}

/** Dangoron on Spark: the per-pair jump sweep parallelized across the
  * N(N−1)/2 pairs as a narrow ``flatMap`` over the sketch rows, each task
  * sweeping the pairs of its tiles. Pairs are independent, so this is the
  * natural distribution axis; Spark accumulators surface how much work the
  * Eq. 2 jumps eliminated.
  */
object Dangoron {

  /** Edges (corr ≥ β) plus a stats thunk (read it after an action). */
  def edges(sketches: Dataset[PairSketch], q: SlidingQuery): (Dataset[Edge], () => RunStats) =
    sweepEdges(sketches, q, "dangoron")(jumpSweep(q))

  /** Both engines on cached sketches: [[rowSweep]] as a typed ``flatMap``. */
  private[repro] def sweepEdges(sketches: Dataset[PairSketch], q: SlidingQuery, name: String)(
      sweep: () => Pair => SweepResult): (Dataset[Edge], () => RunStats) = {
    val (perRow, stats) = rowSweep(sketches.sparkSession.sparkContext, q, name)(sweep)
    (sketches.flatMap(perRow)(Encoders.product[Edge]), stats)
  }

  /** Raw values → sketch rows → edges as one RDD pipeline that encodes neither: a count is one Spark job. */
  def run(values: DataFrame, q: SlidingQuery): (RDD[Edge], () => RunStats) = {
    val (perRow, stats) = rowSweep(values.sparkSession.sparkContext, q, "dangoron")(jumpSweep(q))
    (Sketch.rows(Sketch.pairStats(Sketch.segments(values, q)), q).flatMap(perRow), stats)
  }

  /** Dangoron's sweep: one prefix buffer per sketch row, reused by its pairs. */
  private def jumpSweep(q: SlidingQuery): () => Pair => SweepResult =
    () => { val pre = new PairMath.Prefix; p => Sweep.dangoron(p, q, pre) }

  /** The one row → pair → edge sweep: each pair of a sketch row swept with the row's ``sweep()``,
    * the work counted in the accumulators ``<name>.computedWindows`` and ``<name>.skippedWindows``.
    */
  private def rowSweep(sc: SparkContext, q: SlidingQuery, name: String)(
      sweep: () => Pair => SweepResult): (PairSketch => Iterator[Edge], () => RunStats) = {
    val computed = sc.longAccumulator(s"$name.computedWindows")
    val skipped = sc.longAccumulator(s"$name.skippedWindows")
    val perRow = (row: PairSketch) => {
      val pairSweep = sweep()
      row.pairs(q).flatMap { p =>
        val r = pairSweep(p)
        computed.add(r.computed); skipped.add(r.skipped)
        r.edges.map { case (w, c) => Edge(p.i, p.j, w, c) }
      }
    }
    (perRow, () => RunStats(computed.value, skipped.value))
  }
}
