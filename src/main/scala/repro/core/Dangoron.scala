package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}

/** Work counters for one Dangoron (or TSUBASA) run. Valid only after an
  * action has materialized the edges.
  */
final case class RunStats(computedWindows: Long, skippedWindows: Long) {
  def totalWindows: Long = computedWindows + skippedWindows
  def skippedFraction: Double =
    if (totalWindows == 0) 0.0 else skippedWindows.toDouble / totalWindows
}

/** An engine's query edges: the RDD and the two actions every caller takes on it. */
final class Edges(val rdd: RDD[Edge]) {
  def count(): Long = rdd.count()
  def collect(): Array[Edge] = rdd.collect()
}

/** Dangoron on Spark: the per-pair jump sweep parallelized across the
  * N(N−1)/2 pairs as a narrow ``flatMap`` over the sketch rows, each task
  * sweeping the pairs of its tiles. Pairs are independent, so this is the
  * natural distribution axis; Spark accumulators surface how much work the
  * Eq. 2 jumps eliminated.
  */
object Dangoron {

  /** Edges (corr ≥ β) plus a stats thunk (read it after an action). Persist ``sketches`` before its
    * first query: Spark plans a Dataset's ``rdd`` once, so a later persist would not be read.
    */
  def edges(sketches: Dataset[PairSketch], q: SlidingQuery): (Edges, () => RunStats) =
    sweepEdges(sketches.rdd, q, "dangoron")(jumpSweep(q))

  /** Raw values → sketch rows → edges as one RDD pipeline that encodes neither: a count is one Spark job. */
  def run(values: DataFrame, q: SlidingQuery): (RDD[Edge], () => RunStats) = {
    val rows = Sketch.rows(Sketch.pairStats(Sketch.segments(values, q)), q)
    val (edges, stats) = sweepEdges(rows, q, "dangoron")(jumpSweep(q))
    (edges.rdd, stats)
  }

  /** Dangoron's sweep: one prefix buffer per sketch row, reused by its pairs. */
  private def jumpSweep(q: SlidingQuery): () => Pair => SweepResult =
    () => { val pre = new PairMath.Prefix; p => Sweep.dangoron(p, q, pre) }

  /** The one row → pair → edge sweep of both engines, a narrow ``flatMap`` over ``rows``: each pair of a
    * sketch row swept with the row's ``sweep()``, the work counted in the accumulators
    * ``<name>.computedWindows`` and ``<name>.skippedWindows``.
    */
  private[repro] def sweepEdges(rows: RDD[PairSketch], q: SlidingQuery, name: String)(
      sweep: () => Pair => SweepResult): (Edges, () => RunStats) = {
    val computed = rows.sparkContext.longAccumulator(s"$name.computedWindows")
    val skipped = rows.sparkContext.longAccumulator(s"$name.skippedWindows")
    val edges = rows.flatMap { row =>
      val pairSweep = sweep()
      row.pairs(q).flatMap { p =>
        val r = pairSweep(p)
        computed.add(r.computed); skipped.add(r.skipped)
        r.edges.map { case (w, c) => Edge(p.i, p.j, w, c) }
      }
    }
    (new Edges(edges), () => RunStats(computed.value, skipped.value))
  }
}
