package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}

/** Work counters for one Dangoron (or TSUBASA) run. Valid only after an
  * action has materialized the edge Dataset.
  */
final case class RunStats(computedWindows: Long, skippedWindows: Long) {
  def totalWindows: Long = computedWindows + skippedWindows
  def skippedFraction: Double =
    if (totalWindows == 0) 0.0 else skippedWindows.toDouble / totalWindows
}

/** Dangoron on Spark: the per-pair jump sweep parallelized across the
  * N(N−1)/2 pairs as a typed ``flatMap`` over the sketch rows, each task
  * sweeping the pairs of its tiles. Pairs are independent, so this is the
  * natural distribution axis; Spark accumulators surface how much work the
  * Eq. 2 jumps eliminated.
  */
object Dangoron {

  /** Edges (corr ≥ β) plus a stats thunk (read it after an action). */
  def edges(sketches: Dataset[PairSketch], q: SlidingQuery): (Dataset[Edge], () => RunStats) =
    sweepEdges(sketches, q, "dangoron") { () =>
      val pre = new PairMath.Prefix // one prefix buffer per sketch row, reused by its pairs
      p => Sweep.dangoron(p, q, pre)
    }

  /** Both engines on Spark: a narrow ``flatMap`` sweeping each pair of a sketch row with the
    * row's ``sweep()``, counting the work in the accumulators ``<name>.computedWindows`` and
    * ``<name>.skippedWindows``.
    */
  private[repro] def sweepEdges(sketches: Dataset[PairSketch], q: SlidingQuery, name: String)(
      sweep: () => Pair => SweepResult): (Dataset[Edge], () => RunStats) = {
    val spark = sketches.sparkSession
    import spark.implicits._
    val computed = spark.sparkContext.longAccumulator(s"$name.computedWindows")
    val skipped = spark.sparkContext.longAccumulator(s"$name.skippedWindows")
    val ds = sketches.flatMap { row =>
      val pairSweep = sweep()
      row.pairs(q).flatMap { p =>
        val r = pairSweep(p)
        computed.add(r.computed); skipped.add(r.skipped)
        r.edges.map { case (w, c) => Edge(p.i, p.j, w, c) }
      }
    }
    (ds, () => RunStats(computed.value, skipped.value))
  }

  /** Convenience: raw values → sketches → edges. */
  def run(values: DataFrame, q: SlidingQuery): (Dataset[Edge], () => RunStats) =
    edges(Sketch.build(values, q), q)
}
