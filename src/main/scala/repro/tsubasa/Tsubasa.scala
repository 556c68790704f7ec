package repro.tsubasa

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.core._

/** TSUBASA baseline (Xu, Liu, Nargesian, SIGMOD '22), reimplemented from
  * its published algorithm: exact pairwise correlation on arbitrary time
  * windows recombined from basic-window sketches.
  *
  * TSUBASA's sketches are the same substrate Dangoron uses
  * ([[repro.core.Sketch]]); what it lacks — per the paper under
  * reproduction — is efficiency on *sliding* queries: every window of the
  * slide is recombined from scratch (O(n_s) per pair per window), with no
  * cross-window jump or reuse. That contrast is exactly what Table 1
  * measures.
  */
object Tsubasa {

  /** Sliding query: every window evaluated, entries < β dropped. */
  def edges(sketches: Dataset[PairSketch], q: SlidingQuery): (Dataset[Edge], () => RunStats) = {
    val spark = sketches.sparkSession
    import spark.implicits._
    val computed = spark.sparkContext.longAccumulator("tsubasa.computedWindows")
    val ds = sketches.flatMap(_.pairs.flatMap { p =>
      val r = Sweep.tsubasa(p, q)
      computed.add(r.computed)
      r.edges.map { case (w, c) => Edge(p.i, p.j, w, c) }
    })
    (ds, () => RunStats(computed.value, 0L))
  }

  /** Convenience: raw values → sketches → edges. */
  def run(values: DataFrame, q: SlidingQuery): (Dataset[Edge], () => RunStats) =
    edges(Sketch.build(values, q), q)
}
