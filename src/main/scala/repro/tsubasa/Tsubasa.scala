package repro.tsubasa

import org.apache.spark.sql.Dataset
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
  def edges(sketches: Dataset[PairSketch], q: SlidingQuery): (Edges, () => RunStats) = {
    val work = Work(sketches.sparkSession.sparkContext, "tsubasa")
    val edges = sketches.rdd.flatMap(_.pairs(q).flatMap { p =>
      val r = Sweep.tsubasa(p, q)
      work.add(r.computed, r.skipped)
      r.edges.map { case (w, c) => Edge(p.i, p.j, w, c) }
    })
    (new Edges(edges), work.stats)
  }
}
