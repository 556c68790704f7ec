package repro.core

import org.apache.spark.sql.Dataset

/** The paper's horizontal (cross-pair) pruning: with a pivot series ``z``
  * whose correlations to every other series are known exactly, the
  * triangle/PSD bound confines ``c_xy`` to
  * ``[c_xz·c_yz − √((1−c_xz²)(1−c_yz²)), c_xz·c_yz + √(...)]``.
  * Any pair whose upper bound is below β is pruned without evaluating it —
  * lossless, because the bound is a theorem.
  *
  * Cost model: N−1 exact pivot correlations buy the chance to skip up to
  * (N−1)(N−2)/2 pair evaluations in a window.
  */
object HorizontalPrune {

  final case class WindowResult(edges: Vector[Edge], prunedPairs: Long, computedPairs: Long)

  /** Exact correlations of every series to the pivot at window ``w``,
    * computed in the tasks; only ``(sid, corr)`` reaches the driver. A window
    * outside ``q`` fails on the driver, a sketch that does not cover ``q``
    * ([[PairSketch.pairs]]) in the tasks.
    */
  def pivotCorrs(sketches: Dataset[PairSketch], q: SlidingQuery, w: Int, pivot: Int): Map[Int, Double] = {
    require(0 <= w && w < q.numWindows, s"window $w outside [0, ${q.numWindows})")
    sketches.rdd
      .flatMap(_.pairs(q).collect {
        case p if p.i == pivot || p.j == pivot =>
          (if (p.i == pivot) p.j else p.i) -> PairMath.windowCorr(p, q.windowOffsetBw(w), q.nS, q.bwSize)
      })
      .collect()
      .toMap
  }

  /** Edges of window ``w`` computed with triangle pruning against ``pivot``.
    * Pairs touching the pivot are always kept, their corr read from the
    * pivot table; other pairs are evaluated only if their triangle upper
    * bound reaches β. ``w`` and ``q`` are checked as in [[pivotCorrs]].
    */
  def edgesForWindow(sketches: Dataset[PairSketch], q: SlidingQuery, w: Int, pivot: Int): WindowResult = {
    val sc = sketches.sparkSession.sparkContext
    val bc = sc.broadcast(pivotCorrs(sketches, q, w, pivot))
    val pruned = sc.longAccumulator("horizontal.prunedPairs")
    val computedAcc = sc.longAccumulator("horizontal.computedPairs")
    val edges = try sketches.rdd
      .flatMap(_.pairs(q).flatMap { p =>
        val m = bc.value // no key for the pivot: a pivot pair, or one with no pivot corr, is kept
        val keep = !(m.contains(p.i) && m.contains(p.j)) || Bounds.triangle(m(p.i), m(p.j))._2 >= q.beta
        if (!keep) { pruned.add(1); None }
        else {
          computedAcc.add(1)
          val c = if (p.i == pivot) m(p.j) else if (p.j == pivot) m(p.i)
            else PairMath.windowCorr(p, q.windowOffsetBw(w), q.nS, q.bwSize)
          if (c >= q.beta) Some(Edge(p.i, p.j, w, c)) else None
        }
      })
      .collect()
      .toVector
    finally bc.destroy()
    WindowResult(edges, pruned.value, computedAcc.value)
  }
}
