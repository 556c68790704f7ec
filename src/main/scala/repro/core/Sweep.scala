package repro.core

import scala.collection.mutable.ArrayBuffer

/** Result of sweeping one pair across all sliding windows.
  *
  * ``edges`` holds ``(window, corr)`` for windows where the pair is at or
  * above the threshold; ``computed`` counts windows evaluated exactly and
  * ``skipped`` windows eliminated by the Eq. 2 jump — together they always
  * sum to ``numWindows``.
  */
final case class SweepResult(edges: Vector[(Int, Double)], computed: Long, skipped: Long)

/** Per-pair sweep algorithms — pure Scala, executed inside Spark tasks by
  * [[repro.core.Dangoron]] and [[repro.tsubasa.Tsubasa]] and directly by
  * unit tests.
  */
object Sweep {

  /** Dangoron's sweep (the paper's core contribution): evaluate a window
    * exactly; if the pair is below β, binary-search the Eq. 2 prefix-sum
    * bound for the furthest window that is still provably (under the
    * paper's assumption) below β, skip straight past it, and re-evaluate at
    * the landing window. Each evaluated window and each bound is O(1), two
    * lookups per term in the pair's Eq. 1 and Eq. 2 prefix sums, built in one
    * pass into ``pre``.
    */
  def dangoron(sk: Pair, q: SlidingQuery, pre: PairMath.Prefix = new PairMath.Prefix): SweepResult = {
    val out = new ArrayBuffer[(Int, Double)]
    var computed, skipped = 0L
    val sums = pre.fill(sk, q.bwSize)
    var w = 0
    while (w < q.numWindows) {
      val corr = sums.corr(q.windowOffsetBw(w), q.nS, q.bwSize)
      computed += 1
      val k =
        if (corr >= q.beta) { out += ((w, corr)); 0 }
        else Bounds.maxJump(corr, q.beta, sums, q.windowOffsetBw(w) + q.nS, q.s, q.nS, q.numWindows - 1 - w)
      skipped += k
      w += k + 1
    }
    SweepResult(out.toVector, computed, skipped)
  }

  /** TSUBASA's sliding query: recombine every window from the sketch from
    * scratch (O(n_s) per window, no cross-window reuse, no skipping) — the
    * baseline behaviour the paper attributes to TSUBASA on sliding queries.
    */
  def tsubasa(sk: Pair, q: SlidingQuery): SweepResult = {
    val out = new ArrayBuffer[(Int, Double)]
    var w = 0
    while (w < q.numWindows) {
      val corr = PairMath.windowCorr(sk, q.windowOffsetBw(w), q.nS, q.bwSize)
      if (corr >= q.beta) out += ((w, corr))
      w += 1
    }
    SweepResult(out.toVector, q.numWindows.toLong, 0L)
  }

  /** Exact sweep over raw values — the ground truth. ``x`` and ``y`` cover
    * the query range (index 0 = query start).
    */
  def naive(x: Array[Double], y: Array[Double], q: SlidingQuery): Vector[(Int, Double)] = {
    require(x.length >= q.nBw * q.bwSize, s"series shorter (${x.length}) than query range (${q.nBw * q.bwSize})")
    (0 until q.numWindows).iterator.map { w =>
      (w, PairMath.directPearson(x, y, w * q.step, q.windowLen))
    }.toVector
  }
}
