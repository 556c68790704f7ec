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
    * lookups per term in the pair's Eq. 1 and Eq. 2 prefix sums, filled in
    * one pass into ``pre``. This is the lone pair view's entry point; the
    * engines run the same [[Jumps]] over the same fill, one edge at a time.
    */
  def dangoron(sk: Pair, q: SlidingQuery, pre: PairMath.Prefix = new PairMath.Prefix): SweepResult = {
    val out = new ArrayBuffer[(Int, Double)]
    val jumps = new Jumps(q).start(pre.fill(sk, q.bwSize))
    var w = jumps.next()
    while (w >= 0) { out += ((w, jumps.corr)); w = jumps.next() }
    SweepResult(out.toVector, jumps.computed, jumps.skipped)
  }

  /** Dangoron's jump loop over one pair's filled prefix, walked lazily: each
    * [[next]] evaluates windows and jumps until a window at or above β.
    * ``computed`` and ``skipped`` count the current pair's windows.
    */
  final class Jumps(q: SlidingQuery) {
    private var pre: PairMath.Prefix = _
    private var w = 0
    var computed, skipped = 0L
    /** The correlation of the window [[next]] returned last. */
    var corr = 0.0

    def start(filled: PairMath.Prefix): Jumps = { pre = filled; w = 0; computed = 0; skipped = 0; this }

    /** The next window at or above β, or −1 once every window is computed or skipped. */
    def next(): Int = {
      var edge = -1
      while (edge < 0 && w < q.numWindows) {
        val c = pre.corr(q.windowOffsetBw(w), q.nS, q.bwSize)
        computed += 1
        if (c >= q.beta) { corr = c; edge = w; w += 1 }
        else {
          val k = Bounds.maxJump(c, q.beta, pre, q.windowOffsetBw(w) + q.nS, q.s, q.nS, q.numWindows - 1 - w)
          skipped += k
          w += k + 1
        }
      }
      edge
    }
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
