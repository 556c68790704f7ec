package repro.core

/** Exact Pearson recombination from basic-window sketches (the paper's
  * Eq. 1), in pure Scala so it can be unit-tested without Spark and run
  * inside the sweep tasks, one pair view at a time.
  *
  * The identity used (uniform basic-window size ``b``):
  *
  * {{{
  *   Σ_{u∈W} (x_u − x̄)(y_u − ȳ)
  *     = Σ_{t∈W} cp_t  +  b · ( Σ μx_t μy_t  −  (Σ μx_t)(Σ μy_t) / n_s )
  * }}}
  *
  * i.e. total covariance = within-basic-window covariance + covariance of
  * the basic-window means, which is Eq. 1 with σσc rewritten as cov and the
  * δ-terms expanded. This is pure algebra — exact for any data, and for
  * means shifted by any per-series constant, as the sketch's are.
  */
object PairMath {

  /** Variance below this is treated as zero (constant window ⇒ corr = 0). */
  val VarEps: Double = 1e-12

  /** Eq. 1's sums over a run of basic windows: of μx, μy, m2x + b·μx², m2y + b·μy², cp + b·μx·μy. */
  final class WindowSums {
    var sMuX, sMuY, sXX, sYY, sXY: Double = 0.0

    def addBw(sk: Pair, t: Int, b: Int): Unit = {
      val mx = sk.meanX(t); val my = sk.meanY(t)
      sMuX += mx; sMuY += my
      sXX += sk.m2x(t) + b * mx * mx; sYY += sk.m2y(t) + b * my * my; sXY += sk.cp(t) + b * mx * my
    }
  }

  /** Fresh sums for the window covering local basic windows [from, from + nS): O(n_s). */
  def buildSums(sk: Pair, from: Int, nS: Int, b: Int): WindowSums = {
    val ws = new WindowSums
    var t = from
    while (t < from + nS) { ws.addBw(sk, t, b); t += 1 }
    ws
  }

  /** One pair's prefix sums in a buffer reused from pair to pair: [[fill]]
    * loads them in one pass, entry ``6t + k`` holding, over basic windows
    * ``[0, t)``, term ``k < 5`` of Eq. 1's sums and, at ``k = 5``, Eq. 2's
    * ``Σ (1 − c_u)`` ([[upper]]); [[corr]] is Eq. 1 for the window over
    * ``[from, from + nS)`` from two lookups per term, O(1) for any slide.
    */
  final class Prefix {
    private var p = new Array[Double](0)
    private val ws = new WindowSums

    def fill(sk: Pair, b: Int): Prefix = {
      if (p.length < 6 * (sk.nBw + 1)) p = new Array[Double](6 * (sk.nBw + 1))
      val run = new WindowSums
      var up = 0.0
      var t = 0
      while (t < sk.nBw) {
        run.addBw(sk, t, b); up += 1.0 - bwCorr(sk, t); t += 1
        val at = 6 * t
        p(at) = run.sMuX; p(at + 1) = run.sMuY; p(at + 2) = run.sXX; p(at + 3) = run.sYY; p(at + 4) = run.sXY
        p(at + 5) = up
      }
      this
    }

    /** Eq. 2's ``Σ_{u<t} (1 − c_u)``; zero-variance basic windows count ``c = −1``. */
    def upper(t: Int): Double = p(6 * t + 5)

    def corr(from: Int, nS: Int, b: Int): Double = {
      val hi = 6 * (from + nS); val lo = 6 * from
      ws.sMuX = p(hi) - p(lo); ws.sMuY = p(hi + 1) - p(lo + 1)
      ws.sXX = p(hi + 2) - p(lo + 2); ws.sYY = p(hi + 3) - p(lo + 3); ws.sXY = p(hi + 4) - p(lo + 4)
      corrFromSums(ws, nS, b)
    }
  }

  /** Eq. 1: exact Pearson correlation of a window from its sums, fresh or
    * prefix differences. Windows where either series is constant get 0.
    */
  def corrFromSums(ws: WindowSums, nS: Int, b: Int): Double = {
    val num  = ws.sXY - b * ws.sMuX * ws.sMuY / nS
    val denx = ws.sXX - b * ws.sMuX * ws.sMuX / nS
    val deny = ws.sYY - b * ws.sMuY * ws.sMuY / nS
    if (denx <= VarEps || deny <= VarEps) 0.0
    else clamp(num / math.sqrt(denx) / math.sqrt(deny))
  }

  /** One-shot exact window correlation (build + evaluate) — what TSUBASA
    * does for every window of a sliding query.
    */
  def windowCorr(sk: Pair, from: Int, nS: Int, b: Int): Double =
    corrFromSums(buildSums(sk, from, nS, b), nS, b)

  /** Correlation of one basic window; ``undefined`` (zero variance) basic
    * windows return −1, the most conservative value for the Eq. 2 upper bound.
    */
  def bwCorr(sk: Pair, t: Int): Double = {
    val d = sk.m2x(t) * sk.m2y(t)
    if (d <= VarEps * VarEps) -1.0 else clamp(sk.cp(t) / math.sqrt(d))
  }

  /** Direct Pearson correlation over two aligned slices — the naive ground
    * truth every sketch-based result is tested against.
    */
  def directPearson(x: Array[Double], y: Array[Double], from: Int, len: Int): Double = {
    require(from >= 0 && from + len <= x.length && x.length == y.length, "bad slice")
    var sx, sy = 0.0
    var u = from
    while (u < from + len) { sx += x(u); sy += y(u); u += 1 }
    val mx = sx / len; val my = sy / len
    var cxy, vx, vy = 0.0
    u = from
    while (u < from + len) {
      val dx = x(u) - mx; val dy = y(u) - my
      cxy += dx * dy; vx += dx * dx; vy += dy * dy
      u += 1
    }
    if (vx <= VarEps || vy <= VarEps) 0.0 else clamp(cxy / math.sqrt(vx) / math.sqrt(vy))
  }

  def clamp(c: Double): Double = math.min(1.0, math.max(-1.0, c))
}
