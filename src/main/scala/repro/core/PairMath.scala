package repro.core

/** Exact Pearson recombination from basic-window sketches (the paper's
  * Eq. 1), in pure Scala so it can be unit-tested without Spark and run
  * inside the sweep tasks, one pair at a time.
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

  /** One series of a tile as the pair fill reads it: its basic-window means ([[Sketch.centered]]) and m2, and Eq. 1's
    * two per-series prefixes, entry ``t`` summing basic windows ``[0, t)`` in [[WindowSums.addBw]]'s order: ``mu`` of
    * μ, ``sq`` of m2 + b·μ². Built once per series of a tile, read by each of its pairs.
    */
  final class Series(val mean: Array[Double], val m2: Array[Double], b: Int) {
    val mu = new Array[Double](mean.length + 1)
    val sq = new Array[Double](mean.length + 1)
    locally {
      var sMu, sSq = 0.0
      var t = 0
      while (t < mean.length) {
        val m = mean(t)
        sMu += m; sSq += m2(t) + b * m * m
        t += 1
        mu(t) = sMu; sq(t) = sSq
      }
    }
  }

  /** One pair's prefix sums in buffers reused from pair to pair: [[fill]]
    * reads its two series' prefixes as they are and fills the pair's own,
    * entry ``t`` summing basic windows ``[0, t)``: Eq. 1's ``cp + b·μx·μy``
    * and Eq. 2's ``Σ (1 − c_u)`` ([[upper]]). [[corr]] is Eq. 1 for the
    * window over ``[from, from + nS)`` from two lookups per term, O(1) for
    * any slide.
    */
  final class Prefix {
    private var x, y: Series = _
    private var xy, up, d, c = new Array[Double](0)
    private val ws = new WindowSums

    /** A lone pair view: its series' prefixes are built here too. */
    def fill(sk: Pair, b: Int): Prefix = fill(new Series(sk.meanX, sk.m2x, b), new Series(sk.meanY, sk.m2y, b), sk.cp, b)

    /** The pair of ``x`` and ``y`` (lower sid first) with cross products ``cp``. */
    def fill(x: Series, y: Series, cp: Array[Double], b: Int): Prefix = {
      val n = x.mean.length
      if (xy.length <= n) { xy = new Array(n + 1); up = new Array(n + 1); d = new Array(n); c = new Array(n) }
      this.x = x; this.y = y
      bwCorrs(x.m2, y.m2, cp, n)
      pairSums(x.mean, y.mean, cp, n, b)
      this
    }

    /** [[bwCorr]]'s ratio per basic window, with no select: a loop with no branch, which C2 vectorizes. */
    private def bwCorrs(m2x: Array[Double], m2y: Array[Double], cp: Array[Double], n: Int): Unit = {
      var t = 0
      while (t < n) { val dt = m2x(t) * m2y(t); d(t) = dt; c(t) = cp(t) / math.sqrt(dt); t += 1 }
    }

    /** The pair's two running sums, with [[bwCorr]]'s select on the ratios [[bwCorrs]] left. */
    private def pairSums(mx: Array[Double], my: Array[Double], cp: Array[Double], n: Int, b: Int): Unit = {
      var sXY, sUp = 0.0
      var t = 0
      while (t < n) {
        sXY += cp(t) + b * mx(t) * my(t)
        sUp += 1.0 - (if (d(t) <= VarEps * VarEps) -1.0 else clamp(c(t)))
        t += 1
        xy(t) = sXY; up(t) = sUp
      }
    }

    /** Eq. 2's ``Σ_{u<t} (1 − c_u)``; zero-variance basic windows count ``c = −1``. */
    def upper(t: Int): Double = up(t)

    def corr(from: Int, nS: Int, b: Int): Double = {
      val hi = from + nS
      ws.sMuX = x.mu(hi) - x.mu(from); ws.sMuY = y.mu(hi) - y.mu(from)
      ws.sXX = x.sq(hi) - x.sq(from); ws.sYY = y.sq(hi) - y.sq(from); ws.sXY = xy(hi) - xy(from)
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
