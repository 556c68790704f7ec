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
  * δ-terms expanded. This is pure algebra — exact for any data.
  */
object PairMath {

  /** Variance below this is treated as zero (constant window ⇒ corr = 0). */
  val VarEps: Double = 1e-12

  /** Rolling sums over the basic windows of one sliding window. */
  final class WindowSums {
    var sMuX, sMuY, sMuX2, sMuY2, sMuXY, sM2x, sM2y, sCp: Double = 0.0

    def addBw(sk: Pair, t: Int): Unit = {
      val mx = sk.meanX(t); val my = sk.meanY(t)
      sMuX += mx; sMuY += my
      sMuX2 += mx * mx; sMuY2 += my * my; sMuXY += mx * my
      sM2x += sk.m2x(t); sM2y += sk.m2y(t); sCp += sk.cp(t)
    }

    def removeBw(sk: Pair, t: Int): Unit = {
      val mx = sk.meanX(t); val my = sk.meanY(t)
      sMuX -= mx; sMuY -= my
      sMuX2 -= mx * mx; sMuY2 -= my * my; sMuXY -= mx * my
      sM2x -= sk.m2x(t); sM2y -= sk.m2y(t); sCp -= sk.cp(t)
    }
  }

  /** Fresh sums for the window covering local basic windows [from, from + nS). */
  def buildSums(sk: Pair, from: Int, nS: Int): WindowSums = {
    val ws = new WindowSums
    var t = from
    while (t < from + nS) { ws.addBw(sk, t); t += 1 }
    ws
  }

  /** Roll sums forward by ``s`` basic windows (slide one step). */
  def roll(ws: WindowSums, sk: Pair, from: Int, nS: Int, s: Int): Unit = {
    var t = from
    while (t < from + s) { ws.removeBw(sk, t); t += 1 }
    t = from + nS
    while (t < from + nS + s) { ws.addBw(sk, t); t += 1 }
  }

  /** Eq. 1: exact Pearson correlation of the window from its sums.
    * Windows where either series is constant get correlation 0.
    */
  def corrFromSums(ws: WindowSums, nS: Int, b: Int): Double = {
    val num  = ws.sCp + b * (ws.sMuXY - ws.sMuX * ws.sMuY / nS)
    val denx = ws.sM2x + b * (ws.sMuX2 - ws.sMuX * ws.sMuX / nS)
    val deny = ws.sM2y + b * (ws.sMuY2 - ws.sMuY * ws.sMuY / nS)
    if (denx <= VarEps || deny <= VarEps) 0.0
    else clamp(num / math.sqrt(denx) / math.sqrt(deny))
  }

  /** One-shot exact window correlation (build + evaluate) — what TSUBASA
    * does for every window of a sliding query.
    */
  def windowCorr(sk: Pair, from: Int, nS: Int, b: Int): Double =
    corrFromSums(buildSums(sk, from, nS), nS, b)

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

  def directPearson(x: Array[Double], y: Array[Double]): Double =
    directPearson(x, y, 0, x.length)

  def clamp(c: Double): Double = math.min(1.0, math.max(-1.0, c))
}
