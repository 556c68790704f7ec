package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.DetRandom

/** Helpers for building in-memory pair sketches from raw arrays. */
object TestSeries {

  /** Deterministic pseudo-random series: sinusoid + hash noise. */
  def series(seed: Long, sid: Int, len: Int,
             amp: Double = 1.0, noise: Double = 0.5, period: Double = 37.0): Array[Double] =
    Array.tabulate(len) { t =>
      amp * math.sin(2 * math.Pi * t / period + sid * 0.7) +
        noise * DetRandom.gaussian(seed, sid.toLong, t.toLong)
    }

  /** Random-walk series — non-stationary, breaks Eq. 2's assumption. */
  def randomWalk(seed: Long, sid: Int, len: Int): Array[Double] = {
    val a = new Array[Double](len)
    var acc = 0.0
    var t = 0
    while (t < len) { acc += DetRandom.gaussian(seed, sid.toLong, t.toLong); a(t) = acc; t += 1 }
    a
  }

  /** Build the pair sketch of (x, y) at basic-window size b, locally, with
    * means centered as [[Sketch.build]] stores them.
    */
  def sketchOf(x: Array[Double], y: Array[Double], b: Int, i: Int = 0, j: Int = 1): Pair = {
    require(x.length == y.length && x.length % b == 0, "length must be a multiple of b")
    val nBw = x.length / b
    val meanX = new Array[Double](nBw); val m2x = new Array[Double](nBw)
    val meanY = new Array[Double](nBw); val m2y = new Array[Double](nBw)
    val cp = new Array[Double](nBw)
    for (t <- 0 until nBw) {
      val (mx, sx) = Sketch.meanM2(x, t * b, (t + 1) * b)
      val (my, sy) = Sketch.meanM2(y, t * b, (t + 1) * b)
      meanX(t) = mx; m2x(t) = sx; meanY(t) = my; m2y(t) = sy
      cp(t) = (0 until b).map(u => (x(t * b + u) - mx) * (y(t * b + u) - my)).sum
    }
    Pair(i, j, Sketch.centered(meanX), m2x, Sketch.centered(meanY), m2y, cp)
  }
}

class PairMathSpec extends AnyFunSuite {
  import TestSeries._

  // --- Eq. 1 exactness: sketch recombination equals direct Pearson -------
  for {
    b <- Seq(2, 4, 8, 16)
    nS <- Seq(2, 3, 5, 8)
    seed <- Seq(1L, 2L)
  } test(s"Eq.1 windowCorr equals direct Pearson (b=$b, nS=$nS, seed=$seed)") {
    val len = b * (nS + 6)
    val x = series(seed, 0, len)
    val y = series(seed, 1, len)
    val sk = sketchOf(x, y, b)
    for (from <- 0 to (len / b - nS)) {
      val viaSketch = PairMath.windowCorr(sk, from, nS, b)
      val direct = PairMath.directPearson(x, y, from * b, nS * b)
      assert(math.abs(viaSketch - direct) < 1e-9,
        s"from=$from sketch=$viaSketch direct=$direct")
    }
  }

  for (seed <- Seq(3L, 4L, 5L))
    test(s"Eq.1 exact on non-stationary random walks too (seed=$seed)") {
      val b = 8; val nS = 4; val len = 96
      val x = randomWalk(seed, 0, len)
      val y = randomWalk(seed, 1, len)
      val sk = sketchOf(x, y, b)
      for (from <- 0 to (len / b - nS))
        assert(math.abs(PairMath.windowCorr(sk, from, nS, b) -
          PairMath.directPearson(x, y, from * b, nS * b)) < 1e-9)
    }

  // --- Prefix sums: the O(1) form equals a fresh O(n_s) build ------------
  for (s <- Seq(1, 3, 8)) test(s"prefix form equals buildSums then Eq. 1 at every window (s=$s)") {
    val b = 4; val nS = 6
    val pre = new PairMath.Prefix // one buffer for every case, as a task reuses it from pair to pair
    // (seed, basic windows, random walk): longer and shorter pairs, stationary and not
    for ((seed, nBw, walk) <- Seq((11L, 40, false), (12L, 24, false), (13L, 60, true), (14L, 12, true))) {
      val gen: (Long, Int, Int) => Array[Double] = if (walk) randomWalk else series(_, _, _)
      val sk = sketchOf(gen(seed, 0, b * nBw), gen(seed, 1, b * nBw), b)
      pre.fill(sk, b)
      for (from <- 0 to nBw - nS by s) {
        val fresh = PairMath.corrFromSums(PairMath.buildSums(sk, from, nS, b), nS, b)
        assert(math.abs(pre.corr(from, nS, b) - fresh) < 1e-12, s"seed=$seed, from=$from")
      }
    }
  }

  test("prefix Eq. 2 sums equal the running sum of 1 - bwCorr bit for bit, in a reused buffer") {
    val pre = new PairMath.Prefix
    for ((seed, nBw) <- Seq((21L, 40), (22L, 12))) { // the shorter pair reuses the longer one's buffer
      val sk = sketchOf(series(seed, 0, 4 * nBw), series(seed, 1, 4 * nBw), 4)
      pre.fill(sk, 4)
      var up = 0.0
      for (t <- 0 to nBw) {
        assert(pre.upper(t) === up, s"seed=$seed, t=$t")
        if (t < nBw) up += 1.0 - PairMath.bwCorr(sk, t)
      }
    }
  }

  test("the fill over two series' prefixes gives the bits of one pass of addBw and bwCorr, constant basic windows included") {
    val b = 4; val nBw = 30; val nS = 5
    val x = series(31L, 0, b * nBw); val y = series(31L, 1, b * nBw)
    for (u <- 2 * b until 3 * b) x(u) = 2.0 // basic window 2 of x is constant: bwCorr counts it as −1
    val sk = sketchOf(x, y, b)
    assert(PairMath.bwCorr(sk, 2) === -1.0)
    // The reference: Eq. 1's five sums and Eq. 2's one as a single running pass, snapshot after each basic window.
    val (run, snaps, ups) = (new PairMath.WindowSums, new Array[PairMath.WindowSums](nBw + 1), new Array[Double](nBw + 1))
    def snap(t: Int): Unit = {
      val c = new PairMath.WindowSums
      c.sMuX = run.sMuX; c.sMuY = run.sMuY; c.sXX = run.sXX; c.sYY = run.sYY; c.sXY = run.sXY
      snaps(t) = c
    }
    snap(0)
    for (t <- 0 until nBw) { run.addBw(sk, t, b); ups(t + 1) = ups(t) + (1.0 - PairMath.bwCorr(sk, t)); snap(t + 1) }
    val bits = java.lang.Double.doubleToRawLongBits _
    val series2 = new PairMath.Prefix().fill(new PairMath.Series(sk.meanX, sk.m2x, b), new PairMath.Series(sk.meanY, sk.m2y, b), sk.cp, b)
    for (pre <- Seq(series2, new PairMath.Prefix().fill(sk, b))) {
      for (t <- 0 to nBw) assert(bits(pre.upper(t)) === bits(ups(t)), s"t=$t")
      for (from <- 0 to nBw - nS) {
        val (hi, lo) = (snaps(from + nS), snaps(from))
        val ws = new PairMath.WindowSums
        ws.sMuX = hi.sMuX - lo.sMuX; ws.sMuY = hi.sMuY - lo.sMuY
        ws.sXX = hi.sXX - lo.sXX; ws.sYY = hi.sYY - lo.sYY; ws.sXY = hi.sXY - lo.sXY
        assert(bits(pre.corr(from, nS, b)) === bits(PairMath.corrFromSums(ws, nS, b)), s"from=$from")
      }
    }
  }

  test("the cross-product kernels sum each basic window's products in time order, four partners or one") {
    val b = 8; val nBw = 12
    val dev = Array.tabulate(5)(k => series(32L, k, b * nBw))
    // The reference: one pair at a time, one product after the other.
    def want(x: Int, y: Int) = Array.tabulate(nBw)(t => (t * b until (t + 1) * b).foldLeft(0.0)((a, u) => a + dev(x)(u) * dev(y)(u)))
    def bits(a: Array[Double]) = a.map(java.lang.Double.doubleToRawLongBits).toSeq
    val out = Array.fill(4)(new Array[Double](nBw))
    Sketch.cross4(dev(0), dev(1), dev(2), dev(3), dev(4), out(0), out(1), out(2), out(3), b)
    for (k <- 0 until 4) assert(bits(out(k)) === bits(want(0, k + 1)), s"partner ${k + 1} of four")
    // The partner as the pass's own series: the products are the same, factor for factor swapped.
    for (k <- 1 to 4) { Sketch.cross1(dev(k), dev(0), out(0), b); assert(bits(out(0)) === bits(want(0, k)), s"partner $k alone") }
  }

  test("corrFromSums matches windowCorr") {
    val sk = sketchOf(series(7L, 0, 64), series(7L, 1, 64), 4)
    val sums = PairMath.buildSums(sk, 3, 5, 4)
    assert(PairMath.corrFromSums(sums, 5, 4) === PairMath.windowCorr(sk, 3, 5, 4))
  }

  // --- Degenerate inputs --------------------------------------------------
  test("constant series gives correlation 0, not NaN") {
    val x = Array.fill(32)(5.0)
    val y = series(9L, 1, 32)
    val sk = sketchOf(x, y, 4)
    assert(PairMath.windowCorr(sk, 0, 8, 4) === 0.0)
    assert(PairMath.directPearson(x, y, 0, x.length) === 0.0)
  }

  test("perfectly correlated series gives exactly 1") {
    val x = series(10L, 0, 64)
    val y = x.map(v => 2.5 * v + 3.0)
    val sk = sketchOf(x, y, 8)
    assert(math.abs(PairMath.windowCorr(sk, 0, 8, 8) - 1.0) < 1e-12)
    assert(math.abs(PairMath.directPearson(x, y, 0, x.length) - 1.0) < 1e-12)
  }

  test("perfectly anti-correlated series gives exactly -1") {
    val x = series(10L, 0, 64)
    val y = x.map(v => -1.5 * v + 1.0)
    assert(math.abs(PairMath.directPearson(x, y, 0, x.length) + 1.0) < 1e-12)
    val sk = sketchOf(x, y, 8)
    assert(math.abs(PairMath.windowCorr(sk, 0, 8, 8) + 1.0) < 1e-12)
  }

  test("bwCorr returns the basic-window correlation") {
    val b = 16
    val x = series(12L, 0, 64); val y = series(12L, 1, 64)
    val sk = sketchOf(x, y, b)
    for (t <- 0 until 4)
      assert(math.abs(PairMath.bwCorr(sk, t) -
        PairMath.directPearson(x, y, t * b, b)) < 1e-9)
  }

  test("bwCorr falls back on zero-variance basic windows") {
    val x = Array.fill(16)(1.0)
    val y = series(13L, 1, 16)
    val sk = sketchOf(x, y, 8)
    assert(PairMath.bwCorr(sk, 0) === -1.0)
  }

  test("clamp restricts to [-1, 1]") {
    assert(PairMath.clamp(1.7) === 1.0)
    assert(PairMath.clamp(-3.0) === -1.0)
    assert(PairMath.clamp(0.25) === 0.25)
  }

  test("directPearson slice bounds are validated") {
    val x = new Array[Double](10); val y = new Array[Double](10)
    intercept[IllegalArgumentException] { PairMath.directPearson(x, y, 5, 6) }
  }

  test("meanM2 computes mean and centered sum of squares") {
    val (mean, m2) = Sketch.meanM2(Array(0.0, 1.0, 2.0, 3.0, 4.0, 9.0), 1, 5)
    assert(mean === 2.5)
    assert(math.abs(m2 - 5.0) < 1e-12)
  }
}
