package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class BoundsSpec extends AnyFunSuite with PropSupport {
  import TestSeries._

  // --- Triangle / PSD bound: a theorem, must hold on ANY data -------------
  test("triangle bound holds on arbitrary generated triples (property)") {
    checkProp(Prop.forAll(Gen.choose(0L, 10000L), Gen.choose(8, 64)) { (seed: Long, len0: Int) =>
      val len = math.max(8, len0)
      val x = series(seed, 0, len)
      val y = series(seed + 1, 1, len)
      val z = series(seed + 2, 2, len)
      val cxy = PairMath.directPearson(x, y, 0, x.length)
      val (lo, hi) = Bounds.triangle(PairMath.directPearson(x, z, 0, x.length), PairMath.directPearson(y, z, 0, y.length))
      cxy >= lo - 1e-9 && cxy <= hi + 1e-9
    })
  }

  test("triangle bound holds on random walks (non-stationary)") {
    for (seed <- 0 until 50) {
      val x = randomWalk(seed, 0, 64)
      val y = randomWalk(seed, 1, 64)
      val z = randomWalk(seed, 2, 64)
      val (lo, hi) = Bounds.triangle(PairMath.directPearson(x, z, 0, x.length), PairMath.directPearson(y, z, 0, y.length))
      val cxy = PairMath.directPearson(x, y, 0, x.length)
      assert(cxy >= lo - 1e-9 && cxy <= hi + 1e-9)
    }
  }

  test("triangle bound with |c_xz| = 1 pins c_xy exactly") {
    val (lo, hi) = Bounds.triangle(1.0, 0.42)
    assert(math.abs(lo - 0.42) < 1e-12 && math.abs(hi - 0.42) < 1e-12)
  }

  test("triangle bound with c = 0 is vacuous") {
    val (lo, hi) = Bounds.triangle(0.0, 0.0)
    assert(lo === -1.0 && hi === 1.0)
  }

  test("triangle bound output is clamped and ordered (property)") {
    checkProp(Prop.forAll(Gen.choose(-1.0, 1.0), Gen.choose(-1.0, 1.0)) { (a: Double, b: Double) =>
      val (lo, hi) = Bounds.triangle(a, b)
      lo >= -1.0 && hi <= 1.0 && lo <= hi + 1e-12
    })
  }

  // --- Eq. 2 prefix sums, held in the pair's Prefix ------------------------
  private def prefixOf(sk: Pair, b: Int) = new PairMath.Prefix().fill(sk, b)

  test("Eq. 2 prefix starts at 0 and is non-decreasing (1 - c >= 0 always)") {
    val sk = sketchOf(series(5L, 0, 128), series(5L, 1, 128), 8)
    val p = prefixOf(sk, 8)
    assert(p.upper(0) === 0.0)
    for (t <- 1 to sk.nBw) assert(p.upper(t) >= p.upper(t - 1) - 1e-12)
  }

  test("Eq. 2 prefix uses conservative c = -1 on zero-variance basic windows") {
    val x = Array.fill(16)(3.0) ++ series(7L, 0, 16)
    val y = series(7L, 1, 32)
    val sk = sketchOf(x, y, 8)
    val p = prefixOf(sk, 8)
    // first two basic windows of x are constant: increment = 1 - (-1) = 2
    assert(math.abs((p.upper(1) - p.upper(0)) - 2.0) < 1e-12)
    assert(math.abs((p.upper(2) - p.upper(1)) - 2.0) < 1e-12)
  }

  test("upperBound raises relative to corrW") {
    val sk = sketchOf(series(8L, 0, 128), series(8L, 1, 128), 8)
    val up = prefixOf(sk, 8)
    val corrW = 0.3
    assert(Bounds.upperBound(corrW, up, 4, 2, 1, 4) > corrW)
  }

  // --- maxJump: binary search must equal the linear scan -------------------
  test("maxJump equals linear scan (property over seeds and betas)") {
    checkProp(Prop.forAll(Gen.choose(0L, 500L), Gen.choose(-0.5, 0.99)) { (seed: Long, beta: Double) =>
      val b = 4; val nS = 5; val s = 1
      val len = b * 40
      val sk = sketchOf(series(seed, 0, len, noise = 1.5), series(seed, 1, len, noise = 1.5), b)
      val prefix = prefixOf(sk, b)
      val nBw = len / b
      val numWindows = (nBw - nS) / s + 1
      (0 until numWindows - 1).forall { w =>
        val corrW = PairMath.windowCorr(sk, w * s, nS, b)
        if (corrW >= beta) true
        else {
          val inStart = w * s + nS
          val kMax = numWindows - 1 - w
          val got = Bounds.maxJump(corrW, beta, prefix, inStart, s, nS, kMax)
          var expect = 0
          var k = 1
          while (k <= kMax && Bounds.upperBound(corrW, prefix, inStart, k, s, nS) < beta) {
            expect = k; k += 1
          }
          got == expect
        }
      }
    }, minSuccess = 50)
  }

  test("maxJump agrees with bound at the boundary") {
    val sk = sketchOf(series(1L, 0, 64), series(1L, 1, 64), 4)
    val prefix = prefixOf(sk, 4)
    val got = Bounds.maxJump(0.699, 0.7, prefix, 8, 1, 8, 5)
    val ub1 = Bounds.upperBound(0.699, prefix, 8, 1, 1, 8)
    if (ub1 >= 0.7) assert(got === 0) else assert(got >= 1)
  }

  test("maxJump never exceeds kMax") {
    val sk = sketchOf(series(2L, 0, 256), series(2L, 1, 256), 4)
    val prefix = prefixOf(sk, 4)
    for (kMax <- Seq(0, 1, 3, 7))
      assert(Bounds.maxJump(-1.0, 0.99, prefix, 8, 1, 8, kMax) <= kMax)
  }

  test("maxJump with kMax = 0 is 0") {
    val sk = sketchOf(series(3L, 0, 64), series(3L, 1, 64), 4)
    assert(Bounds.maxJump(-0.9, 0.9, prefixOf(sk, 4), 8, 1, 8, 0) === 0)
  }

  test("maxJump with step s > 1 consumes s basic windows per skip") {
    val sk = sketchOf(series(4L, 0, 256), series(4L, 1, 256), 4)
    val prefix = prefixOf(sk, 4)
    val nS = 8; val s = 2
    val k = Bounds.maxJump(-0.99, 0.9, prefix, nS, s, nS, 10)
    // verify directly against the bound definition
    for (j <- 1 to k)
      assert(Bounds.upperBound(-0.99, prefix, nS, j, s, nS) < 0.9)
    if (k < 10)
      assert(Bounds.upperBound(-0.99, prefix, nS, k + 1, s, nS) >= 0.9)
  }

  // --- Eq. 2 semantics: skip decisions on assumption-satisfying data -------
  test("on same-distribution data, Eq.2 skip decisions are empirically safe") {
    // i.i.d.-ish basic windows (stationary noise) — the paper's assumption.
    var violations = 0
    var decisions = 0
    for (seed <- 0 until 30) {
      val b = 8; val nS = 6; val s = 1
      val len = b * 40
      val x = series(seed * 2L + 100, 0, len, amp = 0.2, noise = 1.0)
      val y = series(seed * 2L + 101, 1, len, amp = 0.2, noise = 1.0)
      val sk = sketchOf(x, y, b)
      val prefix = prefixOf(sk, b)
      val nBw = len / b
      val numWindows = (nBw - nS) / s + 1
      val beta = 0.5
      for (w <- 0 until numWindows - 1) {
        val corrW = PairMath.windowCorr(sk, w * s, nS, b)
        if (corrW < beta) {
          val k = Bounds.maxJump(corrW, beta, prefix, w * s + nS, s, nS, numWindows - 1 - w)
          for (j <- 1 to k) {
            decisions += 1
            if (PairMath.windowCorr(sk, (w + j) * s, nS, b) >= beta) violations += 1
          }
        }
      }
    }
    assert(decisions > 100, s"test should exercise many skip decisions, got $decisions")
    assert(violations.toDouble / decisions < 0.05,
      s"$violations / $decisions skips were wrong — bound far weaker than the paper's claim")
  }
}
