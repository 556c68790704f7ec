package repro.tomborg

import org.scalatest.funsuite.AnyFunSuite
import repro.util.DetRandom

class DftSpec extends AnyFunSuite {

  private def randArr(seed: Long, n: Int): Array[Double] =
    Array.tabulate(n)(t => DetRandom.gaussian(seed, 0L, t.toLong))

  /** Naive O(n²) DFT (same conventions as [[Dft.fftInPlace]]). */
  private def naiveDft(re: Array[Double], im: Array[Double], inverse: Boolean): (Array[Double], Array[Double]) = {
    val n = re.length
    val outR = new Array[Double](n); val outI = new Array[Double](n)
    val sign = if (inverse) 2.0 else -2.0
    var k = 0
    while (k < n) {
      var sR = 0.0; var sI = 0.0
      var t = 0
      while (t < n) {
        val ang = sign * math.Pi * k * t / n
        val c = math.cos(ang); val s = math.sin(ang)
        sR += re(t) * c - im(t) * s
        sI += re(t) * s + im(t) * c
        t += 1
      }
      outR(k) = if (inverse) sR / n else sR
      outI(k) = if (inverse) sI / n else sI
      k += 1
    }
    (outR, outI)
  }

  private def assertClose(a: Array[Double], b: Array[Double], tol: Double = 1e-9): Unit = {
    assert(a.length === b.length)
    a.indices.foreach(i => assert(math.abs(a(i) - b(i)) < tol, s"index $i: ${a(i)} vs ${b(i)}"))
  }

  // --- FFT vs naive DFT ----------------------------------------------------
  for (n <- Seq(2, 4, 8, 16, 32, 64, 128); inverse <- Seq(false, true))
    test(s"fft equals naive DFT (n=$n, inverse=$inverse)") {
      val re = randArr(n.toLong, n); val im = randArr(n + 1000L, n)
      val (expR, expI) = naiveDft(re, im, inverse)
      val gr = re.clone(); val gi = im.clone()
      Dft.fftInPlace(gr, gi, inverse)
      assertClose(gr, expR, 1e-8)
      assertClose(gi, expI, 1e-8)
    }

  for (n <- Seq(4, 16, 64, 256))
    test(s"fft inverse(forward(x)) round-trips (n=$n)") {
      val re = randArr(n + 7L, n); val im = randArr(n + 8L, n)
      val gr = re.clone(); val gi = im.clone()
      Dft.fftInPlace(gr, gi, inverse = false)
      Dft.fftInPlace(gr, gi, inverse = true)
      assertClose(gr, re, 1e-9)
      assertClose(gi, im, 1e-9)
    }

  test("fft rejects non-power-of-two lengths") {
    intercept[IllegalArgumentException] {
      Dft.fftInPlace(new Array[Double](6), new Array[Double](6), inverse = false)
    }
  }

  test("fft of a constant concentrates all energy in bin 0") {
    val re = Array.fill(16)(2.0); val im = new Array[Double](16)
    Dft.fftInPlace(re, im, inverse = false)
    assert(math.abs(re(0) - 32.0) < 1e-9)
    (1 until 16).foreach(k => assert(math.abs(re(k)) < 1e-9 && math.abs(im(k)) < 1e-9))
  }

  // --- Real transform: the paper's real-valued inverse DFT ------------------
  for (n <- Seq(4, 8, 16, 64, 256))
    test(s"realForward(realInverse(coeffs)) recovers coefficients (L=$n)") {
      val half = n / 2
      val a = Array.tabulate(half + 1)(k => DetRandom.gaussian(n.toLong, 1L, k.toLong))
      val b = Array.tabulate(half + 1)(k =>
        if (k == 0 || k == half) 0.0 else DetRandom.gaussian(n.toLong, 2L, k.toLong))
      val x = Dft.realInverse(a, b)
      assert(x.length === n)
      val (ga, gb) = TestDft.realForward(x)
      assertClose(ga, a, 1e-9)
      assertClose(gb, b, 1e-9)
    }

  for (n <- Seq(8, 32, 128))
    test(s"realInverse(realForward(x)) recovers the series (L=$n)") {
      val x = randArr(n + 77L, n)
      val (a, b) = TestDft.realForward(x)
      assertClose(Dft.realInverse(a, b), x, 1e-9)
    }

  for (n <- Seq(8, 64))
    test(s"Parseval: energy preserved by the orthonormal real basis (L=$n)") {
      val x = randArr(n + 99L, n)
      val (a, b) = TestDft.realForward(x)
      val tEnergy = x.map(v => v * v).sum
      val fEnergy = a.map(v => v * v).sum + b.map(v => v * v).sum
      assert(math.abs(tEnergy - fEnergy) < 1e-8 * math.max(1.0, tEnergy),
        "DFT must preserve distances (Tomborg's step-2 premise)")
    }

  test("Parseval implies distance preservation between two series") {
    val n = 64
    val x = randArr(1L, n); val y = randArr(2L, n)
    val (ax, bx) = TestDft.realForward(x)
    val (ay, by) = TestDft.realForward(y)
    val dT = math.sqrt(x.indices.map(i => (x(i) - y(i)) * (x(i) - y(i))).sum)
    val dF = math.sqrt(
      ax.indices.map(i => (ax(i) - ay(i)) * (ax(i) - ay(i))).sum +
      bx.indices.map(i => (bx(i) - by(i)) * (bx(i) - by(i))).sum)
    assert(math.abs(dT - dF) < 1e-8)
  }

  test("realForward is linear") {
    val n = 32
    val x = randArr(3L, n); val y = randArr(4L, n)
    val z = x.indices.map(i => 2.0 * x(i) - 0.5 * y(i)).toArray
    val (ax, bx) = TestDft.realForward(x)
    val (ay, by) = TestDft.realForward(y)
    val (az, bz) = TestDft.realForward(z)
    assertClose(az, ax.indices.map(i => 2.0 * ax(i) - 0.5 * ay(i)).toArray, 1e-9)
    assertClose(bz, bx.indices.map(i => 2.0 * bx(i) - 0.5 * by(i)).toArray, 1e-9)
  }

  test("realInverse output is genuinely real-valued for a pure cosine") {
    // a_2 = 1, everything else 0 => x(t) = sqrt(2/L) cos(2π·2t/L)
    val n = 16; val half = n / 2
    val a = new Array[Double](half + 1); val b = new Array[Double](half + 1)
    a(2) = 1.0
    val x = Dft.realInverse(a, b)
    val scale = math.sqrt(2.0 / n)
    x.indices.foreach { t =>
      assert(math.abs(x(t) - scale * math.cos(2 * math.Pi * 2 * t / n)) < 1e-9)
    }
  }

  test("realInverse of a pure sine term") {
    val n = 16; val half = n / 2
    val a = new Array[Double](half + 1); val b = new Array[Double](half + 1)
    b(3) = 1.0
    val x = Dft.realInverse(a, b)
    val scale = math.sqrt(2.0 / n)
    x.indices.foreach { t =>
      assert(math.abs(x(t) - scale * math.sin(2 * math.Pi * 3 * t / n)) < 1e-9)
    }
  }

  test("realInverse DC and Nyquist terms") {
    val n = 8; val half = n / 2
    val a = new Array[Double](half + 1); val b = new Array[Double](half + 1)
    a(0) = 2.0; a(half) = 1.0
    val x = Dft.realInverse(a, b)
    x.indices.foreach { t =>
      val expect = 2.0 / math.sqrt(n.toDouble) + (if (t % 2 == 0) 1.0 else -1.0) / math.sqrt(n.toDouble)
      assert(math.abs(x(t) - expect) < 1e-9)
    }
  }

  test("realInverse rejects non-zero b(0) or b(L/2)") {
    val a = new Array[Double](5); val b = new Array[Double](5)
    b(0) = 0.1
    intercept[IllegalArgumentException] { Dft.realInverse(a, b) }
  }
}
