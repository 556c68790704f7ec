package repro.tomborg

import org.scalatest.funsuite.AnyFunSuite
import repro.core.PairMath

class TomborgGeneratorSpec extends AnyFunSuite {

  private val specs = Seq(
    ("white", White),
    ("powerlaw", PowerLaw(1.5)),
    ("band", Band(2, 32)))

  // --- Target correlation structure is realized ----------------------------
  for ((name, spectrum) <- specs; rho <- Seq(0.5, 0.8))
    test(s"within-cluster correlation ≈ rho ($name, rho=$rho)") {
      val spec = TomborgSpec(n = 12, len = 2048, clusters = 3, rho = rho, spectrum = spectrum)
      val m = Tomborg.generateLocal(spec)
      val sameCluster = for {
        i <- 0 until spec.n; j <- (i + 1) until spec.n
        if spec.clusterOf(i) == spec.clusterOf(j)
      } yield PairMath.directPearson(m(i), m(j), 0, m(i).length)
      assert(sameCluster.nonEmpty)
      val avg = sameCluster.sum / sameCluster.size
      assert(math.abs(avg - rho) < 0.1, s"avg within-cluster corr $avg, target $rho")
    }

  // Power-law spectra concentrate energy in the lowest frequencies, so
  // the *sample* correlation of independent series has few effective
  // degrees of freedom and large variance — the population target is
  // still 0, hence the per-spectrum tolerance.
  for ((name, spectrum, tol) <- Seq(("white", White, 0.15), ("powerlaw", PowerLaw(1.5), 0.5), ("band", Band(2, 32), 0.25)))
    test(s"cross-cluster correlation ≈ 0 ($name)") {
      val spec = TomborgSpec(n = 12, len = 2048, clusters = 3, rho = 0.8, spectrum = spectrum)
      val m = Tomborg.generateLocal(spec)
      val cross = for {
        i <- 0 until spec.n; j <- (i + 1) until spec.n
        if spec.clusterOf(i) != spec.clusterOf(j)
      } yield PairMath.directPearson(m(i), m(j), 0, m(i).length)
      val avg = cross.map(math.abs).sum / cross.size
      assert(avg < tol, s"avg |cross-cluster corr| $avg should be near 0 (tol $tol)")
    }

  /** Population correlation the generator targets for a pair. */
  private def targetCorr(spec: TomborgSpec, i: Int, j: Int): Double =
    if (spec.clusterOf(i) == spec.clusterOf(j)) spec.rho else 0.0

  test("targetCorr matches the cluster model") {
    val spec = TomborgSpec(n = 9, len = 256, clusters = 3, rho = 0.7, spectrum = White)
    assert(targetCorr(spec, 0, 1) === 0.7)
    assert(targetCorr(spec, 0, 8) === 0.0)
  }

  // --- Spectral shapes ------------------------------------------------------
  test("band-limited series has energy only inside the band") {
    val spec = TomborgSpec(n = 1, len = 512, clusters = 1, rho = 0.0, spectrum = Band(4, 16))
    val x = Tomborg.genSeries(spec, stream = 0L)
    val (a, b) = TestDft.realForward(x)
    val inBand = (4 to 16).map(k => a(k) * a(k) + b(k) * b(k)).sum
    val total = a.map(v => v * v).sum + b.map(v => v * v).sum
    assert(inBand / total > 0.999, "z-normalization only rescales; band must hold all energy")
  }

  test("power-law spectrum decays with frequency") {
    val spec = TomborgSpec(n = 1, len = 4096, clusters = 1, rho = 0.0, spectrum = PowerLaw(2.0))
    val x = Tomborg.genSeries(spec, stream = 5L)
    val (a, b) = TestDft.realForward(x)
    def bandEnergy(lo: Int, hi: Int) = (lo to hi).map(k => a(k) * a(k) + b(k) * b(k)).sum
    val low = bandEnergy(1, 32)
    val high = bandEnergy(1024, 2048)
    assert(low > high * 10, s"low-band energy $low should dominate high-band $high")
  }

  test("white spectrum spreads energy roughly evenly") {
    val spec = TomborgSpec(n = 1, len = 4096, clusters = 1, rho = 0.0, spectrum = White)
    val x = Tomborg.genSeries(spec, stream = 6L)
    val (a, b) = TestDft.realForward(x)
    def bandEnergy(lo: Int, hi: Int) = (lo to hi).map(k => a(k) * a(k) + b(k) * b(k)).sum
    val first = bandEnergy(1, 1023)
    val second = bandEnergy(1024, 2046)
    assert(first / second < 2.0 && second / first < 2.0)
  }

  // --- Generator hygiene ----------------------------------------------------
  test("genSeries is z-normalized") {
    val spec = TomborgSpec(n = 1, len = 1024, clusters = 1, rho = 0.0, spectrum = White)
    val x = Tomborg.genSeries(spec, stream = 9L)
    val (mean, m2) = repro.core.Sketch.meanM2(x, 0, x.length)
    assert(math.abs(mean) < 1e-9)
    assert(math.abs(m2 / x.length - 1.0) < 1e-9)
  }

  test("generateLocal is deterministic in the spec") {
    val spec = TomborgSpec(n = 6, len = 256, clusters = 2, rho = 0.6, spectrum = PowerLaw(1.0))
    val m1 = Tomborg.generateLocal(spec)
    val m2 = Tomborg.generateLocal(spec)
    for (i <- m1.indices; t <- m1(i).indices) assert(m1(i)(t) === m2(i)(t))
  }

  test("different seeds give different data") {
    val s1 = TomborgSpec(n = 2, len = 256, clusters = 1, rho = 0.5, spectrum = White, seed = 1L)
    val s2 = s1.copy(seed = 2L)
    val a = Tomborg.generateLocal(s1)(0)
    val b = Tomborg.generateLocal(s2)(0)
    assert(a.indices.exists(t => math.abs(a(t) - b(t)) > 1e-9))
  }

  test("znorm centers and scales") {
    val x = Array(1.0, 2.0, 3.0, 4.0)
    val z = Tomborg.znorm(x.clone())
    val (mean, m2) = repro.core.Sketch.meanM2(z, 0, z.length)
    assert(math.abs(mean) < 1e-12)
    assert(math.abs(m2 / z.length - 1.0) < 1e-12)
  }

  test("znorm of a constant array is all zeros") {
    val z = Tomborg.znorm(Array.fill(8)(3.3))
    assert(z.forall(_ === 0.0))
  }

  test("spec validation") {
    intercept[IllegalArgumentException] { TomborgSpec(0, 256, 1, 0.5, White) }
    intercept[IllegalArgumentException] { TomborgSpec(4, 100, 1, 0.5, White) } // not a power of two
    intercept[IllegalArgumentException] { TomborgSpec(4, 256, 5, 0.5, White) } // clusters > n
    intercept[IllegalArgumentException] { TomborgSpec(4, 256, 1, 1.5, White) }
  }

  test("clusterOf partitions series into contiguous balanced groups") {
    val spec = TomborgSpec(n = 9, len = 256, clusters = 3, rho = 0.5, spectrum = White)
    assert((0 until 9).map(spec.clusterOf) === Seq(0, 0, 0, 1, 1, 1, 2, 2, 2))
  }
}
