package repro.tomborg

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.DetRandom

/** Spectral shape of a Tomborg series: how energy is distributed over
  * frequencies. These are the "varying distributions" the paper's
  * robustness benchmark targets — frequency-transform competitors only
  * work well when energy concentrates in few coefficients (Band), and
  * degrade on flat (White) or slowly-decaying (PowerLaw) spectra.
  */
sealed trait Spectrum extends Serializable {
  /** Unnormalized amplitude of frequency ``k`` (1 ≤ k ≤ L/2) for length L. */
  def amplitude(k: Int, len: Int): Double
}

/** Flat spectrum — white noise; energy spread over all frequencies. */
case object White extends Spectrum {
  def amplitude(k: Int, len: Int): Double = 1.0
}

/** Power-law ``1/k^p`` spectrum — long-memory, pink/brown-ish noise. */
final case class PowerLaw(p: Double) extends Spectrum {
  def amplitude(k: Int, len: Int): Double = 1.0 / math.pow(k.toDouble, p)
}

/** Band-limited spectrum — energy concentrated in frequencies [lo, hi]. */
final case class Band(lo: Int, hi: Int) extends Spectrum {
  def amplitude(k: Int, len: Int): Double = if (k >= lo && k <= hi) 1.0 else 0.0
}

/** Tomborg dataset spec: ``n`` series of power-of-two length ``len``, in
  * ``clusters`` groups; within-cluster population correlation ``rho``,
  * cross-cluster ≈ 0; spectra drawn from ``spectrum``.
  */
final case class TomborgSpec(
    n: Int,
    len: Int,
    clusters: Int,
    rho: Double,
    spectrum: Spectrum,
    seed: Long = 42L
) {
  require(n > 0 && clusters > 0 && clusters <= n, "need 1 ≤ clusters ≤ n")
  require(len >= 4 && (len & (len - 1)) == 0, "len must be a power of two ≥ 4")
  require(rho >= 0.0 && rho <= 1.0, "rho must be in [0, 1]")
  def clusterOf(sid: Int): Int = sid * clusters / n
}

/** Tomborg: the paper's benchmark generator, built in full.
  *
  * Pipeline (paper §3): (1) a target correlation structure (cluster model:
  * within-cluster ρ, across ≈ 0); (2) spectral coefficients drawn in
  * frequency space with amplitudes from the chosen [[Spectrum]] and
  * Gaussian phases; (3) the real-valued inverse DFT ([[Dft.realInverse]])
  * maps them to the time domain. Correlation is imposed by mixing each
  * cluster's shared signal with per-series noise of the same spectrum:
  * ``x_i = √ρ·g_c + √(1−ρ)·e_i`` over z-normalized components, so the
  * population correlation of same-cluster pairs is exactly ρ.
  *
  * All randomness is hash-addressed ([[repro.util.DetRandom]]) — identical
  * data regardless of partitioning.
  */
object Tomborg {

  /** Draw one z-normalized series of the given spectrum. ``stream``
    * disambiguates independent draws under one seed.
    */
  def genSeries(spec: TomborgSpec, stream: Long): Array[Double] = {
    val half = spec.len / 2
    val a = new Array[Double](half + 1)
    val b = new Array[Double](half + 1)
    var k = 1
    while (k < half) {
      val amp = spec.spectrum.amplitude(k, spec.len)
      a(k) = amp * DetRandom.gaussian(spec.seed, stream, 2L * k)
      b(k) = amp * DetRandom.gaussian(spec.seed, stream, 2L * k + 1)
      k += 1
    }
    // a(0) (the mean) and the Nyquist term stay 0: z-normalized targets.
    val x = Dft.realInverse(a, b)
    znorm(x)
  }

  /** Generate the whole dataset on the driver as an N × L matrix. */
  def generateLocal(spec: TomborgSpec): Array[Array[Double]] = {
    val bases = Array.tabulate(spec.clusters)(c => genSeries(spec, stream = -1L - c))
    val sq = math.sqrt(spec.rho)
    val sn = math.sqrt(1.0 - spec.rho)
    Array.tabulate(spec.n) { sid =>
      val g = bases(spec.clusterOf(sid))
      val e = genSeries(spec, stream = sid.toLong)
      val x = new Array[Double](spec.len)
      var t = 0
      while (t < spec.len) { x(t) = sq * g(t) + sn * e(t); t += 1 }
      x
    }
  }

  /** Long-format DataFrame ``(sid, t, v)`` of the Tomborg dataset. The
    * matrix is generated once on the driver (N·L doubles — tens of MB at
    * bench scale) and exploded distributively from a broadcast.
    */
  def generate(spark: SparkSession, spec: TomborgSpec): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(generateLocal(spec))
    val len = spec.len
    spark
      .range(spec.n.toLong * len)
      .map { id =>
        val sid = (id / len).toInt
        val t = id % len
        (sid, t, bc.value(sid)(t.toInt))
      }
      .toDF("sid", "t", "v")
  }

  /** Z-normalize in place (returns the same array). Constant series are
    * left centered at 0.
    */
  def znorm(x: Array[Double]): Array[Double] = {
    val n = x.length
    var s = 0.0
    var t = 0
    while (t < n) { s += x(t); t += 1 }
    val mean = s / n
    var v = 0.0
    t = 0
    while (t < n) { val d = x(t) - mean; v += d * d; t += 1 }
    val sd = math.sqrt(v / n)
    t = 0
    if (sd <= 1e-12) { while (t < n) { x(t) = 0.0; t += 1 } }
    else { while (t < n) { x(t) = (x(t) - mean) / sd; t += 1 } }
    x
  }
}
