package repro.tomborg

/** Test-only transforms that check [[Dft]] and the Tomborg spectra. */
object TestDft {

  /** Forward real transform: real series → orthonormal-basis coefficients
    * ``(a, b)``, the exact inverse of [[Dft.realInverse]].
    */
  def realForward(x: Array[Double]): (Array[Double], Array[Double]) = {
    val n = x.length
    require(n >= 2 && (n & (n - 1)) == 0, s"length must be a power of two ≥ 2, got $n")
    val half = n / 2
    val re = x.clone(); val im = new Array[Double](n)
    Dft.fftInPlace(re, im, inverse = false)
    val a = new Array[Double](half + 1); val b = new Array[Double](half + 1)
    a(0) = re(0) / math.sqrt(n.toDouble)
    a(half) = re(half) / math.sqrt(n.toDouble)
    val scale = math.sqrt(2.0 / n)
    var k = 1
    while (k < half) {
      a(k) = scale * re(k)
      b(k) = -scale * im(k)
      k += 1
    }
    (a, b)
  }
}
