package repro.tomborg

/** Discrete Fourier machinery for Tomborg, including the paper's
  * '''real-valued inverse DFT''': a map from real spectral coefficients to
  * a real time series (ordinary inverse DFT maps complex → complex).
  *
  * We use the orthonormal real trigonometric basis for even length L:
  * {{{
  *   φ_0(t)   = 1/√L
  *   φ_k^c(t) = √(2/L)·cos(2πkt/L),  φ_k^s(t) = √(2/L)·sin(2πkt/L),  k = 1 .. L/2−1
  *   φ_{L/2}(t) = (−1)^t/√L
  * }}}
  * so ``x = a_0·φ_0 + Σ_k (a_k·φ_k^c + b_k·φ_k^s) + a_{L/2}·φ_{L/2}``.
  * Orthonormality gives Parseval (``Σ x² = Σ a² + Σ b²``) — the property
  * Tomborg relies on ("DFT preserves the distance between coefficients and
  * the original time series"). Computation is backed by a radix-2 FFT with
  * a naive O(L²) DFT kept for cross-validation in tests.
  */
object Dft {

  /** In-place iterative radix-2 complex FFT. ``inverse`` conjugates the
    * twiddles and scales by 1/n. Length must be a power of two.
    */
  def fftInPlace(re: Array[Double], im: Array[Double], inverse: Boolean): Unit = {
    val n = re.length
    require(n == im.length, "re/im length mismatch")
    require(n > 0 && (n & (n - 1)) == 0, s"FFT length must be a power of two, got $n")
    // bit-reversal permutation
    var i = 1
    var j = 0
    while (i < n) {
      var bit = n >> 1
      while ((j & bit) != 0) { j ^= bit; bit >>= 1 }
      j |= bit
      if (i < j) {
        val tr = re(i); re(i) = re(j); re(j) = tr
        val ti = im(i); im(i) = im(j); im(j) = ti
      }
      i += 1
    }
    var len = 2
    while (len <= n) {
      val ang = (if (inverse) 2.0 else -2.0) * math.Pi / len
      val wR = math.cos(ang); val wI = math.sin(ang)
      var base = 0
      while (base < n) {
        var curR = 1.0; var curI = 0.0
        var k = 0
        while (k < len / 2) {
          val uR = re(base + k); val uI = im(base + k)
          val vR = re(base + k + len / 2) * curR - im(base + k + len / 2) * curI
          val vI = re(base + k + len / 2) * curI + im(base + k + len / 2) * curR
          re(base + k) = uR + vR; im(base + k) = uI + vI
          re(base + k + len / 2) = uR - vR; im(base + k + len / 2) = uI - vI
          val nR = curR * wR - curI * wI
          curI = curR * wI + curI * wR
          curR = nR
          k += 1
        }
        base += len
      }
      len <<= 1
    }
    if (inverse) {
      var u = 0
      while (u < n) { re(u) /= n; im(u) /= n; u += 1 }
    }
  }

  /** Real-valued inverse DFT: coefficients ``a(0..L/2)``, ``b(0..L/2)``
    * (``b(0)`` and ``b(L/2)`` must be 0) → real series of even, power-of-two
    * length L. Implemented by packing a conjugate-symmetric complex
    * spectrum and running one inverse FFT.
    */
  def realInverse(a: Array[Double], b: Array[Double]): Array[Double] = {
    val half = a.length - 1
    val n = 2 * half
    require(b.length == a.length, "a/b length mismatch")
    require(math.abs(b(0)) == 0.0 && math.abs(b(half)) == 0.0, "b(0) and b(L/2) must be 0")
    val re = new Array[Double](n); val im = new Array[Double](n)
    re(0) = math.sqrt(n.toDouble) * a(0)
    re(half) = math.sqrt(n.toDouble) * a(half)
    val scale = math.sqrt(n / 2.0)
    var k = 1
    while (k < half) {
      re(k) = scale * a(k); im(k) = -scale * b(k)
      re(n - k) = scale * a(k); im(n - k) = scale * b(k)
      k += 1
    }
    fftInPlace(re, im, inverse = true)
    re // imaginary part is 0 by conjugate symmetry
  }
}
