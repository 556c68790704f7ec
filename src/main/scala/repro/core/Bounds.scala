package repro.core

/** The paper's two pruning bounds.
  *
  * '''Eq. 2 (vertical / jump bound).''' Sliding one step ingests fresh basic
  * windows whose pair correlations ``c_t`` are already in the sketch; under
  * the paper's same-sample-distribution assumption each ingested basic
  * window can raise the window correlation by at most ``(1 − c_t)/n_s``:
  *
  * {{{ Corr_{w+k} ≤ Corr_w + (1/n_s) · Σ_{incoming t} (1 − c_t) }}}
  *
  * Because ``1 − c_t ≥ 0`` the bound is monotone non-decreasing in ``k``, so
  * the largest skippable ``k`` is found by binary search over prefix sums —
  * exactly the paper's "jumping structure" (Fig. 2). The bound is a
  * heuristic: on data violating the assumption a skipped window may actually
  * be above β, which is why the paper reports accuracy >90%, not 100%.
  *
  * '''Triangle (horizontal) bound.''' For any three series, PSD-ness of the
  * correlation matrix gives the hard guarantee
  * ``c_xz·c_yz − √((1−c_xz²)(1−c_yz²)) ≤ c_xy ≤ c_xz·c_yz + √(...)`` —
  * a theorem, so pruning with it is lossless.
  */
object Bounds {

  /** Eq. 2 upper bound on ``Corr_{w+k}`` given the exact ``corrW`` at window
    * ``w``. ``inStart`` is the local index of the first basic window that
    * enters after window ``w`` (i.e. ``w·s + n_s``); skipping ``k`` windows
    * ingests ``k·s`` basic windows, whose ``Σ (1 − c_t)`` the pair's
    * ``prefix`` holds.
    */
  def upperBound(corrW: Double, prefix: PairMath.Prefix, inStart: Int, k: Int, s: Int, nS: Int): Double =
    corrW + (prefix.upper(inStart + k * s) - prefix.upper(inStart)) / nS

  /** Largest ``k ∈ [0, kMax]`` such that every window ``w+1 .. w+k`` is
    * upper-bounded below ``beta`` (all skippable). Returns 0 when not even
    * the next window can be skipped. Monotonicity of the bound makes the
    * predicate monotone, so binary search is exact.
    */
  def maxJump(corrW: Double, beta: Double, prefix: PairMath.Prefix,
              inStart: Int, s: Int, nS: Int, kMax: Int): Int = {
    if (kMax <= 0) return 0
    if (upperBound(corrW, prefix, inStart, 1, s, nS) >= beta) return 0
    var lo = 1        // known skippable
    var hi = kMax     // candidate
    while (lo < hi) {
      val mid = lo + (hi - lo + 1) / 2
      if (upperBound(corrW, prefix, inStart, mid, s, nS) < beta) lo = mid else hi = mid - 1
    }
    lo
  }

  /** Triangle/PSD bound: the feasible interval of ``c_xy`` given ``c_xz``
    * and ``c_yz``.
    */
  def triangle(cxz: Double, cyz: Double): (Double, Double) = {
    val a = PairMath.clamp(cxz); val b = PairMath.clamp(cyz)
    val rad = math.sqrt(math.max(0.0, (1.0 - a * a) * (1.0 - b * b)))
    (PairMath.clamp(a * b - rad), PairMath.clamp(a * b + rad))
  }
}
