package repro.parcorr

import org.apache.spark.rdd.RDD
import repro.core.{Edge, PairMath, SlidingQuery, Tile}
import repro.util.DetRandom

/** ParCorr baseline (Yagoubi et al., DAMI '18), reimplemented from the
  * published algorithm: identify correlated pairs across sliding windows
  * via random-projection sketches.
  *
  * Each series' current window is projected onto ``d`` time-indexed
  * Rademacher vectors ``r(dim, t) ∈ {±1}`` (hash-derived, so the
  * projections of overlapping windows share their common terms and slide
  * incrementally — ParCorr's efficiency claim). The window mean is removed
  * in sketch space (``ĉ = s − μ·R`` where ``R`` is the projection of the
  * all-ones vector, also maintained incrementally), and correlation is
  * estimated by the cosine of the centered sketches:
  * ``corr ≈ ⟨ĉ_x, ĉ_y⟩ / (‖ĉ_x‖·‖ĉ_y‖)`` — the estimator is exact for
  * affinely dependent windows and its error shrinks as d grows.
  *
  * This is an ''approximate'' method — Table 2 compares its edge accuracy
  * against Dangoron's, as the paper does.
  */
object ParCorr {

  /** One series' centered sketch at one sliding window. */
  final case class WindowSketch(sid: Int, w: Int, sketch: Array[Double], mean: Double, std: Double)

  /** Sketch every window of one series, rolling the projections and the
    * moment sums incrementally across slides. Pure Scala (runs in tasks).
    */
  def sketchSeries(sid: Int, vals: Array[Double], q: SlidingQuery, d: Int, seed: Long): Vector[WindowSketch] = {
    val l = q.windowLen
    val sk = new Array[Double](d)   // projection of the raw window
    val ones = new Array[Double](d) // projection of the all-ones vector
    var sum = 0.0
    var sumSq = 0.0
    def update(t: Int, sign: Double): Unit = { // sign +1 adds step t, −1 removes it; ±1.0 products are exact
      val v = vals(t)
      sum += sign * v; sumSq += sign * (v * v)
      var dim = 0
      while (dim < d) {
        val r = DetRandom.rademacher(seed, dim.toLong, q.start + t)
        sk(dim) += sign * (v * r); ones(dim) += sign * r
        dim += 1
      }
    }
    var t = 0
    while (t < l) { update(t, 1.0); t += 1 }
    val out = Vector.newBuilder[WindowSketch]
    var w = 0
    while (w < q.numWindows) {
      val mean = sum / l
      val varr = math.max(0.0, sumSq / l - mean * mean)
      val centered = Array.tabulate(d)(dim => sk(dim) - mean * ones(dim))
      out += WindowSketch(sid, w, centered, mean, math.sqrt(varr))
      if (w + 1 < q.numWindows) {
        var u = w * q.step
        while (u < (w + 1) * q.step) { update(u, -1.0); u += 1 }
        u = w * q.step + l
        while (u < (w + 1) * q.step + l) { update(u, 1.0); u += 1 }
      }
      w += 1
    }
    out.result()
  }

  /** Correlation estimate: cosine of the centered sketches, both of one dimension. */
  def estimate(a: WindowSketch, b: WindowSketch): Double = {
    if (a.std <= 1e-9 || b.std <= 1e-9) return 0.0
    var dot = 0.0; var na = 0.0; var nb = 0.0
    var dim = 0
    while (dim < a.sketch.length) {
      dot += a.sketch(dim) * b.sketch(dim)
      na += a.sketch(dim) * a.sketch(dim)
      nb += b.sketch(dim) * b.sketch(dim)
      dim += 1
    }
    if (na <= 1e-12 || nb <= 1e-12) 0.0
    else PairMath.clamp(dot / math.sqrt(na) / math.sqrt(nb))
  }

  /** Thresholded edge estimates for the whole sliding query, as an
    * ``RDD[Edge]`` like the other baselines'.
    *
    * Spark layout: the tiles of ``Sketch.pairStats`` (ParCorr's grid over the
    * pair space). Each tile task sketches the windows of its series, rolling
    * updates inside the task, then estimates every pair of the tile per
    * window and keeps those at or above β.
    */
  def edges(tiles: RDD[Tile], q: SlidingQuery, d: Int = 32, seed: Long = 1234): RDD[Edge] =
    tiles.flatMap { tile =>
      val windows = (tile.blockI ++ tile.blockJ).map(s => s.sid -> sketchSeries(s.sid, s.vals, q, d, seed)).toMap
      tile.pairs.flatMap { case (x, y) =>
        windows(x.sid).iterator.zip(windows(y.sid))
          .map { case (a, b) => Edge(x.sid, y.sid, a.w, estimate(a, b)) }
          .filter(_.corr >= q.beta)
      }
    }
}
