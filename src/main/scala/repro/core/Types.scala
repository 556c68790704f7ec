package repro.core

/** A sliding-window correlation query, exactly as in the paper's Problem
  * Definition: query range ``r = (start, end)`` (end exclusive), window size
  * ``windowLen`` (the paper's ``l``), slide step ``step`` (``η``), threshold
  * ``beta`` (``β``), all in raw time steps (columns of X), plus the basic
  * window size ``bwSize`` (``B``) used by the sketch substrate.
  *
  * Alignment requirements mirror the basic-window framework: the window
  * length, the step, and the query range must all be multiples of the basic
  * window size, so every sliding window is a whole number of basic windows
  * (the paper's ``n_s = windowLen / bwSize``) and every slide shifts by a
  * whole number of basic windows (``s = step / bwSize``).
  */
final case class SlidingQuery(
    start: Long,
    end: Long,
    windowLen: Int,
    step: Int,
    beta: Double,
    bwSize: Int
) {
  require(windowLen > 0 && step > 0 && bwSize > 0, "windowLen, step, bwSize must be positive")
  require(end > start, "query range must be non-empty")
  require(windowLen % bwSize == 0, s"windowLen=$windowLen must be a multiple of bwSize=$bwSize")
  require(step % bwSize == 0, s"step=$step must be a multiple of bwSize=$bwSize")
  require((end - start) % bwSize == 0, s"query range length must be a multiple of bwSize=$bwSize")
  require(end - start >= windowLen, "query range must contain at least one full window")
  require(beta >= -1.0 - 1e-12 && beta <= 1.0 + 1e-12, "beta must lie in [-1, 1]")

  /** Number of basic windows per query window (the paper's ``n_s``). */
  val nS: Int = windowLen / bwSize

  /** Number of basic windows per slide step. */
  val s: Int = step / bwSize

  /** Number of basic windows in the whole query range. */
  val nBw: Int = ((end - start) / bwSize).toInt

  /** Number of sliding windows (``γ + 1`` in the paper). */
  val numWindows: Int = (nBw - nS) / s + 1

  /** Local basic-window offset of sliding window ``w``. */
  def windowOffsetBw(w: Int): Int = w * s

  /** Raw-time start of sliding window ``w``. */
  def windowStartT(w: Int): Long = start + w.toLong * step
}

/** One pair's basic-window sketch over the query range: a view a task builds
  * from references into a [[PairSketch]] row, never stored; TSUBASA,
  * horizontal pruning and the lone-pair entry points read it.
  *
  * All arrays are indexed by local basic-window index ``0 until nBw``.
  * ``meanX``/``meanY`` are the basic-window means, [[Sketch.centered]];
  * ``m2x``/``m2y`` the sums of squares ``Σ (v − mean)²`` and ``cp`` the
  * cross products ``Σ (x − meanX)(y − meanY)``, about the raw means: Eq. 1's
  * statistics (σ = sqrt(m2/B), c = cp/sqrt(m2x·m2y)) in the safer cov form.
  */
final case class Pair(i: Int, j: Int, meanX: Array[Double], m2x: Array[Double],
                      meanY: Array[Double], m2y: Array[Double], cp: Array[Double]) {
  def nBw: Int = meanX.length
}

/** The pairs of one tile, walked in place: after each [[advance]] that
  * returns true, ``x`` and ``y`` index the pair's series in the tile, lower
  * sid first, and ``cp`` holds its cross products until the next advance.
  */
private[core] trait PairCursor {
  def advance(): Boolean
  def x: Int
  def y: Int
  def cp: Array[Double]
}

/** The cached sketch of one tile of the all-pairs grid, each piece of Eq. 1's
  * state stored once: series ``s`` of the tile has sid ``sid(s)`` and
  * basic-window ``mean(s)``/``m2(s)``; pair ``p`` joins series ``x(p)`` and
  * ``y(p)`` (lower sid first, in [[Tile.pairs]] order) with cross products
  * ``cp(p)``. The basic windows are ``bwSize`` steps each from step ``start``.
  */
final case class PairSketch(start: Long, bwSize: Int, sid: Array[Int], mean: Array[Array[Double]],
                            m2: Array[Array[Double]], x: Array[Int], y: Array[Int], cp: Array[Array[Double]]) {
  /** Each pair's view for query ``q``, lazily, sharing the row's arrays. */
  def pairs(q: SlidingQuery): Iterator[Pair] = {
    requireCovers(q)
    cp.indices.iterator.map { p =>
      val (a, b) = (x(p), y(p))
      Pair(sid(a), sid(b), mean(a), m2(a), mean(b), m2(b), cp(p))
    }
  }

  /** The row's pairs for query ``q``, walked in place. */
  private[core] def cursor(q: SlidingQuery): PairCursor = {
    requireCovers(q)
    new PairCursor {
      private var p = -1
      def advance(): Boolean = { p += 1; p < PairSketch.this.cp.length }
      def x: Int = PairSketch.this.x(p)
      def y: Int = PairSketch.this.y(p)
      def cp: Array[Double] = PairSketch.this.cp(p)
    }
  }

  /** A query whose basic windows do not start the sketch's fails with an IllegalArgumentException naming both ranges. */
  private def requireCovers(q: SlidingQuery): Unit = {
    val end = start + mean(0).length.toLong * bwSize
    require(q.start == start && q.bwSize == bwSize && q.end <= end, s"query range [${q.start}, ${q.end}) " +
      s"at bwSize ${q.bwSize} is not a prefix of the sketch's [$start, $end) at bwSize $bwSize")
  }
}

/** A thresholded network edge: ``corr(i, j) ≥ β`` in sliding window ``w``. */
final case class Edge(i: Int, j: Int, w: Int, corr: Double)
