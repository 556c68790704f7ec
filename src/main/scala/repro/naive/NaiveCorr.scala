package repro.naive

import org.apache.spark.rdd.RDD
import repro.core._

/** Exact brute-force baseline: direct Pearson over raw values for every
  * pair and every sliding window. O(l) per pair per window — the ground
  * truth for all accuracy metrics, itself oracle-checked against DuckDB's
  * ``corr()`` in the test suite. Its edges are an ``RDD[Edge]``: counts,
  * collects and ``Metrics.compare`` read them as objects, so none is encoded.
  */
object NaiveCorr {

  /** All pair-window correlations (no thresholding) of every pair in the
    * tiles of ``Sketch.pairStats(Sketch.segments(values, q))``.
    */
  def allCorrs(tiles: RDD[Tile], q: SlidingQuery): RDD[Edge] =
    tiles.flatMap(_.pairs.flatMap { case (x, y) =>
      Sweep.naive(x.vals, y.vals, q).map { case (w, c) => Edge(x.sid, y.sid, w, c) }
    })

  /** Thresholded edges — same output contract as Dangoron/TSUBASA. */
  def edges(tiles: RDD[Tile], q: SlidingQuery): RDD[Edge] =
    allCorrs(tiles, q).filter(_.corr >= q.beta)
}
