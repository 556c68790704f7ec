package repro.naive

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core._

/** Exact brute-force baseline: direct Pearson over raw values for every
  * pair and every sliding window. O(l) per pair per window — the ground
  * truth for all accuracy metrics, itself oracle-checked against DuckDB's
  * ``corr()`` in the test suite.
  */
object NaiveCorr {

  /** All pair-window correlations (no thresholding) of every pair in the
    * tiles of ``Sketch.pairStats(Sketch.segments(values, q))``.
    */
  def allCorrs(tiles: Dataset[Tile], q: SlidingQuery): Dataset[Edge] = {
    val spark = tiles.sparkSession
    import spark.implicits._
    tiles.flatMap(_.pairs.flatMap { case (x, y) =>
      Sweep.naive(x.vals, y.vals, q).map { case (w, c) => Edge(x.sid, y.sid, w, c) }
    })
  }

  /** Thresholded edges — same output contract as Dangoron/TSUBASA. */
  def edges(tiles: Dataset[Tile], q: SlidingQuery): Dataset[Edge] = {
    val beta = q.beta
    allCorrs(tiles, q).filter(_.corr >= beta)
  }

  /** The same computation expressed in Spark SQL (Catalyst ``corr``
    * aggregate over a window join) — used to cross-check against the
    * DuckDB oracle with an identically-shaped SQL query. Output columns:
    * ``w, i, j, r`` with ``r`` rounded to 4 decimals (double summation
    * order differs across engines).
    */
  def edgesSql(values: DataFrame, q: SlidingQuery): DataFrame = {
    val spark = values.sparkSession
    import spark.implicits._
    val wins = (0 until q.numWindows)
      .map(w => (w, q.windowStartT(w), q.windowStartT(w) + q.windowLen))
      .toDF("w", "ws", "we")
    val a = values.select(col("sid").cast("int").as("sid"), col("t").cast("long").as("t"),
                          col("v").cast("double").as("v")).alias("a")
    val b = values.select(col("sid").cast("int").as("sid"), col("t").cast("long").as("t"),
                          col("v").cast("double").as("v")).alias("b")
    a.join(b, col("a.t") === col("b.t") && col("a.sid") < col("b.sid"))
      .join(wins, col("a.t") >= col("ws") && col("a.t") < col("we"))
      .groupBy(col("w"), col("a.sid").as("i"), col("b.sid").as("j"))
      .agg(round(corr(col("a.v"), col("b.v")), 4).as("r"))
      .select("w", "i", "j", "r")
  }
}
