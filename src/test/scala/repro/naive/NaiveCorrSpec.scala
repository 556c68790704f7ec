package repro.naive

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SparkTestData}
import repro.core._

/** The ground-truth baseline itself is verified against DuckDB's corr()
  * (the repo's result-equality oracle), so every accuracy number in the
  * benches rests on an independently-checked foundation.
  */
class NaiveCorrSpec extends SparkSpec {

  private lazy val n = 4
  private lazy val len = 64
  private lazy val matrix = SparkTestData.panel(91L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)
  private lazy val q = SlidingQuery(0L, len.toLong, windowLen = 32, step = 16, beta = 0.0, bwSize = 16)

  private def duckSql(q: SlidingQuery): String =
    s"""SELECT CAST(w.w AS INT) AS w,
       |       CAST(a.sid AS INT) AS i,
       |       CAST(b.sid AS INT) AS j,
       |       round(corr(CAST(a.v AS DOUBLE), CAST(b.v AS DOUBLE)), 4) AS r
       |FROM ts a
       |JOIN ts b ON a.t = b.t AND CAST(a.sid AS INT) < CAST(b.sid AS INT)
       |JOIN win w ON CAST(a.t AS BIGINT) >= CAST(w.ws AS BIGINT)
       |          AND CAST(a.t AS BIGINT) <  CAST(w.we AS BIGINT)
       |GROUP BY 1, 2, 3""".stripMargin

  /** NaiveCorr's computation expressed in Spark SQL (Catalyst ``corr``
    * aggregate over a window join) — used to cross-check against the
    * DuckDB oracle with an identically-shaped SQL query. Output columns:
    * ``w, i, j, r`` with ``r`` rounded to 4 decimals (double summation
    * order differs across engines).
    */
  private def edgesSql(values: DataFrame, q: SlidingQuery): DataFrame = {
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

  private def winDf(q: SlidingQuery) = {
    import spark.implicits._
    (0 until q.numWindows)
      .map(w => (w, q.windowStartT(w), q.windowStartT(w) + q.windowLen))
      .toDF("w", "ws", "we")
  }

  test("edgesSql (Catalyst corr) matches the DuckDB oracle") {
    Oracle.assertEquivalent(edgesSql(values, q), duckSql(q),
      "ts" -> values, "win" -> winDf(q))
  }

  test("edgesSql matches DuckDB with overlapping windows (step < windowLen/2)") {
    val q2 = SlidingQuery(0L, len.toLong, windowLen = 32, step = 8, beta = 0.0, bwSize = 8)
    Oracle.assertEquivalent(edgesSql(values, q2), duckSql(q2),
      "ts" -> values, "win" -> winDf(q2))
  }

  test("allCorrs (array path) matches edgesSql (Catalyst path)") {
    import spark.implicits._
    val viaArrays = NaiveCorr.allCorrs(SparkTestData.tiles(values, q), q)
      .map(e => (e.w, e.i, e.j, BigDecimal(e.corr).setScale(4, BigDecimal.RoundingMode.HALF_UP).toDouble))
      .toDF("w", "i", "j", "r")
    val viaSql = edgesSql(values, q)
    val a = viaArrays.collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2)) -> r.getDouble(3)).toMap
    val b = viaSql.collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2)) -> r.getDouble(3)).toMap
    assert(a.keySet === b.keySet)
    a.foreach { case (k, v) => assert(math.abs(v - b(k)) <= 1e-4 + 1e-9, s"at $k: $v vs ${b(k)}") }
  }

  test("allCorrs matches the DuckDB oracle directly") {
    import spark.implicits._
    val sparkDf = NaiveCorr.allCorrs(SparkTestData.tiles(values, q), q)
      .toDF().select(col("w"), col("i"), col("j"), round(col("corr"), 4).as("r"))
    Oracle.assertEquivalent(sparkDf, duckSql(q), "ts" -> values, "win" -> winDf(q))
  }

  test("allCorrs count = pairs × windows") {
    assert(NaiveCorr.allCorrs(SparkTestData.tiles(values, q), q).count() ===
      n.toLong * (n - 1) / 2 * q.numWindows)
  }

  test("edges applies the threshold") {
    val q2 = q.copy(beta = 0.8)
    val edges = NaiveCorr.edges(SparkTestData.tiles(values, q2), q2).collect()
    assert(edges.forall(_.corr >= 0.8))
    val all = NaiveCorr.allCorrs(SparkTestData.tiles(values, q2), q2).collect()
    assert(edges.length === all.count(_.corr >= 0.8))
  }

  test("edgesFromArrays equals edges") {
    val q2 = q.copy(beta = 0.5)
    val viaTiles = NaiveCorr.edges(SparkTestData.tiles(values, q2), q2).collect().toSet
    val viaArrs = (for {
      i <- 0 until n; j <- i + 1 until n
      (w, c) <- Sweep.naive(matrix(i), matrix(j), q2) if c >= q2.beta
    } yield Edge(i, j, w, c)).toSet
    assert(viaTiles.nonEmpty)
    assert(viaTiles === viaArrs)
  }

  test("allCorrs on tiles: one exact row per (i<j, w), N = 2, 3, 7, 23") {
    val q16 = SlidingQuery(16L, 80L, windowLen = 32, step = 8, beta = 0.0, bwSize = 8)
    for (nSeries <- Seq(2, 3, 7, 23)) {
      val m = Array.tabulate(nSeries)(sid => TestSeries.series(90L + nSeries, sid, 96))
      val all = NaiveCorr.allCorrs(SparkTestData.tiles(SparkTestData.toValuesDf(spark, m), q16), q16).collect()
      assert(all.map(e => (e.i, e.j, e.w)).sorted.toSeq ===
        (for (i <- 0 until nSeries; j <- i + 1 until nSeries; w <- 0 until q16.numWindows) yield (i, j, w)))
      all.foreach(e => assert(e.corr === PairMath.directPearson(m(e.i), m(e.j), 16 + e.w * q16.step, q16.windowLen)))
    }
  }

  test("symmetric input: corr(i,j) appears once with i < j") {
    val all = NaiveCorr.allCorrs(SparkTestData.tiles(values, q), q).collect()
    assert(all.forall(e => e.i < e.j))
    assert(all.map(e => (e.i, e.j, e.w)).distinct.length === all.length)
  }
}
