package repro

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{SeriesRow, Sketch, SlidingQuery, Tile, TestSeries}

/** Builders turning local matrices into the long-format (sid, t, v) input. */
object SparkTestData {

  def toValuesDf(spark: SparkSession, m: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    val rows = for {
      sid <- m.indices
      t <- m(sid).indices
    } yield (sid, t.toLong, m(sid)(t))
    rows.toDF("sid", "t", "v")
  }

  /** The tile grid NaiveCorr and ParCorr read, as the experiment harnesses build it. */
  def tiles(values: DataFrame, q: SlidingQuery): RDD[Tile] =
    Sketch.pairStats(Sketch.segments(values, q))

  /** Each series' row with its basic-window stats, once: the diagonal tiles hold every block once. */
  def seriesRows(values: DataFrame, q: SlidingQuery): RDD[SeriesRow] =
    tiles(values, q).filter(t => t.bi == t.bj).flatMap(_.blockI)

  /** Small deterministic panel: first half of the series share one
    * sinusoid phase (a strongly correlated cluster, corr ≈ 0.9), second
    * half are independent pure noise (corr ≈ 0).
    */
  def panel(seed: Long, n: Int, len: Int): Array[Array[Double]] =
    Array.tabulate(n) { sid =>
      if (sid < n / 2)
        Array.tabulate(len) { t =>
          math.sin(2 * math.Pi * t / 37.0) +
            0.3 * repro.util.DetRandom.gaussian(seed, sid.toLong, t.toLong)
        }
      else TestSeries.series(seed + 100, sid, len, amp = 0.0, noise = 1.0)
    }
}
