package repro.streaming

import java.sql.Timestamp

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SparkTestData}
import repro.core.{Dangoron, SlidingQuery}

class StreamingSpec extends SparkSpec {

  private lazy val n = 4
  private lazy val len = 192
  private lazy val matrix = SparkTestData.panel(95L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)
  private lazy val q = SlidingQuery(0L, len.toLong, windowLen = 48, step = 8, beta = 0.6, bwSize = 8)

  // --- Structured Streaming basic-window sketch maintenance -----------------
  test("streaming bwStats equals batch sketch stats") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val stream = MemoryStream[(Int, Long, Double)]
    val readings = stream.toDF()
      .select(col("_1").as("sid"),
        col("_2").cast("timestamp").as("ts"),
        col("_3").as("v"))
    val agg = StreamingCorrelation.bwStats(readings, q.bwSize)
    val query = agg.writeStream
      .format("memory")
      .queryName("bwstats")
      .outputMode("complete")
      .start()
    try {
      // feed in three uneven chunks
      val rows = for (sid <- 0 until n; t <- 0 until len) yield (sid, t.toLong, matrix(sid)(t))
      val (c1, rest) = rows.splitAt(100)
      val (c2, c3) = rest.splitAt(333)
      stream.addData(c1); query.processAllAvailable()
      stream.addData(c2); query.processAllAvailable()
      stream.addData(c3); query.processAllAvailable()
      val got = spark.table("bwstats").collect()
        .map(r => (r.getInt(0), r.getInt(1)) -> (r.getLong(2), r.getDouble(3), r.getDouble(4)))
        .toMap
      val batch = SparkTestData.seriesRows(values, q).collect()
      assert(got.size === batch.map(_.mean.length).sum)
      for (s <- batch; bw <- s.mean.indices) {
        val (cnt, mean, m2) = got((s.sid, bw))
        assert(cnt === q.bwSize.toLong)
        assert(math.abs(mean - s.mean(bw)) < 1e-9, s"sid=${s.sid} bw=$bw")
        assert(math.abs(m2 - s.m2(bw)) < 1e-6, s"sid=${s.sid} bw=$bw")
      }
    } finally query.stop()
  }

  // --- Incremental StreamingDangoron ----------------------------------------
  private def batchEdges = {
    val (ds, _) = Dangoron.run(values, q)
    ds.collect().toSet
  }

  for (batchSize <- Seq(40, 64, 200))
    test(s"StreamingDangoron emits exactly the batch edges (batch=$batchSize steps)") {
      val driver = new StreamingCorrelation.StreamingDangoron(spark, n, q)
      var t = 0
      while (t < len) {
        val hi = math.min(len, t + batchSize)
        val batch = for { sid <- (0 until n).toArray; u <- (t until hi).toArray }
          yield (sid, u.toLong, matrix(sid)(u))
        driver.ingest(batch)
        t = hi
      }
      assert(driver.windowsEmitted === q.numWindows)
      val streamed = driver.edgesSoFar.toSet
      val batch = batchEdges
      assert(streamed.map(e => (e.i, e.j, e.w)) === batch.map(e => (e.i, e.j, e.w)))
      val batchMap = batch.map(e => (e.i, e.j, e.w) -> e.corr).toMap
      streamed.foreach(e => assert(math.abs(e.corr - batchMap((e.i, e.j, e.w))) < 1e-9))
    }

  test("StreamingDangoron emits incrementally, not only at the end") {
    val driver = new StreamingCorrelation.StreamingDangoron(spark, n, q)
    val half = len / 2
    val firstHalf = for { sid <- (0 until n).toArray; u <- (0 until half).toArray }
      yield (sid, u.toLong, matrix(sid)(u))
    driver.ingest(firstHalf)
    val midWindows = driver.windowsEmitted
    assert(midWindows > 0, "should emit windows once the first windowLen steps are complete")
    assert(midWindows < q.numWindows)
    val rest = for { sid <- (0 until n).toArray; u <- (half until len).toArray }
      yield (sid, u.toLong, matrix(sid)(u))
    driver.ingest(rest)
    assert(driver.windowsEmitted === q.numWindows)
  }

  test("each window is emitted exactly once") {
    val driver = new StreamingCorrelation.StreamingDangoron(spark, n, q)
    var t = 0
    while (t < len) {
      val hi = math.min(len, t + 16)
      driver.ingest(for { sid <- (0 until n).toArray; u <- (t until hi).toArray }
        yield (sid, u.toLong, matrix(sid)(u)))
      t = hi
    }
    val keys = driver.edgesSoFar.map(e => (e.i, e.j, e.w))
    assert(keys.distinct.size === keys.size)
  }

  test("non-dense stream is rejected") {
    val driver = new StreamingCorrelation.StreamingDangoron(spark, n, q)
    intercept[IllegalArgumentException] {
      driver.ingest(Array((0, 5L, 1.0))) // t=5 before t=0..4
    }
  }

  for ((what, bad) <- Seq(
         "a sid out of range" -> ((hi: Long) => (n, hi, 1.0)),
         "a NaN value" -> ((hi: Long) => (2, hi, Double.NaN)),
         "a gap after valid rows" -> ((hi: Long) => (1, hi + 1, 0.5))))
    test(s"a batch with $what is rejected whole; resent clean, it streams the batch edges") {
      val driver = new StreamingCorrelation.StreamingDangoron(spark, n, q)
      for (t <- 0 until len by 40) {
        val hi = math.min(len, t + 40)
        val batch = for { sid <- (0 until n).toArray; u <- (t until hi).toArray }
          yield (sid, u.toLong, matrix(sid)(u))
        if (t == 80) {
          val (sid, badT, _) = bad(hi.toLong)
          val ex = intercept[IllegalArgumentException](driver.ingest(batch :+ bad(hi.toLong)))
          assert(ex.getMessage.contains(s"sid=$sid") && ex.getMessage.contains(s"t=$badT"), ex.getMessage)
        }
        driver.ingest(batch)
      }
      assert(driver.windowsEmitted === q.numWindows)
      val batchMap = batchEdges.map(e => (e.i, e.j, e.w) -> e.corr).toMap
      assert(driver.edgesSoFar.map(e => (e.i, e.j, e.w)).toSet === batchMap.keySet)
      driver.edgesSoFar.foreach(e => assert(math.abs(e.corr - batchMap((e.i, e.j, e.w))) < 1e-9))
    }

  test("frontier waits for the slowest series") {
    val driver = new StreamingCorrelation.StreamingDangoron(spark, n, q)
    // all series except sid=0 get plenty of data; sid=0 gets none
    val batch = for { sid <- (1 until n).toArray; u <- (0 until len).toArray }
      yield (sid, u.toLong, matrix(sid)(u))
    driver.ingest(batch)
    assert(driver.windowsEmitted === 0)
  }
}
