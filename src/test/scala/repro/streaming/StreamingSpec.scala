package repro.streaming

import repro.{SparkSpec, SparkTestData}
import repro.core.{Dangoron, Edge, Sketch, SlidingQuery}
import repro.data.ClimateData
import repro.tsubasa.Tsubasa

class StreamingSpec extends SparkSpec {

  private lazy val n = 4
  private lazy val len = 192
  private lazy val matrix = SparkTestData.panel(95L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)
  private lazy val q = SlidingQuery(0L, len.toLong, windowLen = 48, step = 8, beta = 0.6, bwSize = 8)

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

  test("StreamingDangoron buffers at most a window plus one batch per series on a 10x longer stream") {
    val longLen = 10 * len
    val m = SparkTestData.panel(96L, n, longLen)
    val longQ = q.copy(end = longLen.toLong)
    val batchSize = 64
    val driver = new StreamingCorrelation.StreamingDangoron(spark, n, longQ)
    for (t <- 0 until longLen by batchSize) {
      driver.ingest(for { sid <- (0 until n).toArray; u <- (t until t + batchSize).toArray }
        yield (sid, u.toLong, m(sid)(u)))
      assert(driver.buffered <= longQ.windowLen + batchSize, s"after the batch at t=$t")
    }
    assert(driver.windowsEmitted === longQ.numWindows)
    val batchMap = Dangoron.run(SparkTestData.toValuesDf(spark, m), longQ)._1.collect()
      .map(e => (e.i, e.j, e.w) -> e.corr).toMap
    assert(driver.edgesSoFar.map(e => (e.i, e.j, e.w)).toSet === batchMap.keySet)
    driver.edgesSoFar.foreach(e => assert(math.abs(e.corr - batchMap((e.i, e.j, e.w))) < 1e-9))
  }

  test("streamed edges are exact, and one window per batch streams the exact network where batch Dangoron misses") {
    // Short windows over climate data: Eq. 2 jumps that a batch run takes over
    // windows with edges, and that micro-batch boundaries cut short.
    val (nC, wl, nw) = (8, 240, 20)
    val hours = wl + 24 * (nw - 1)
    val m = ClimateData.hourlyLocal(ClimateData.Spec(nStations = nC, hours = hours, nRegions = 2, seed = 11L))
    val cq = SlidingQuery(0L, hours.toLong, windowLen = wl, step = 24, beta = 0.7, bwSize = 24)
    val sk = Sketch.build(SparkTestData.toValuesDf(spark, m), cq).persist()
    val exact = Tsubasa.edges(sk, cq)._1.collect().map(e => (e.i, e.j, e.w) -> e.corr).toMap
    val batch = Dangoron.edges(sk, cq)._1.collect().map(e => (e.i, e.j, e.w)).toSet
    sk.unpersist()
    assert(batch.subsetOf(exact.keySet) && batch.size < exact.size, s"batch ${batch.size} of ${exact.size} exact edges")
    /** The edges streamed by micro-batches ending at ``cuts``. */
    def stream(cuts: Seq[Int]): Vector[Edge] = {
      val driver = new StreamingCorrelation.StreamingDangoron(spark, nC, cq)
      cuts.zip(0 +: cuts).foreach { case (hi, lo) =>
        driver.ingest(for { sid <- (0 until nC).toArray; u <- (lo until hi).toArray } yield (sid, u.toLong, m(sid)(u)))
      }
      assert(driver.windowsEmitted === nw)
      driver.edgesSoFar
    }
    for (e <- stream((100 until hours by 100) :+ hours)) {
      assert(math.abs(e.corr - exact.getOrElse((e.i, e.j, e.w), Double.NaN)) < 1e-9, s"$e")
      assert(e.corr >= cq.beta, s"$e")
    }
    val perWindow = stream(wl to hours by 24)
    assert(perWindow.map(e => (e.i, e.j, e.w)).sorted === exact.keys.toSeq.sorted)
    perWindow.foreach(e => assert(math.abs(e.corr - exact((e.i, e.j, e.w))) < 1e-9, s"$e"))
  }

  test("a stream whose query starts after t = 0 is fed from q.start and streams the exact network") {
    val late = SlidingQuery(48L, len.toLong, windowLen = 48, step = 8, beta = 0.6, bwSize = 8)
    val driver = new StreamingCorrelation.StreamingDangoron(spark, n, late)
    for (t <- 48 until len by 8)
      driver.ingest(for { sid <- (0 until n).toArray; u <- (t until t + 8).toArray } yield (sid, u.toLong, matrix(sid)(u)))
    assert(driver.windowsEmitted === 13)
    val exact = Tsubasa.edges(Sketch.build(values, late), late)._1.collect().map(e => (e.i, e.j, e.w)).toSet
    assert(exact.nonEmpty)
    assert(driver.edgesSoFar.map(e => (e.i, e.j, e.w)).toSet === exact)
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
