package repro.core

import java.lang.Double.doubleToRawLongBits
import java.nio.charset.StandardCharsets.ISO_8859_1

import org.apache.spark.serializer.{JavaSerializer, KryoSerializer}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.{SparkSpec, SparkTestData, Oracle}

class SketchSpec extends SparkSpec {
  import TestSeries._

  private lazy val n = 5
  private lazy val len = 96
  private lazy val matrix = SparkTestData.panel(51L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)
  private lazy val q = SlidingQuery(0L, len.toLong, windowLen = 32, step = 8, beta = 0.5, bwSize = 8)
  /** Query over raw steps [16, 80): local basic window 0 starts at t = 16. */
  private lazy val q16 = SlidingQuery(16L, 80L, windowLen = 32, step = 8, beta = 0.5, bwSize = 8)

  private def blocks = Sketch.blockCount(spark.sparkContext.defaultParallelism)

  /** Every pair view of the sketch rows ``build`` gives. */
  private def builtPairs(in: DataFrame, qq: SlidingQuery): Array[Pair] = Sketch.build(in, qq).collect().flatMap(_.pairs(qq))

  /** Every array of ``got`` equals the local builder's, bit for bit. */
  private def assertBitIdentical(got: Pair, m: Array[Array[Double]], qq: SlidingQuery): Unit = {
    val (from, until) = (qq.start.toInt, qq.end.toInt)
    val want = sketchOf(m(got.i).slice(from, until), m(got.j).slice(from, until), qq.bwSize, got.i, got.j)
    assert(got.meanX === want.meanX, s"meanX of (${got.i},${got.j})")
    assert(got.m2x === want.m2x, s"m2x of (${got.i},${got.j})")
    assert(got.meanY === want.meanY, s"meanY of (${got.i},${got.j})")
    assert(got.m2y === want.m2y, s"m2y of (${got.i},${got.j})")
    assert(got.cp === want.cp, s"cp of (${got.i},${got.j})")
  }

  /** The rows of ``values`` sorted by ``t`` and range-partitioned on it into
    * four partitions, persisted so that every read sees the same partitions.
    */
  private def timeMajor(values: DataFrame): DataFrame =
    values.repartitionByRange(4, col("t")).sortWithinPartitions("t").persist()

  /** Each input partition's spans, by partition (``segments`` is narrow). */
  private def spansByPartition(in: DataFrame, qq: SlidingQuery): Array[Array[Span]] =
    Sketch.segments(in, qq).glom().collect()

  /** The spans of each series hold every step of ``qq`` once, with ``m``'s
    * value, and nothing else: their total size is the reading count.
    */
  private def assertSpansCover(spans: Seq[Span], m: Array[Array[Double]], qq: SlidingQuery): Unit = {
    val len = (qq.end - qq.start).toInt
    assert(spans.forall(s => s.start == qq.start && s.len == len && s.bwSize == qq.bwSize))
    assert(spans.forall(s => s.steps.length == s.vals.length))
    assert(spans.map(_.sid).distinct.sorted.toSeq === m.indices)
    val held = for (s <- spans; r <- s.steps.indices) yield {
      assert(s.vals(r) === m(s.sid)(qq.start.toInt + s.steps(r)), s"sid=${s.sid}, step ${s.steps(r)}")
      (s.sid, s.steps(r))
    }
    assert(held.sorted === (for (sid <- m.indices; u <- 0 until len) yield (sid, u)))
  }

  /** The ``IllegalArgumentException`` that a sketch build over ``qq`` fails
    * with on ``bad`` (Spark wraps a task's exception in its own).
    */
  private def rejection(bad: DataFrame, qq: SlidingQuery = q): IllegalArgumentException = {
    val ex = intercept[Exception](Sketch.build(bad, qq).collect())
    Iterator.iterate[Throwable](ex)(_.getCause).takeWhile(_ != null)
      .collectFirst { case e: IllegalArgumentException => e }
      .getOrElse(fail(s"no IllegalArgumentException behind $ex"))
  }

  test("segments: one row per series, dense values and per-basic-window stats") {
    // Input holding each series in one partition gives one span per series, with all its readings.
    val spans = Sketch.segments(values.repartition(col("sid")), q).collect()
    assert(spans.length === n)
    assertSpansCover(spans.toSeq, matrix, q)
    // The row a tile merges for each series carries every basic window's mean and m2.
    val rows = SparkTestData.seriesRows(values, q).collect()
    assert(rows.map(_.sid).sorted.toSeq === (0 until n))
    rows.foreach { s =>
      assert(s.vals === matrix(s.sid))
      assert(s.mean.length === q.nBw && s.m2.length === q.nBw)
      for (t <- 0 until q.nBw) {
        val (mean, m2) = Sketch.meanM2(matrix(s.sid), t * q.bwSize, (t + 1) * q.bwSize)
        assert(s.mean(t) === mean && s.m2(t) === m2)
      }
    }
  }

  test("segments: one span per (input partition, series), holding exactly that partition's readings") {
    import spark.implicits._
    // Series-major, time-major and randomly shuffled input: the spans of
    // every layout hold each reading once and nothing more.
    val timeMaj = timeMajor(values)
    val shuffled = values.repartition(7).persist()
    try
      for (in <- Seq(values, timeMaj, shuffled)) {
        val held = in.select(col("sid").cast("int"), col("t").cast("int")).as[(Int, Int)].rdd.glom().collect()
        val parts = spansByPartition(in, q)
        assert(parts.length === held.length)
        for ((spans, rows) <- parts.zip(held)) {
          assert(spans.map(_.sid).sorted.toSeq === rows.map(_._1).distinct.sorted.toSeq)
          spans.foreach(s => assert(s.steps.sorted.toSeq === rows.collect { case (s.sid, t) => t }.sorted.toSeq))
        }
        assertSpansCover(parts.flatten.toSeq, matrix, q)
      }
    finally { timeMaj.unpersist(); shuffled.unpersist() }
  }

  test("segments respect a non-zero query start") {
    val spans = Sketch.segments(values, q16).collect()
    assert(spans.forall(_.steps.forall(u => u >= 0 && u < 64)))
    assertSpansCover(spans.toSeq, matrix, q16)
  }

  test("build is bit-identical to the local builder on time-major and randomly repartitioned input") {
    val m = Array.tabulate(23)(sid => series(64L, sid, len))
    val v = SparkTestData.toValuesDf(spark, m)
    val in = timeMajor(v)
    try
      for (layout <- Seq(in, v.repartition(7))) {
        val pairs = builtPairs(layout, q16)
        assert(pairs.length === 23 * 22 / 2)
        pairs.foreach(assertBitIdentical(_, m, q16))
      }
    finally in.unpersist()
  }

  test("tile series stats match local mean/m2") {
    val rows = SparkTestData.seriesRows(values, q).collect()
    assert(rows.map(_.sid).sorted.toSeq === (0 until n))
    rows.foreach { s =>
      assert(s.vals === matrix(s.sid))
      assert(s.mean.length === q.nBw && s.m2.length === q.nBw)
      val seriesMean = matrix(s.sid).sum / len // the sketch stores means less this
      for (bw <- 0 until q.nBw) {
        val (mean, m2) = Sketch.meanM2(matrix(s.sid), bw * q.bwSize, (bw + 1) * q.bwSize)
        assert(math.abs(s.mean(bw) - mean) < 1e-9)
        assert(math.abs(Sketch.centered(s.mean)(bw) - (mean - seriesMean)) < 1e-9)
        assert(math.abs(s.m2(bw) - m2) < 1e-9)
      }
    }
  }

  test("tile series stats agree with the DuckDB oracle (group-by mean)") {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    // The sketch stores each basic window's mean less the series' mean over the query range.
    val sparkDf = SparkTestData.seriesRows(values, q)
      .flatMap(s => s.mean.indices.map(bw => (s.sid, bw, (s.vals.length / s.mean.length).toLong, Sketch.centered(s.mean)(bw))))
      .toDF("sid", "bw", "cnt", "mean")
      .select(col("sid"), col("bw"), col("cnt"), round(col("mean"), 4).as("m"))
    // NB: DuckDB's / on integers is float division; // is integer division.
    val sql =
      s"""SELECT sid, bw, cnt, round(m - avg(m) OVER (PARTITION BY sid), 4) AS m
         |FROM (SELECT CAST(sid AS INT) AS sid,
         |             CAST(CAST(t AS BIGINT) // ${q.bwSize} AS INT) AS bw,
         |             count(*) AS cnt,
         |             avg(CAST(v AS DOUBLE)) AS m
         |      FROM ts
         |      GROUP BY 1, 2)""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "ts" -> values)
  }

  test("pairStats: one tile per partition, each series in the tiles of its block") {
    val m = Array.tabulate(23)(sid => series(61L, sid, len))
    val k = blocks
    val parts = Sketch.pairStats(Sketch.segments(SparkTestData.toValuesDf(spark, m), q)).glom().collect()
    assert(parts.length === k * (k + 1) / 2)
    assert(parts.forall(_.length <= 1))
    val tiles = parts.flatten
    assert(tiles.map(t => (t.bi, t.bj)).toSet ===
      (for (bj <- 0 until k; bi <- 0 to bj if bi < 23) yield (bi, bj)).toSet)
    tiles.foreach { t =>
      assert(t.blockI.map(_.sid).toSeq === (0 until 23).filter(_ % k == t.bi))
      assert(t.blockJ.map(_.sid).toSeq === (if (t.bi == t.bj) Nil else (0 until 23).filter(_ % k == t.bj)))
    }
  }

  test("pairSketches assemble arrays identical to the local builder") {
    val pairs = builtPairs(values, q)
    assert(pairs.length === n * (n - 1) / 2)
    pairs.foreach(assertBitIdentical(_, matrix, q))
  }

  for (nSeries <- Seq(2, 3, 7, 23))
    test(s"build is bit-identical to the local builder, pair view by pair view (N=$nSeries, non-zero start)") {
      val m = Array.tabulate(nSeries)(sid => series(60L + nSeries, sid, len))
      val v = SparkTestData.toValuesDf(spark, m)
      val timeMaj = timeMajor(v)
      try
        for (layout <- Seq(v, timeMaj, v.repartition(7))) {
          val pairs = builtPairs(layout, q16)
          assert(pairs.map(p => (p.i, p.j)).sorted.toSeq ===
            (for (i <- 0 until nSeries; j <- i + 1 until nSeries) yield (i, j)))
          pairs.foreach(assertBitIdentical(_, m, q16))
        }
      finally timeMaj.unpersist()
    }

  for (nSeries <- Seq(2, 3, 7, 23))
    test(s"each sketch row holds its tile's series stats once and exactly the tile's pairs (N=$nSeries)") {
      val m = Array.tabulate(nSeries)(sid => series(65L + nSeries, sid, len))
      val tiles = Sketch.pairStats(Sketch.segments(SparkTestData.toValuesDf(spark, m), q16)).persist()
      try {
        // pairSketches is a narrow flatMap: partition k of the rows comes from the tile in partition k.
        val byPart = tiles.glom().collect().zip(Sketch.pairSketches(tiles, q16).rdd.glom().collect())
        for ((ts, rows) <- byPart) {
          val tilePairs = ts.toSeq.flatMap(_.pairs.map { case (x, y) => (x.sid, y.sid) })
          assert(rows.length === (if (tilePairs.isEmpty) 0 else 1))
          for (tile <- ts; row <- rows) {
            assert(row.sid.toSeq === tile.series.map(_.sid).toSeq)
            assert(row.sid.distinct.length === row.sid.length)
            for ((s, x) <- tile.series.zipWithIndex)
              assert(row.mean(x) === Sketch.centered(s.mean) && row.m2(x) === s.m2, s"sid=${s.sid}")
            assert(row.pairs(q16).map(p => (p.i, p.j)).toSeq === tilePairs)
            for ((p, k) <- row.pairs(q16).zipWithIndex) // a view shares the row's arrays
              assert((p.meanX eq row.mean(row.x(k))) && (p.m2y eq row.m2(row.y(k))) && (p.cp eq row.cp(k)))
          }
        }
        assert(byPart.map(_._2.length).sum > 0)
      } finally tiles.unpersist()
    }

  test("blockCount is the least k whose k(k+1)/2 tiles are at least two per core") {
    for (p <- 1 to 64) {
      val k = Sketch.blockCount(p)
      assert(k * (k + 1) / 2 >= 2 * p && (k - 1) * k / 2 < 2 * p, s"parallelism $p: k = $k")
    }
    assert(Sketch.blockCount(4) === 4) // 10 tiles on 4 cores
  }

  test("build of a single series is empty") {
    val v1 = SparkTestData.toValuesDf(spark, Array(series(62L, 0, len)))
    assert(Sketch.build(v1, q).count() === 0)
  }

  test("every non-empty sketch partition holds the pairs of one tile") {
    val m = Array.tabulate(23)(sid => series(63L, sid, len))
    val k = blocks
    def tile(i: Int, j: Int) = (math.min(i % k, j % k), math.max(i % k, j % k))
    val query = q // a local, so that the task closure does not capture the suite
    val tilesPerPart = Sketch.build(SparkTestData.toValuesDf(spark, m), query).rdd
      .mapPartitions(it => Iterator(it.flatMap(_.pairs(query)).map(p => tile(p.i, p.j)).toSet))
      .collect().filter(_.nonEmpty)
    assert(tilesPerPart.forall(_.size == 1))
    assert(tilesPerPart.length === (for (i <- 0 until 23; j <- i + 1 until 23) yield tile(i, j)).distinct.length)
  }

  test("sketch windowCorr equals direct Pearson on the distributed sketch") {
    builtPairs(values, q).foreach { p =>
      for (w <- 0 until q.numWindows) {
        val viaSketch = PairMath.windowCorr(p, q.windowOffsetBw(w), q.nS, q.bwSize)
        val direct = PairMath.directPearson(matrix(p.i), matrix(p.j), w * q.step, q.windowLen)
        assert(math.abs(viaSketch - direct) < 1e-9)
      }
    }
  }

  test("tile pairs are every i<j once") {
    val pairs = Sketch.pairStats(Sketch.segments(values, q)).collect()
      .flatMap(_.pairs.map { case (x, y) => (x.sid, y.sid) })
    assert(pairs.sorted.toSeq === (for (i <- 0 until n; j <- (i + 1) until n) yield (i, j)))
  }

  test("segments reject a missing reading, naming its sid and t") {
    // An inner step, then the first and the last step of each query range.
    for ((qq, sid, t) <- Seq((q, 0, 13L), (q, 1, 0L), (q, 1, 95L), (q16, 1, 16L), (q16, 1, 79L))) {
      val ex = rejection(values.where(s"NOT (sid = $sid AND t = $t)"), qq)
      assert(ex.getMessage.contains(s"missing reading at sid=$sid, t=$t"), ex.getMessage)
    }
  }

  test("segments reject a duplicate reading, naming its sid and t") {
    val bad = values.union(values.where("sid = 3 AND t = 40"))
    // Split across two input partitions, then within one: the tiles reject it either way.
    def holdsT40(s: Span) = s.sid == 3 && s.steps.contains(40)
    assert(spansByPartition(bad, q).count(_.exists(holdsT40)) === 2)
    assert(spansByPartition(bad.coalesce(1), q).flatten.filter(holdsT40).map(_.steps.count(_ == 40)).toSeq === Seq(2))
    for (ex <- Seq(rejection(bad), rejection(bad.coalesce(1))))
      assert(ex.getMessage.contains("duplicate reading at sid=3, t=40"), ex.getMessage)
  }

  test("segments reject a duplicate and a missing reading in one basic window") {
    // Basic window 1 of series 2 still holds 8 readings: t = 9 twice, no t = 14.
    val bad = values.where("NOT (sid = 2 AND t = 14)").union(values.where("sid = 2 AND t = 9"))
    val ex = rejection(bad)
    assert(ex.getMessage.contains("duplicate reading at sid=2, t=9"), ex.getMessage)
  }

  test("segments reject NaN and infinite values, naming sid and t") {
    import org.apache.spark.sql.functions._
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val v = when(col("sid") === 4 && col("t") === 70, lit(bad)).otherwise(col("v"))
      val ex = rejection(values.withColumn("v", v))
      assert(ex.getMessage.contains(s"non-finite value $bad at sid=4, t=70"), ex.getMessage)
    }
  }

  test("segments reject a null sid or value, naming sid and t") {
    import org.apache.spark.sql.functions._
    // A null t fails too: read as a long it would be a reading at t = 0.
    for ((c, at) <- Seq("v" -> "sid=4, t=70", "sid" -> "sid=null, t=70", "t" -> "sid=4, t=null")) {
      val nulled = when(col("sid") === 4 && col("t") === 70, lit(null)).otherwise(col(c))
      val ex = rejection(values.withColumn(c, nulled))
      assert(ex.getMessage.contains(s"null reading at $at"), ex.getMessage)
    }
  }

  test("a span with shuffled, non-contiguous steps survives Java and Kryo serialization bit for bit") {
    val steps = Array(40, 3, 17, 0, 95, 8, 41)
    val vals = Array(1.5, -0.0, Double.MinPositiveValue, -1e300, math.Pi, java.lang.Double.longBitsToDouble(0x7ff8000000000123L), 42.0)
    val span = Span(7, steps, vals, 16L, 96, 8)
    val conf = spark.sparkContext.getConf
    for ((ser, proxied) <- Seq(new JavaSerializer(conf) -> true, new KryoSerializer(conf) -> false)) {
      val inst = ser.newInstance()
      val bytes = inst.serialize(span)
      // Java serialization writes the one-block proxy; Kryo reads the fields and writes no proxy.
      val wire = new String(bytes.array, bytes.arrayOffset + bytes.position, bytes.remaining, ISO_8859_1)
      assert(wire.contains("Span$Wire") === proxied, ser.getClass.getSimpleName)
      val back = inst.deserialize[Span](bytes)
      assert((back.sid, back.start, back.len, back.bwSize) === ((7, 16L, 96, 8)))
      assert(back.steps.toSeq === steps.toSeq)
      assert(back.vals.map(doubleToRawLongBits).toSeq === vals.map(doubleToRawLongBits).toSeq)
    }
  }

  test("a span of consecutive steps survives Java and Kryo serialization bit for bit, at 8 bytes a reading on Java's wire") {
    val vals = Array.tabulate(40)(u => math.sin(u) * 1e6)
    val (contiguous, scattered) = (Span(7, Array(16), vals, 16L, 96, 8), Span(7, Array.range(16, 56), vals, 16L, 96, 8))
    assert(contiguous.contiguous && !scattered.contiguous && contiguous.steps.toSeq === scattered.steps.toSeq)
    val conf = spark.sparkContext.getConf
    for (ser <- Seq(new JavaSerializer(conf), new KryoSerializer(conf))) {
      val inst = ser.newInstance()
      val back = inst.deserialize[Span](inst.serialize(contiguous))
      assert(back.contiguous, ser.getClass.getSimpleName)
      assert((back.sid, back.index.toSeq, back.start, back.len, back.bwSize) === ((7, Seq(16), 16L, 96, 8)))
      assert(back.steps.toSeq === (16 until 56))
      assert(back.vals.map(doubleToRawLongBits).toSeq === vals.map(doubleToRawLongBits).toSeq)
    }
    // Java's wire: the same block, less the steps after the first.
    val java = new JavaSerializer(conf).newInstance()
    assert(java.serialize(scattered).remaining - java.serialize(contiguous).remaining === 4 * (vals.length - 1))
  }

  test("segments keep one step for a run of consecutive readings, every step otherwise") {
    val shuffled = values.repartition(7).persist()
    try {
      val byLayout = Seq("series-major" -> values, "shuffled" -> shuffled).map { case (l, in) => l -> spansByPartition(in, q).flatten }
      for ((layout, spans) <- byLayout; s <- spans) {
        val consecutive = s.steps.indices.forall(r => s.steps(r) == s.steps(0) + r)
        assert(s.contiguous === consecutive, s"$layout: sid=${s.sid}")
      }
      assert(byLayout.head._2.forall(_.contiguous) && !byLayout.last._2.forall(_.contiguous))
    } finally shuffled.unpersist()
  }

  /** The rows of ``parts`` as input, row for row: ``parts(p)`` is input partition ``p``, in order. */
  private def inPartitions(parts: Seq[Seq[(Int, Long, Double)]]): DataFrame = {
    import spark.implicits._
    spark.sparkContext.parallelize(parts, parts.length).flatMap(identity).toDF("sid", "t", "v")
  }

  /** Series 3's readings at ``steps``, in that order. */
  private def sid3(steps: Seq[Int]): Seq[(Int, Long, Double)] = steps.map(u => (3, u.toLong, matrix(3)(u)))

  test("segments reject a duplicate and a missing reading across two contiguous spans, or a contiguous and a scattered one") {
    val others = for (sid <- 0 until n if sid != 3; u <- 0 until len) yield (sid, u.toLong, matrix(sid)(u))
    val scattered = (48 until len).reverse
    for ((parts, spanKinds, error) <- Seq(
           (Seq(sid3(0 to 50), sid3(40 until len)), Seq(true, true), "duplicate reading at sid=3, t=40"),
           (Seq(sid3(0 until 40), sid3(41 until len)), Seq(true, true), "missing reading at sid=3, t=40"),
           (Seq(sid3(0 until 48), sid3(scattered :+ 40)), Seq(true, false), "duplicate reading at sid=3, t=40"),
           (Seq(sid3(0 until 48), sid3(scattered.filter(_ != 70))), Seq(true, false), "missing reading at sid=3, t=70"))) {
      val bad = inPartitions(Seq(others ++ parts(0), parts(1)))
      assert(spansByPartition(bad, q).map(_.filter(_.sid == 3).map(_.contiguous).toSeq).toSeq === spanKinds.map(Seq(_)))
      val ex = rejection(bad)
      assert(ex.getMessage.contains(error), ex.getMessage)
    }
  }

  /** Series ``sid`` of ``m`` as a tile holds it: its values and each basic window's mean and m2. */
  private def seriesRow(m: Array[Array[Double]], sid: Int, b: Int): SeriesRow = {
    val stats = (0 until m(sid).length / b).map(t => Sketch.meanM2(m(sid), t * b, (t + 1) * b))
    SeriesRow(sid, m(sid), stats.map(_._1).toArray, stats.map(_._2).toArray)
  }

  test("tile pairs come in pairIndices order with each pair's cross products bit for bit, for partner runs of 1 to 7") {
    val m = Array.tabulate(16)(sid => series(70L, sid, len))
    val rows = m.indices.map(seriesRow(m, _, q.bwSize)).toArray
    def check(tile: Tile): Unit = {
      val (s, pairs) = (tile.series, new TilePairs(tile, q))
      val got = Iterator.continually(pairs.advance()).takeWhile(identity).map(_ => (pairs.x, pairs.y, pairs.cp.clone())).toSeq
      val at = s"tile (${tile.bi}, ${tile.bj}) of ${tile.blockI.map(_.sid).toSeq} and ${tile.blockJ.map(_.sid).toSeq}"
      assert(got.map(p => (p._1, p._2)) === tile.pairIndices.toSeq, at)
      for ((x, y, cp) <- got) {
        assert(s(x).sid < s(y).sid, at)
        assert(cp.map(doubleToRawLongBits).toSeq === sketchOf(s(x).vals, s(y).vals, q.bwSize).cp.map(doubleToRawLongBits).toSeq, at)
      }
    }
    check(Tile(0, 0, rows.take(8), Array.empty)) // partner runs of 7 down to 1
    // Block I's sids sit among block J's, so pairs swap their order; block J holds 1 to 7 series.
    for (size <- 1 to 7) check(Tile(0, 1, Array(rows(1), rows(6)), rows.filter(r => r.sid != 1 && r.sid != 6).take(size)))
    // A block with one series; a block with none.
    for (tile <- Seq(Tile(0, 0, Array(rows(3)), Array.empty), Tile(0, 1, Array(rows(3)), Array.empty), Tile(0, 1, Array.empty, rows.take(3)))) {
      check(tile)
      assert(tile.pairIndices.isEmpty)
    }
  }

  test("build over sid as long and t as int gives bit-identical sketch rows") {
    def bits(in: DataFrame) = Sketch.build(in, q16).collect().map { r =>
      (r.start, r.bwSize, r.sid.toSeq, r.x.toSeq, r.y.toSeq,
        Seq(r.mean, r.m2, r.cp).map(_.toSeq.map(_.toSeq.map(doubleToRawLongBits))))
    }.toSeq
    val recast = values.select(col("sid").cast("long").as("sid"), col("t").cast("int").as("t"), col("v"))
    assert(recast.schema.map(_.dataType.typeName) === Seq("long", "integer", "double"))
    val want = bits(values)
    assert(want.nonEmpty)
    assert(bits(recast) === want)
  }

  test("sketch build handles a single pair (n=2)") {
    val m2 = Array(series(99L, 0, 64), series(99L, 1, 64))
    val v2 = SparkTestData.toValuesDf(spark, m2)
    val q2 = SlidingQuery(0L, 64L, 32, 16, 0.0, 16)
    val sks = Sketch.build(v2, q2).collect()
    assert(sks.length === 1)
    assert(sks.head.pairs(q2).map(p => (p.i, p.j)).toSeq === Seq((0, 1)))
  }
}
