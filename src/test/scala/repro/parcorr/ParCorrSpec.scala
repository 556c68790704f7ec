package repro.parcorr

import repro.{SparkSpec, SparkTestData}
import repro.core._
import repro.naive.NaiveCorr

class ParCorrSpec extends SparkSpec {
  import TestSeries._

  private lazy val n = 6
  private lazy val len = 192
  private lazy val matrix = SparkTestData.panel(81L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)

  private def q(beta: Double) =
    SlidingQuery(0L, len.toLong, windowLen = 48, step = 8, beta = beta, bwSize = 8)

  test("incremental window sketches equal from-scratch sketches") {
    val query = q(0.0)
    val x = matrix(0)
    val d = 8; val seed = 99L
    val rolled = ParCorr.sketchSeries(0, x, query, d, seed)
    assert(rolled.size === query.numWindows)
    rolled.foreach { ws =>
      val from = ws.w * query.step
      // from-scratch centered projection of the same window
      val slice0 = x.slice(from, from + query.windowLen)
      val mu = slice0.sum / slice0.length
      val fresh = new Array[Double](d)
      for (u <- from until from + query.windowLen; dim <- 0 until d)
        fresh(dim) += (x(u) - mu) * repro.util.DetRandom.rademacher(seed, dim.toLong, query.start + u)
      fresh.indices.foreach(dim =>
        assert(math.abs(ws.sketch(dim) - fresh(dim)) < 1e-6, s"w=${ws.w} dim=$dim"))
      // rolled moments match direct ones
      val (mean, m2) = Sketch.meanM2(x, from, from + query.windowLen)
      assert(math.abs(ws.mean - mean) < 1e-9)
      assert(math.abs(ws.std - math.sqrt(m2 / query.windowLen)) < 1e-9)
    }
  }

  test("estimate is exact for a perfectly correlated pair regardless of d") {
    val query = q(0.0)
    val x = series(5L, 0, len)
    val y = x.map(_ * 2.0 + 1.0)
    // identical Rademacher signs cancel: estimate of corr(x, 2x+1) is exact-ish
    val sx = ParCorr.sketchSeries(0, x, query, 16, 7L)
    val sy = ParCorr.sketchSeries(1, y, query, 16, 7L)
    sx.zip(sy).foreach { case (a, b) =>
      assert(math.abs(ParCorr.estimate(a, b) - 1.0) < 1e-6)
    }
  }

  test("estimation error shrinks as d grows") {
    val query = q(0.0)
    def meanAbsErr(d: Int): Double = {
      val errs = for {
        i <- 0 until n
        j <- (i + 1) until n
      } yield {
        val sx = ParCorr.sketchSeries(i, matrix(i), query, d, 3L)
        val sy = ParCorr.sketchSeries(j, matrix(j), query, d, 3L)
        sx.zip(sy).map { case (a, b) =>
          math.abs(ParCorr.estimate(a, b) -
            PairMath.directPearson(matrix(i), matrix(j), a.w * query.step, query.windowLen))
        }.sum / sx.size
      }
      errs.sum / errs.size
    }
    val errSmall = meanAbsErr(4)
    val errLarge = meanAbsErr(64)
    assert(errLarge < errSmall, s"d=4 err $errSmall vs d=64 err $errLarge")
    assert(errLarge < 0.15, s"d=64 mean |err| $errLarge too large")
  }

  test("estimates are clamped to [-1, 1]") {
    val query = q(0.0)
    val sx = ParCorr.sketchSeries(0, matrix(0), query, 2, 11L)
    val sy = ParCorr.sketchSeries(1, matrix(1), query, 2, 11L)
    sx.zip(sy).foreach { case (a, b) =>
      val e = ParCorr.estimate(a, b)
      assert(e >= -1.0 && e <= 1.0)
    }
  }

  test("zero-variance windows estimate 0") {
    val query = q(0.0)
    val flat = Array.fill(len)(4.2)
    val s1 = ParCorr.sketchSeries(0, flat, query, 8, 1L)
    val s2 = ParCorr.sketchSeries(1, matrix(1), query, 8, 1L)
    s1.zip(s2).foreach { case (a, b) =>
      assert(ParCorr.estimate(a, b) === 0.0)
    }
  }

  test("Spark edges: high recall on strongly correlated pairs (d=64)") {
    val query = q(0.7)
    val pred = ParCorr.edges(SparkTestData.tiles(values, query), query, d = 64).collect()
      .map(e => (e.i, e.j, e.w)).toSet
    val strong = NaiveCorr.allCorrs(SparkTestData.tiles(values, query), query).collect().filter(_.corr >= 0.85)
    assert(strong.nonEmpty)
    val recalled = strong.count(e => pred.contains((e.i, e.j, e.w)))
    assert(recalled.toDouble / strong.length > 0.9,
      s"recall on corr≥0.85 pairs: $recalled/${strong.length}")
  }

  test("Spark edges: low false-positive rate on anti-correlated pairs") {
    val query = q(0.7)
    val pred = ParCorr.edges(SparkTestData.tiles(values, query), query, d = 64).collect()
      .map(e => (e.i, e.j, e.w)).toSet
    val weak = NaiveCorr.allCorrs(SparkTestData.tiles(values, query), query).collect().filter(_.corr < 0.3)
    val falsePos = weak.count(e => pred.contains((e.i, e.j, e.w)))
    assert(falsePos.toDouble / math.max(1, weak.length) < 0.05,
      s"$falsePos of ${weak.length} weak pairs misreported")
  }

  test("pair-window classification accuracy is comparable to Dangoron's (paper claim)") {
    val query = q(0.6)
    val truthAll = NaiveCorr.allCorrs(SparkTestData.tiles(values, query), query).collect()
    val pred = ParCorr.edges(SparkTestData.tiles(values, query), query, d = 64).collect()
      .map(e => (e.i, e.j, e.w)).toSet
    var correct = 0
    truthAll.foreach { e =>
      if (pred.contains((e.i, e.j, e.w)) == (e.corr >= query.beta)) correct += 1
    }
    assert(correct.toDouble / truthAll.length > 0.9)
  }

  test("deterministic in seed") {
    val query = q(0.6)
    val a = ParCorr.edges(SparkTestData.tiles(values, query), query, d = 16, seed = 5L).collect().toSet
    val b = ParCorr.edges(SparkTestData.tiles(values, query), query, d = 16, seed = 5L).collect().toSet
    assert(a === b)
  }
}
