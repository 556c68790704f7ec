package repro.data

import repro.SparkSpec
import repro.core.PairMath

class ClimateDataSpec extends SparkSpec {

  private lazy val spec = ClimateData.Spec(nStations = 8, hours = 24 * 60, nRegions = 2, seed = 3L)
  private lazy val matrix = ClimateData.hourlyLocal(spec)

  test("local generation shape") {
    assert(matrix.length === spec.nStations)
    assert(matrix.forall(_.length === spec.hours))
  }

  test("deterministic in the spec") {
    val m2 = ClimateData.hourlyLocal(spec)
    for (sid <- matrix.indices; t <- 0 until 100)
      assert(matrix(sid)(t) === m2(sid)(t))
  }

  test("different seeds differ") {
    val other = ClimateData.hourlyLocal(spec.copy(seed = 4L))
    assert(matrix(0).indices.exists(t => matrix(0)(t) != other(0)(t)))
  }

  test("distributed DataFrame equals the local matrix") {
    val df = ClimateData.hourly(spark, spec)
    assert(df.count() === spec.nStations.toLong * spec.hours)
    val rows = df.collect()
    rows.foreach { r =>
      val sid = r.getInt(0); val t = r.getLong(1); val v = r.getDouble(2)
      assert(v === matrix(sid)(t.toInt), s"sid=$sid t=$t")
    }
  }

  test("same-region pairs are more correlated than cross-region pairs") {
    def corr(i: Int, j: Int) = PairMath.directPearson(matrix(i), matrix(j), 0, matrix(i).length)
    val same = for {
      i <- matrix.indices; j <- (i + 1) until matrix.length
      if spec.regionOf(i) == spec.regionOf(j)
    } yield corr(i, j)
    val cross = for {
      i <- matrix.indices; j <- (i + 1) until matrix.length
      if spec.regionOf(i) != spec.regionOf(j)
    } yield corr(i, j)
    val avgSame = same.sum / same.size
    val avgCross = cross.sum / cross.size
    assert(avgSame > avgCross + 0.05,
      s"same-region avg $avgSame should exceed cross-region avg $avgCross")
  }

  test("same-region correlation is high (paper's climate-network regime)") {
    val same = for {
      i <- matrix.indices; j <- (i + 1) until matrix.length
      if spec.regionOf(i) == spec.regionOf(j)
    } yield PairMath.directPearson(matrix(i), matrix(j), 0, matrix(i).length)
    assert(same.sum / same.size > 0.5)
  }

  test("correlations drift across sliding windows (non-trivial dynamics)") {
    val i = 0; val j = 1 // same region
    val window = 24 * 14
    val corrs = (0 until 3).map(w =>
      PairMath.directPearson(matrix(i), matrix(j), w * 24 * 14, window))
    assert(corrs.max - corrs.min > 1e-4, "correlation must move across windows")
  }

  test("diurnal cycle present: lag-24 autocorrelation is positive") {
    val x = matrix(0)
    val base = x.drop(24).zip(x.dropRight(24))
    val a = base.map(_._1).toArray
    val b = base.map(_._2).toArray
    assert(PairMath.directPearson(a, b, 0, a.length) > 0.3)
  }

  test("regionOf partitions stations contiguously") {
    assert((0 until 8).map(spec.regionOf) === Seq(0, 0, 0, 0, 1, 1, 1, 1))
  }

  test("spec validation") {
    intercept[IllegalArgumentException] { ClimateData.Spec(0, 10) }
    intercept[IllegalArgumentException] { ClimateData.Spec(4, 10, nRegions = 5) }
  }
}
