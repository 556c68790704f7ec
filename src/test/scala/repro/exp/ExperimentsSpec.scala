package repro.exp

import repro.SparkSpec
import repro.core.SlidingQuery
import repro.data.ClimateData

/** Smoke-tests the table harnesses at toy scale; the real runs live in the
  * bench project (one suite per reproduced table).
  */
class ExperimentsSpec extends SparkSpec {

  private lazy val values =
    ClimateData.hourly(spark, ClimateData.Spec(nStations = 6, hours = 24 * 30, nRegions = 2))
  private lazy val q =
    SlidingQuery(0L, 24L * 30, windowLen = 24 * 7, step = 24, beta = 0.7, bwSize = 24)

  test("table1 harness: rows for every framework × beta, sane speedups") {
    val rows = Experiments.table1(spark, values, q, betas = Seq(0.5, 0.9), runNaive = true)
    assert(rows.map(_.framework).toSet === Set("TSUBASA", "Dangoron", "Naive"))
    assert(rows.count(_.framework == "Dangoron") === 2)
    rows.foreach { r =>
      assert(r.seconds > 0.0)
      assert(r.edges >= 0L)
    }
    // TSUBASA and Dangoron agree on edge counts only if no skip misfired;
    // at minimum Dangoron never reports MORE edges than exact TSUBASA.
    for (beta <- Seq(0.5, 0.9)) {
      val t = rows.find(r => r.framework == "TSUBASA" && r.beta == beta).get
      val d = rows.find(r => r.framework == "Dangoron" && r.beta == beta).get
      assert(d.edges <= t.edges)
    }
    println(Experiments.printT1(rows))
  }

  test("table2 harness: accuracy metrics are well-formed and high") {
    val rows = Experiments.table2(spark, values, q, betas = Seq(0.7))
    assert(rows.size === 2)
    rows.foreach { r =>
      assert(r.accuracy >= 0.0 && r.accuracy <= 1.0)
      assert(r.precision >= 0.0 && r.precision <= 1.0)
      assert(r.recall >= 0.0 && r.recall <= 1.0)
      assert(r.accuracy > 0.8, s"${r.framework} accuracy ${r.accuracy}")
    }
    val dang = rows.find(_.framework == "Dangoron").get
    assert(dang.maxCorrErr < 1e-6, "Dangoron edge values must be exact")
    println(Experiments.printT2(rows))
  }

  test("table3 harness: one row per framework per spectrum") {
    val rows = Experiments.table3(spark, Experiments.tomborg(n = 8, len = 512), beta = 0.6,
      spectra = Experiments.defaultSpectra.take(2))
    assert(rows.size === 6)
    assert(rows.map(_.framework).toSet === Set("Dangoron", "TSUBASA", "ParCorr"))
    rows.filter(_.framework != "ParCorr").foreach { r =>
      assert(r.accuracy > 0.85, s"${r.spectrum}/${r.framework}: ${r.accuracy}")
    }
    println(Experiments.printT3(rows))
  }

  test("table4 harness: pruning counters are consistent") {
    val rows = Experiments.table4(spark, values, q, betas = Seq(0.5, 0.9))
    val nPairs = 6L * 5 / 2
    rows.foreach { r =>
      assert(r.computedWindows + r.skippedWindows === nPairs * q.numWindows)
      assert(r.horizPrunedPairs + r.horizComputedPairs === nPairs)
    }
    // higher beta must prune at least as much as lower beta
    assert(rows.last.skippedFrac >= rows.head.skippedFrac - 1e-9)
    println(Experiments.printT4(rows))
  }

  test("fmtTable renders aligned rows") {
    val s = Experiments.fmtTable("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(s.contains("| a  | bb |"))
    assert(s.contains("| 33 | 4  |"))
  }

  test("climateWorkload builds an aligned query") {
    val (v, query) = Experiments.climateWorkload(spark, Experiments.Table4.copy(n = 4, len = 24 * 40), beta = 0.5)
    assert(query.nS === 30 && query.s === 1)
    assert(v.count() === 4L * 24 * 40)
  }
}
