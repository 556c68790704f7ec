package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Table 2 — accuracy: Dangoron vs ParCorr against the exact result.
  *
  * Paper claim: Dangoron "achieves an accuracy above 90 percent,
  * comparable to Parcorr". Truth is the naive exact sweep (itself
  * oracle-checked against DuckDB in the unit suite). Workload:
  * [[Experiments.Table2]].
  */
class Table2AccuracyBench extends SparkSpec {

  test("Table 2: pair-window accuracy vs exact") {
    val (values, q) = Experiments.climateWorkload(spark, Experiments.Table2, beta = 0.7)
    val rows = Experiments.table2(spark, values, q, betas = Seq(0.5, 0.7, 0.9))
    println(Experiments.printT2(rows))
    rows.filter(_.framework == "Dangoron").foreach { r =>
      assert(r.accuracy > 0.9, s"Dangoron accuracy ${r.accuracy} at beta=${r.beta} — paper claims >90%")
      assert(r.maxCorrErr < 1e-6, "Dangoron reported edge values must be exact")
      assert(r.precision > 0.99, "Dangoron edges are exact computations — precision ~1")
    }
    rows.filter(_.framework.startsWith("ParCorr")).foreach { r =>
      assert(r.accuracy > 0.85, s"ParCorr accuracy ${r.accuracy} at beta=${r.beta}")
    }
  }
}
