package repro.bench

import repro.SparkSpec
import repro.exp.Experiments

/** Table 4 — pruning power: where Table 1's speedup comes from. Reports
  * the fraction of pair-windows the Eq. 2 jumps eliminated and the pairs
  * removed by horizontal (triangle) pruning at the first window.
  */
class Table4PruningBench extends SparkSpec {

  test("Table 4: Eq.2 skip fraction and horizontal pruning") {
    val (values, q) = Experiments.climateWorkload(spark, Experiments.Table4, beta = 0.7)
    val rows = Experiments.table4(spark, values, q, betas = Seq(0.5, 0.7, 0.9))
    println(Experiments.printT4(rows))
    // skip fraction must grow with beta and be substantial at high beta
    assert(rows.map(_.skippedFrac) === rows.map(_.skippedFrac).sorted,
      "skip fraction should be monotone in beta")
    assert(rows.last.skippedFrac > 0.5,
      s"at beta=0.9 most pair-windows should be skipped, got ${rows.last.skippedFrac}")
  }
}
