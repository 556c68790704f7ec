package repro.exp

import repro.SparkSpec
import repro.core.Edge

class MetricsSpec extends SparkSpec {

  private def rdd(edges: Edge*) = spark.sparkContext.parallelize(edges)

  test("perfect prediction") {
    val truth = rdd(Edge(0, 1, 0, 0.9), Edge(0, 1, 1, 0.8), Edge(0, 2, 0, 0.3))
    val pred = rdd(Edge(0, 1, 0, 0.9), Edge(0, 1, 1, 0.8))
    val acc = Metrics.compare(pred, truth, beta = 0.5, totalPairWindows = 6)
    assert(acc.tp === 2 && acc.fp === 0 && acc.fn === 0)
    assert(acc.precision === 1.0 && acc.recall === 1.0 && acc.f1 === 1.0)
    assert(acc.accuracy === 1.0)
  }

  test("false negative counted") {
    val truth = rdd(Edge(0, 1, 0, 0.9), Edge(0, 1, 1, 0.8))
    val pred = rdd(Edge(0, 1, 0, 0.9))
    val acc = Metrics.compare(pred, truth, beta = 0.5, totalPairWindows = 4)
    assert(acc.tp === 1 && acc.fn === 1 && acc.fp === 0)
    assert(acc.recall === 0.5)
    assert(acc.accuracy === 0.75) // 1 TP + 2 TN of 4
  }

  test("false positive counted") {
    val truth = rdd(Edge(0, 1, 0, 0.9))
    val pred = rdd(Edge(0, 1, 0, 0.9), Edge(0, 2, 0, 0.7))
    val acc = Metrics.compare(pred, truth, beta = 0.5, totalPairWindows = 4)
    assert(acc.tp === 1 && acc.fp === 1 && acc.fn === 0)
    assert(acc.precision === 0.5)
    // Predictions that differ from a truth edge only in i, only in j or only in w miss it.
    val offByOne = Metrics.compare(rdd(Edge(1, 2, 0, 0.9), Edge(0, 3, 0, 0.9), Edge(0, 2, 1, 0.9)),
      rdd(Edge(0, 2, 0, 0.9)), beta = 0.5, totalPairWindows = 4)
    assert(offByOne.tp === 0 && offByOne.fp === 3 && offByOne.fn === 1)
  }

  test("truth below beta is thresholded away inside compare") {
    val truth = rdd(Edge(0, 1, 0, 0.4)) // below beta: not a true edge
    val pred = rdd()
    val acc = Metrics.compare(pred, truth, beta = 0.5, totalPairWindows = 1)
    assert(acc.tp === 0 && acc.fn === 0 && acc.fp === 0)
    assert(acc.accuracy === 1.0)
  }

  test("maxCorrErrOnHits measures value drift on true positives") {
    val truth = rdd(Edge(0, 1, 0, 0.90))
    val pred = rdd(Edge(0, 1, 0, 0.82))
    val acc = Metrics.compare(pred, truth, beta = 0.5, totalPairWindows = 1)
    assert(math.abs(acc.maxCorrErrOnHits - 0.08) < 1e-9)
  }

  test("maxCorrErrOnHits is the largest error over hits spread across partitions") {
    val truth = (0 until 9).map(w => Edge(0, 1, w, 0.75))
    val pred = (0 until 9).map(w => Edge(0, 1, w, 0.75 - (w + 1) / 64.0))
    val acc = Metrics.compare(spark.sparkContext.parallelize(pred, 3), spark.sparkContext.parallelize(truth, 3),
      beta = 0.5, totalPairWindows = 9)
    assert(acc.tp === 9 && acc.fp === 0 && acc.fn === 0)
    assert(acc.maxCorrErrOnHits === 9 / 64.0)
  }

  test("empty prediction and truth") {
    val acc = Metrics.compare(rdd(), rdd(), beta = 0.5, totalPairWindows = 10)
    assert(acc.accuracy === 1.0 && acc.precision === 1.0 && acc.recall === 1.0)
  }

  test("degenerate zero pair-windows") {
    val acc = Metrics.compare(rdd(), rdd(), beta = 0.5, totalPairWindows = 0)
    assert(acc.accuracy === 1.0)
  }
}
