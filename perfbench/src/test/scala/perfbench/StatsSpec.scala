package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("tail needs more than ten samples") {
    assert(Stats.tail((1 to 10).map(_.toDouble)).isEmpty)
    assert(Stats.tail(Seq.empty).isEmpty)
  }

  test("tail is the highest percentile with ten samples beyond it") {
    val t11 = Stats.tail((1 to 11).map(_.toDouble).reverse).get
    assert(t11.value == 1.0 && t11.samples == 11)
    assert(math.abs(t11.percentile - 100.0 / 11) < 1e-12)

    val t100 = Stats.tail(scala.util.Random.shuffle((1 to 100).map(_.toDouble))).get
    assert(t100.value == 90.0 && t100.percentile == 90.0 && t100.samples == 100)

    val t1000 = Stats.tail((1 to 1000).map(_.toDouble)).get
    assert(t1000.value == 990.0 && t1000.percentile == 99.0)
  }

  test("exactly ten samples lie beyond the tail value") {
    val xs = Seq.tabulate(37)(i => (i * 7919 % 37).toDouble)
    val t = Stats.tail(xs).get
    assert(xs.count(_ > t.value) == 10)
  }
}
