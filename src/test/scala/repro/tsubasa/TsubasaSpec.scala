package repro.tsubasa

import repro.{SparkSpec, SparkTestData}
import repro.core._
import repro.naive.NaiveCorr

class TsubasaSpec extends SparkSpec {

  private lazy val n = 5
  private lazy val len = 128
  private lazy val matrix = SparkTestData.panel(71L, n, len)
  private lazy val values = SparkTestData.toValuesDf(spark, matrix)

  private def q(beta: Double, step: Int = 8) =
    SlidingQuery(0L, len.toLong, windowLen = 32, step = step, beta = beta, bwSize = 8)

  for (beta <- Seq(-1.0, 0.0, 0.5, 0.8))
    test(s"TSUBASA equals naive exactly at beta=$beta (it is an exact method)") {
      val query = q(beta)
      val (edges, _) = Tsubasa.edges(Sketch.build(values, query), query)
      val got = edges.collect().map(e => (e.i, e.j, e.w) -> e.corr).toMap
      val expect = NaiveCorr.allCorrs(SparkTestData.tiles(values, query), query).collect()
        .filter(_.corr >= beta).map(e => (e.i, e.j, e.w) -> e.corr).toMap
      assert(got.keySet === expect.keySet)
      got.foreach { case (k, c) => assert(math.abs(c - expect(k)) < 1e-9) }
    }

  test("TSUBASA computes every pair-window (no skipping)") {
    val query = q(0.9)
    val (edges, stats) = Tsubasa.edges(Sketch.build(values, query), query)
    edges.count()
    val st = stats()
    assert(st.computedWindows === n.toLong * (n - 1) / 2 * query.numWindows)
    assert(st.skippedWindows === 0L)
  }

  test("TSUBASA and Dangoron agree wherever Dangoron evaluates") {
    val query = q(0.6)
    val sketches = Sketch.build(values, query)
    val (tEdges, _) = Tsubasa.edges(sketches, query)
    val (dEdges, _) = Dangoron.edges(sketches, query)
    val t = tEdges.collect().map(e => (e.i, e.j, e.w) -> e.corr).toMap
    dEdges.collect().foreach { e =>
      assert(t.contains((e.i, e.j, e.w)), "Dangoron reported an edge TSUBASA did not")
      assert(math.abs(t((e.i, e.j, e.w)) - e.corr) < 1e-9)
    }
  }

  test("TSUBASA with multi-bw step") {
    val query = q(-1.0, step = 16)
    val (edges, _) = Tsubasa.edges(Sketch.build(values, query), query)
    assert(edges.count() === n.toLong * (n - 1) / 2 * query.numWindows)
  }
}
