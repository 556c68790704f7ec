package perfbench

import java.io.File

import scala.jdk.CollectionConverters._

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {

  private val all = Metrics.endToEnd ++ Metrics.perLayer

  test("every metric name and unit is valid and each name is used once") {
    all.foreach { case (n, u) =>
      assert(Metrics.validName(n), s"bad name $n")
      assert(Metrics.validUnit(u), s"bad unit $u for $n")
    }
    assert(all.map(_._1).distinct.length == all.length)
  }

  test("the name rule rejects what the result format does not allow") {
    Seq("", "_x", ".x", "a b", "a/b", "x" * 65, "é").foreach(n => assert(!Metrics.validName(n), n))
    Seq("", "m s", "x" * 17).foreach(u => assert(!Metrics.validUnit(u), u))
    assert(Metrics.validName("0" + "x" * 63))
  }

  test("BENCHMARK.json declares exactly the metrics the benchmark emits") {
    val root = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    def declared(key: String): Seq[(String, String)] =
      root.get(key).elements().asScala.map(m => m.get("name").asText() -> m.get("unit").asText()).toSeq
    assert(declared("end_to_end") == Metrics.endToEnd)
    assert(declared("per_layer") == Metrics.perLayer)
    assert(root.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq == Workloads.names)
  }

  test("select keeps the declared order and rejects a missing or extra metric") {
    val declared = Seq("b" -> "s", "a" -> "count")
    assert(Metrics.select(declared, Map("a" -> 1.0, "b" -> 2.0)).map(_.name) == Seq("b", "a"))
    assertThrows[IllegalArgumentException](Metrics.select(declared, Map("a" -> 1.0)))
    assertThrows[IllegalArgumentException](Metrics.select(declared, Map("a" -> 1.0, "b" -> 2.0, "c" -> 3.0)))
    assertThrows[IllegalArgumentException](Metrics.select(declared, Map("a" -> 1.0, "b" -> Double.NaN)))
  }
}
