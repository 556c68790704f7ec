package repro.core

import java.lang.Double.doubleToRawLongBits
import java.nio.ByteBuffer
import java.security.MessageDigest

import repro.SparkSpec
import repro.data.ClimateData
import repro.tsubasa.Tsubasa

/** Pins the bits every engine returns on one fixed climate panel: a SHA-256
  * over the sorted ``(i, j, w, raw corr bits)`` of the edges, then the
  * ``RunStats``. A change meant to keep every result bit for bit (a new
  * kernel, a new shuffle encoding) must leave each digest as it is. A change
  * meant to move the numbers, such as scale-relative variance floors,
  * updates the digests it moves and names them in CHANGES.md.
  */
class GoldenSpec extends SparkSpec {

  private val base = SlidingQuery(0L, 24L * 90, windowLen = 24 * 30, step = 24, beta = 0.7, bwSize = 24)

  /** ``<edge count>/<sha-256 hex>`` of the edges and the work counters. */
  private def digest(edges: Array[Edge], st: RunStats): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(20)
    edges.map(e => (e.i, e.j, e.w, doubleToRawLongBits(e.corr))).sorted.foreach { case (i, j, w, c) =>
      buf.clear(); md.update(buf.putInt(i).putInt(j).putInt(w).putLong(c).array)
    }
    md.update(ByteBuffer.allocate(16).putLong(st.computedWindows).putLong(st.skippedWindows).array)
    s"${edges.length}/" + md.digest().map(b => f"$b%02x").mkString
  }

  private val queries = for (beta <- Seq(0.5, 0.9); s <- Seq(1, 8)) yield base.copy(beta = beta, step = s * base.bwSize)

  private val want = Map(
    "run" -> "2569/3f4896c147039f6a219aaedeffb0da9c8dff6fd6dbf16df36328aa04c60e9e5a",
    "dangoron β0.5 s1" -> "4073/19562884794a3ffa68522877e9ca48d614ccd6e8d8530af25b30480ef5e342f1",
    "dangoron β0.5 s8" -> "573/b782fac90024c817f43f12de9f2c6e3a426500497e1508e0098f0c5ef2a21050",
    "dangoron β0.9 s1" -> "2193/b3026b5d15ae91bf77270dbc60619e30f9490d8c4508cc908cc2a44a1ce8641f",
    "dangoron β0.9 s8" -> "287/f720b35ae4eb7ae637a0ce8f16e030a8d7f4386546978740cadceaf0a3765df9",
    "tsubasa β0.5 s1" -> "4570/c8802f05eef5fc44a12be02b3099d6142b90e344552339afc3b141c1553a6b8f",
    "tsubasa β0.5 s8" -> "627/a54339bb623aa79497e3f583dc00102d0bbcd8d395bb0a13af8cca699efbb8f3",
    "tsubasa β0.9 s1" -> "2204/2d2402b767b81d204ce51b4f2d83e7f32240e2b12fdda058033eff6c2097d04c",
    "tsubasa β0.9 s8" -> "287/de3a9da9552d78bf1cb6a63e41db6ccedd82dee62b3721c055495c68cef5e22f")

  test("Dangoron.run, and Dangoron.edges and Tsubasa.edges over Sketch.build, give their pinned bits") {
    val got = Map.newBuilder[String, String]
    val values = ClimateData.hourly(spark, ClimateData.Spec(nStations = 30, hours = 24 * 90, seed = 16L)).persist()
    val sk = Sketch.build(values, base).persist()
    try {
      val (runEdges, runStats) = Dangoron.run(values, base)
      got += "run" -> digest(runEdges.collect(), runStats())
      for (q <- queries; (name, engine) <- Seq("dangoron" -> Dangoron.edges _, "tsubasa" -> Tsubasa.edges _)) {
        val (edges, stats) = engine(sk, q)
        got += s"$name β${q.beta} s${q.s}" -> digest(edges.collect(), stats())
      }
    } finally { sk.unpersist(); values.unpersist() }
    val g = got.result()
    assert(g === want, g.toSeq.sorted.map { case (k, v) => s"\"$k\" -> \"$v\"" }.mkString("\n", ",\n", "\n"))
  }
}
