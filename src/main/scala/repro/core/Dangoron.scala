package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.util.LongAccumulator

/** Work counters for one Dangoron (or TSUBASA) run. Valid only after an
  * action has materialized the edges.
  */
final case class RunStats(computedWindows: Long, skippedWindows: Long) {
  def totalWindows: Long = computedWindows + skippedWindows
  def skippedFraction: Double =
    if (totalWindows == 0) 0.0 else skippedWindows.toDouble / totalWindows
}

/** An engine's query edges: the RDD and the two actions every caller takes on it. */
final class Edges(val rdd: RDD[Edge]) {
  def count(): Long = rdd.count()
  def collect(): Array[Edge] = rdd.collect()
}

/** An engine's work counters: accumulators ``<name>.computedWindows`` and ``<name>.skippedWindows``, added to in the
  * tasks and read on the driver after an action.
  */
private[repro] final case class Work(computed: LongAccumulator, skipped: LongAccumulator) {
  def add(c: Long, s: Long): Unit = { computed.add(c); skipped.add(s) }
  def stats: () => RunStats = () => RunStats(computed.value, skipped.value)
}

private[repro] object Work {
  def apply(sc: SparkContext, name: String): Work =
    Work(sc.longAccumulator(s"$name.computedWindows"), sc.longAccumulator(s"$name.skippedWindows"))
}

/** Dangoron on Spark: the per-pair jump sweep parallelized across the
  * N(N−1)/2 pairs as a narrow ``flatMap`` over the tiles of the pair grid,
  * each task sweeping the pairs of its tile. Pairs are independent, so this
  * is the natural distribution axis; Spark accumulators surface how much
  * work the Eq. 2 jumps eliminated.
  */
object Dangoron {

  /** Edges (corr ≥ β) plus a stats thunk (read it after an action). Persist ``sketches`` before its
    * first query: Spark plans a Dataset's ``rdd`` once, so a later persist would not be read.
    */
  def edges(sketches: Dataset[PairSketch], q: SlidingQuery): (Edges, () => RunStats) = {
    val work = Work(sketches.sparkSession.sparkContext, "dangoron")
    val b = q.bwSize
    val edges = sketches.rdd.flatMap { row =>
      val pairs = row.cursor(q)
      new TileEdges(row.sid, row.mean.indices.map(s => new PairMath.Series(row.mean(s), row.m2(s), b)).toArray, pairs, q, work)
    }
    (new Edges(edges), work.stats)
  }

  /** Raw values → tiles → edges as one RDD pipeline that builds no sketch row and encodes nothing: each tile task
    * sweeps its pairs as [[TilePairs]] yields them, and a count is one Spark job.
    */
  def run(values: DataFrame, q: SlidingQuery): (RDD[Edge], () => RunStats) = {
    val tiles = Sketch.pairStats(Sketch.segments(values, q))
    val work = Work(tiles.sparkContext, "dangoron")
    val b = q.bwSize
    val edges = tiles.flatMap { tile =>
      val s = tile.series
      new TileEdges(s.map(_.sid), s.map(r => new PairMath.Series(Sketch.centered(r.mean), r.m2, b)), new TilePairs(tile, q), q, work)
    }
    (edges, work.stats)
  }

  /** The edges of one tile's pairs, lazily, pair by pair: each pair's terms filled into one reused
    * [[PairMath.Prefix]] over its series' prefixes, then walked by [[Sweep.Jumps]]; each pair's work is
    * added to ``work`` once its windows are done.
    */
  private final class TileEdges(sid: Array[Int], series: Array[PairMath.Series], pairs: PairCursor, q: SlidingQuery,
                                work: Work) extends Iterator[Edge] {
    private val pre = new PairMath.Prefix
    private val jumps = new Sweep.Jumps(q)
    private var inPair = false
    private var i, j = 0 // the current pair's sids
    private var w = -2 // the next edge's window; −1 once the tile is done, −2 until sought

    def hasNext: Boolean = { if (w == -2) w = seek(); w >= 0 }

    def next(): Edge = {
      if (!hasNext) throw new NoSuchElementException("no edge left in the tile")
      val e = Edge(i, j, w, jumps.corr)
      w = -2
      e
    }

    private def seek(): Int = {
      var at = -1
      var more = true
      while (at < 0 && more) {
        if (inPair) {
          at = jumps.next()
          if (at < 0) { work.add(jumps.computed, jumps.skipped); inPair = false }
        } else if (pairs.advance()) {
          i = sid(pairs.x); j = sid(pairs.y)
          jumps.start(pre.fill(series(pairs.x), series(pairs.y), pairs.cp, q.bwSize))
          inPair = true
        } else more = false
      }
      at
    }
  }
}
