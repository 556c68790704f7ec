package repro.core

import java.nio.{ByteBuffer, ByteOrder}

import scala.collection.mutable

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.{PartitionPruningRDD, RDD}
import org.apache.spark.sql.{DataFrame, Dataset, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.classic.ClassicConversions.castToImpl
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType}

/** The readings one input partition holds for series ``sid``: ``vals(r)`` is
  * step ``steps(r)`` of the query range, in the partition's row order, so a
  * span's size is its reading count whatever the input layout. ``index``
  * holds every reading's step, or, when the steps are consecutive, only the
  * first. It carries what a tile needs of the query: its ``start``, length
  * ``len`` and basic-window size ``bwSize``.
  */
final case class Span(sid: Int, index: Array[Int], vals: Array[Double], start: Long, len: Int, bwSize: Int) {
  require(index.length == 1 || index.length == vals.length, s"span of sid=$sid: ${index.length} steps for ${vals.length} readings")

  /** Whether the readings are at the consecutive steps ``index(0), index(0) + 1, …``. */
  def contiguous: Boolean = index.length == 1

  /** Every reading's step, in the span's order. */
  def steps: Array[Int] = if (contiguous) Array.range(index(0), index(0) + vals.length) else index

  /** Java serialization writes a span as [[Span.Wire]]: Kryo reads the fields and never calls this. */
  private def writeReplace(): AnyRef = {
    val block = ByteBuffer.allocate(4 * index.length + 8 * vals.length).order(ByteOrder.LITTLE_ENDIAN)
    block.asIntBuffer.put(index)
    block.position(4 * index.length).asDoubleBuffer.put(vals) // the view starts at the position, in the buffer's order
    new Span.Wire(sid, index.length, start, len, bwSize, block.array)
  }
}

object Span {
  /** A span under Java serialization: its ``nIndex`` steps, then its values,
    * in one little-endian block, which the stream copies whole instead of
    * element by element: 8 bytes a reading for consecutive steps, else 12.
    */
  @SerialVersionUID(2L)
  private final class Wire(sid: Int, nIndex: Int, start: Long, len: Int, bwSize: Int, block: Array[Byte]) extends Serializable {
    private def readResolve(): AnyRef = {
      val (index, vals) = (new Array[Int](nIndex), new Array[Double]((block.length - 4 * nIndex) / 8))
      val buf = ByteBuffer.wrap(block).order(ByteOrder.LITTLE_ENDIAN)
      buf.asIntBuffer.get(index)
      buf.position(4 * nIndex).asDoubleBuffer.get(vals)
      Span(sid, index, vals, start, len, bwSize)
    }
  }

  /** One input partition's readings folded into one span per series, a row at a time (see [[Sketch.segments]]). */
  private[core] final class Fold(start: Long, end: Long, b: Int) {
    private val held = mutable.LongMap.empty[Builder]
    private var lastSid = 0
    private var last: Builder = null // the last sid's builder: one lookup per run of a series, not per reading

    def add(r: InternalRow): Unit = { // a null t would read as 0
      require(!r.isNullAt(1), s"null reading at sid=${sidOf(r)}, t=null")
      val t = r.getLong(1)
      if (t >= start && t < end) {
        require(!r.isNullAt(0) && !r.isNullAt(2), s"null reading at sid=${sidOf(r)}, t=$t")
        val v = r.getDouble(2)
        val sid = r.getInt(0)
        require(!v.isNaN && !v.isInfinite, s"non-finite value $v at sid=$sid, t=$t")
        if (last == null || sid != lastSid) { last = held.getOrElseUpdate(sid, new Builder); lastSid = sid }
        last.add((t - start).toInt, v)
      }
    }

    def spans: Iterator[Span] = held.iterator.map { case (sid, span) => span.result(sid.toInt, start, (end - start).toInt, b) }

    private def sidOf(r: InternalRow) = if (r.isNullAt(0)) "null" else r.getInt(0)
  }

  /** One series' readings in one input partition as they arrive: steps are
    * kept one by one only once they stop being consecutive.
    */
  private final class Builder {
    private val vals = new mutable.ArrayBuilder.ofDouble
    private var steps: mutable.ArrayBuilder.ofInt = null
    private var first, next = -1

    def add(u: Int, v: Double): Unit = {
      if (steps != null) steps += u
      else if (first < 0) { first = u; next = u + 1 }
      else if (u == next) next += 1
      else { steps = new mutable.ArrayBuilder.ofInt; (first until next).foreach(steps += _); steps += u }
      vals += v
    }

    def result(sid: Int, start: Long, len: Int, bwSize: Int): Span =
      Span(sid, if (steps == null) Array(first) else steps.result(), vals.result(), start, len, bwSize)
  }
}

/** One series' values over the query range, with each basic window's mean and m2. */
final case class SeriesRow(sid: Int, vals: Array[Double], mean: Array[Double], m2: Array[Double])

/** Tile ``(bi ≤ bj)`` of the all-pairs grid: the series of blocks ``bi`` and
  * ``bj`` by sid, ``blockJ`` empty on the diagonal.
  */
final case class Tile(bi: Int, bj: Int, blockI: Array[SeriesRow], blockJ: Array[SeriesRow]) {

  /** The tile's series, block I then block J. */
  def series: Array[SeriesRow] = blockI ++ blockJ

  /** Every pair of the tile once, lower sid first, as indices into
    * [[series]], emitted lazily: the one pair order of the grid.
    */
  def pairIndices: Iterator[(Int, Int)] = {
    val (s, n) = (series, blockI.length)
    if (bi == bj) for (x <- (0 until n).iterator; y <- (x + 1 until n).iterator) yield (x, y)
    else for (x <- (0 until n).iterator; y <- (n until s.length).iterator) yield if (s(x).sid < s(y).sid) (x, y) else (y, x)
  }

  /** Every pair of the tile once, as [[pairIndices]] orders them. */
  def pairs: Iterator[(SeriesRow, SeriesRow)] = { val s = series; pairIndices.map { case (x, y) => (s(x), s(y)) } }
}

/** The basic-window sketch substrate, shared by Dangoron and TSUBASA.
  *
  * Input contract throughout: a long-format DataFrame with columns ``sid``
  * (int), ``t`` (long), ``v`` (double), one finite reading per series and time
  * step of the query range. Construction tiles the pair space as ParCorr does,
  * with one shuffle: [[segments]] folds each input partition's readings into
  * one span per series, in place, 8 bytes a reading for consecutive steps
  * and 12 for scattered ones; [[pairStats]] shuffles each span once, to the
  * partition of its block ``sid % k``, where the spans of a series merge
  * into its row with its basic-window stats, and forms each tile, one per
  * partition, from the partitions of its blocks; [[TilePairs]] walks a
  * tile's pairs with their cross products, which ``Dangoron.run`` sweeps as
  * they come and [[rows]] stores as one sketch row per tile. The tiles are
  * the one pair grid: NaiveCorr and ParCorr read them too. Spans, tiles and rows are RDDs, each
  * stage handing its objects to the next: only sketch rows that queries
  * cache are encoded, as a Dataset, by [[pairSketches]] and [[build]].
  */
object Sketch {

  /** Series blocks ``k``: the least giving two tiles per core, so that tiles of unequal size balance. */
  private[core] def blockCount(parallelism: Int): Int =
    Iterator.from(1).find(k => k * (k + 1) / 2 >= 2 * parallelism).get

  /** One span per (input partition, series) with the readings that partition holds of the series in the query range,
    * filtered here so that one plan of the input serves every query; no shuffle. A null sid, t or value, or a NaN or
    * infinite value, fails with an IllegalArgumentException naming sid and t.
    */
  def segments(values: DataFrame, q: SlidingQuery): RDD[Span] = {
    val start = q.start; val end = q.end; val b = q.bwSize
    inputRows(values).mapPartitions { rows => val fold = new Span.Fold(start, end, b); rows.foreach(fold.add); fold.spans }
  }

  /** The rows of ``values`` as ``(sid int, t long, v double)``: through the DataFrame's own plan, made once, if it has
    * that schema and the plan reads its cache as it stands now (one made before a ``persist`` misses the cache, one made
    * before an ``unpersist`` refills a copy that nothing frees); else through a fresh plan casting the columns.
    */
  private def inputRows(values: DataFrame): RDD[InternalRow] = {
    val (own, cache) = (values.queryExecution, castToImpl(values.sparkSession).sharedState.cacheManager)
    def scans = cache.collect(own.executedPlan) { case s: InMemoryTableScanExec => s.relation.cacheBuilder } // walks adaptive plans too
    def cached = cache.lookupCachedData(castToImpl(values)).map(_.cachedRepresentation.cacheBuilder).toSeq
    if (values.schema.map(f => f.name -> f.dataType) == Seq("sid" -> IntegerType, "t" -> LongType, "v" -> DoubleType) &&
        scans.corresponds(cached)(_ eq _)) own.toRdd
    else values.select(col("sid").cast("int"), col("t").cast("long"), col("v").cast("double")).queryExecution.toRdd
  }

  /** One tile of the all-pairs grid per partition. The build's one shuffle
    * sends each span once, to its block's partition, where the spans of each
    * series merge into its row; tile ``(bi ≤ bj)`` reads blocks ``bi`` and
    * ``bj`` through narrow dependencies, a diagonal tile its one block once.
    * A reading held twice, in one span or in two, or a step of the query
    * range held by none, fails with an IllegalArgumentException naming sid
    * and t.
    */
  def pairStats(spans: RDD[Span]): RDD[Tile] = {
    val k = blockCount(spans.sparkContext.defaultParallelism)
    val blocks = spans
      .keyBy(s => Math.floorMod(s.sid, k))
      .partitionBy(new HashPartitioner(k)) // an Int key b hashes to partition b
      .mapPartitionsWithIndex { (b, held) =>
        Iterator(b -> held.map(_._2).toSeq.groupBy(_.sid).map { case (sid, ss) => merge(sid, ss) }.toArray.sortBy(_.sid))
      }
    // The off-diagonal tiles first, so that the larger tasks start first. Partition p of the product reads blocks p / k and p % k.
    PartitionPruningRDD.create(blocks.cartesian(blocks), p => p / k < p % k)
      .map { case ((bi, blockI), (bj, blockJ)) => Tile(bi, bj, blockI, blockJ) }
      .union(blocks.map { case (b, block) => Tile(b, b, block, Array.empty[SeriesRow]) })
  }

  /** One sketch row per tile with a pair: its series' stats once, means
    * [[centered]], and the cross products of each of its pairs, from the
    * kernel the run path sweeps ([[TilePairs]]).
    */
  def rows(tiles: RDD[Tile], q: SlidingQuery): RDD[PairSketch] = tiles.flatMap { tile =>
    val s = tile.series
    val pairs = new TilePairs(tile, q)
    val (x, y, cp) = (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofInt, mutable.ArrayBuilder.make[Array[Double]])
    while (pairs.advance()) { x += pairs.x; y += pairs.y; cp += pairs.cp.clone() }
    Option.when(cp.length > 0)(PairSketch(q.start, q.bwSize, s.map(_.sid), s.map(r => centered(r.mean)), s.map(_.m2),
      x.result(), y.result(), cp.result()))
  }

  /** The [[rows]] encoded as a Dataset, for callers that cache them. */
  def pairSketches(tiles: RDD[Tile], q: SlidingQuery): Dataset[PairSketch] =
    SparkSession.active.createDataset(rows(tiles, q))(Encoders.product[PairSketch])

  /** Build the sketch rows straight from raw values. */
  def build(values: DataFrame, q: SlidingQuery): Dataset[PairSketch] =
    pairSketches(pairStats(segments(values, q)), q)

  /** Series ``sid`` from its spans: dense values over the query range and each basic window's stats. A series held
    * by one span of consecutive steps over the whole range keeps that span's values as they are.
    */
  private def merge(sid: Int, spans: Seq[Span]): SeriesRow = {
    val Span(_, index, whole, start, len, b) = spans.head
    val vals = if (spans.lengthCompare(1) == 0 && index.length == 1 && index(0) == 0 && whole.length == len) whole else gather(sid, spans)
    val (mean, m2) = (new Array[Double](len / b), new Array[Double](len / b))
    var t = 0
    while (t < mean.length) {
      val stats = meanM2(vals, t * b, (t + 1) * b)
      mean(t) = stats._1; m2(t) = stats._2
      t += 1
    }
    SeriesRow(sid, vals, mean, m2)
  }

  /** Series ``sid``'s dense values from several spans: a span of consecutive steps copied whole, a scattered one reading
    * by reading. A reading held twice or a step held by none fails, naming sid and t.
    */
  private def gather(sid: Int, spans: Seq[Span]): Array[Double] = {
    val Span(_, _, _, start, len, _) = spans.head
    val vals = new Array[Double](len)
    java.util.Arrays.fill(vals, Double.NaN) // NaN: no reading yet (NaN readings are rejected)
    def unheld(u: Int): Unit = require(vals(u).isNaN, s"duplicate reading at sid=$sid, t=${start + u}")
    for (s <- spans) {
      if (s.contiguous) {
        val from = s.index(0)
        var u = from
        while (u < from + s.vals.length) { unheld(u); u += 1 }
        System.arraycopy(s.vals, 0, vals, from, s.vals.length)
      } else {
        var r = 0
        while (r < s.index.length) { val u = s.index(r); unheld(u); vals(u) = s.vals(r); r += 1 }
      }
    }
    var hole = 0
    while (hole < len && !vals(hole).isNaN) hole += 1
    require(hole == len, s"missing reading at sid=$sid, t=${start + hole}")
    vals
  }

  /** Basic-window means less the series' mean over the query range, alike in every tile: Eq. 1
    * is shift-invariant, and centered means keep its sums from cancelling on data far from zero.
    */
  def centered(mean: Array[Double]): Array[Double] = { val c = mean.sum / mean.length; mean.map(_ - c) }

  /** Per basic window ``t`` of ``dx``'s, ``c(t) = Σ dx(u)·dy(u)`` over its ``b`` steps, ascending. */
  private[core] def cross1(dx: Array[Double], dy: Array[Double], c: Array[Double], b: Int): Unit = {
    var t, u = 0
    while (t < c.length) {
      var a = 0.0
      val end = u + b
      while (u < end) { a += dx(u) * dy(u); u += 1 }
      c(t) = a
      t += 1
    }
  }

  /** [[cross1]] for four partners of ``dx`` in one pass over it, each sum in [[cross1]]'s order. */
  private[core] def cross4(dx: Array[Double], d0: Array[Double], d1: Array[Double], d2: Array[Double], d3: Array[Double],
                           c0: Array[Double], c1: Array[Double], c2: Array[Double], c3: Array[Double], b: Int): Unit = {
    var t, u = 0
    while (t < c0.length) {
      var a0, a1, a2, a3 = 0.0
      val end = u + b
      while (u < end) {
        val v = dx(u)
        a0 += v * d0(u); a1 += v * d1(u); a2 += v * d2(u); a3 += v * d3(u)
        u += 1
      }
      c0(t) = a0; c1(t) = a1; c2(t) = a2; c3(t) = a3
      t += 1
    }
  }

  /** Each value less its basic window's mean: the factors of every cross product of the series. */
  private[core] def deviations(s: SeriesRow, b: Int): Array[Double] = {
    val d = new Array[Double](s.mean.length * b)
    var t = 0
    while (t < s.mean.length) {
      val m = s.mean(t)
      var u = t * b
      while (u < (t + 1) * b) { d(u) = s.vals(u) - m; u += 1 }
      t += 1
    }
    d
  }

  /** Mean and centered sum of squares of ``vals(from until until)``, summed in index order. */
  def meanM2(vals: Array[Double], from: Int, until: Int): (Double, Double) = {
    var s = 0.0
    var u = from
    while (u < until) { s += vals(u); u += 1 }
    val mean = s / (until - from)
    var m2 = 0.0
    u = from
    while (u < until) { val d = vals(u) - mean; m2 += d * d; u += 1 }
    (mean, m2)
  }
}

/** A tile's pairs in [[Tile.pairIndices]] order, walked in place. Each series'
  * [[Sketch.deviations]] are computed once; a pass over one series then
  * yields the cross products of it and its next four partners at once
  * ([[Sketch.cross4]], the last one to three by [[Sketch.cross1]]), into
  * buffers the passes reuse, so a pair's ``cp`` holds until the pass after
  * its own.
  */
private[core] final class TilePairs(tile: Tile, q: SlidingQuery) extends PairCursor {
  private val s = tile.series
  private val nI = tile.blockI.length
  private val dev = s.map(Sketch.deviations(_, q.bwSize))
  private val buf = Array.fill(4)(new Array[Double](q.nBw))
  private var from = 0 // the series whose partners a pass walks, from partner ``next`` on
  private var next = firstPartner(0)
  private var first, inPass, k = 0 // the current pass's first partner and pair count; the current pair
  var x, y = 0

  def cp: Array[Double] = buf(k)

  def advance(): Boolean = {
    k += 1
    if (k >= inPass && !pass()) false
    else {
      val p = first + k
      if (s(from).sid < s(p).sid) { x = from; y = p } else { x = p; y = from }
      true
    }
  }

  /** A diagonal tile pairs a series with the later series of its block; an off-diagonal one with block J. */
  private def firstPartner(x: Int): Int = if (tile.bi == tile.bj) x + 1 else nI

  /** The cross products of series ``from`` and its next partners, up to four; false once the tile has no pair left. */
  private def pass(): Boolean = {
    while (from < nI && next >= s.length) { from += 1; next = firstPartner(from) }
    from < nI && {
      first = next; inPass = math.min(4, s.length - next); k = 0
      val d = dev(from)
      if (inPass == 4)
        Sketch.cross4(d, dev(first), dev(first + 1), dev(first + 2), dev(first + 3), buf(0), buf(1), buf(2), buf(3), q.bwSize)
      else for (p <- 0 until inPass) Sketch.cross1(d, dev(first + p), buf(p), q.bwSize)
      next += inPass
      true
    }
  }
}
