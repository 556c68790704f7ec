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
  * span's size is its reading count whatever the input layout. It carries
  * what a tile needs of the query: its ``start``, length ``len`` and
  * basic-window size ``bwSize``.
  */
final case class Span(sid: Int, steps: Array[Int], vals: Array[Double], start: Long, len: Int, bwSize: Int) {
  /** Java serialization writes a span as [[Span.Wire]]: Kryo reads the fields and never calls this. */
  private def writeReplace(): AnyRef = {
    val block = ByteBuffer.allocate(12 * steps.length).order(ByteOrder.LITTLE_ENDIAN)
    block.asIntBuffer.put(steps)
    block.position(4 * steps.length).asDoubleBuffer.put(vals) // the view starts at the position, in the buffer's order
    new Span.Wire(sid, start, len, bwSize, block.array)
  }
}

object Span {
  /** A span under Java serialization: its steps, then its values, in one
    * little-endian block of 12 bytes a reading, which the stream copies
    * whole instead of element by element.
    */
  @SerialVersionUID(1L)
  private final class Wire(sid: Int, start: Long, len: Int, bwSize: Int, block: Array[Byte]) extends Serializable {
    private def readResolve(): AnyRef = {
      val n = block.length / 12
      val (steps, vals) = (new Array[Int](n), new Array[Double](n))
      val buf = ByteBuffer.wrap(block).order(ByteOrder.LITTLE_ENDIAN)
      buf.asIntBuffer.get(steps)
      buf.position(4 * n).asDoubleBuffer.get(vals)
      Span(sid, steps, vals, start, len, bwSize)
    }
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
  * one span per series, in place, about 12 bytes a reading whatever the
  * input layout; [[pairStats]] shuffles each span once, to the partition of
  * its block ``sid % k``, where the spans of a series merge into its row
  * with its basic-window stats, and forms each tile, one per partition,
  * from the partitions of its two blocks; [[rows]] turns each tile
  * into one sketch row in a ``flatMap``. The tiles are the one pair grid:
  * NaiveCorr and ParCorr read them too. Spans, tiles and rows are RDDs, each
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
    val start = q.start; val end = q.end; val len = (end - start).toInt; val b = q.bwSize
    inputRows(values).mapPartitions { rows =>
      val held = mutable.LongMap.empty[(mutable.ArrayBuilder.ofInt, mutable.ArrayBuilder.ofDouble)]
      def sidOf(r: InternalRow) = if (r.isNullAt(0)) "null" else r.getInt(0)
      rows.foreach { r => // a null t would read as 0
        require(!r.isNullAt(1), s"null reading at sid=${sidOf(r)}, t=null")
        val t = r.getLong(1)
        if (t >= start && t < end) {
          require(!r.isNullAt(0) && !r.isNullAt(2), s"null reading at sid=${sidOf(r)}, t=$t")
          val v = r.getDouble(2)
          require(!v.isNaN && !v.isInfinite, s"non-finite value $v at sid=${r.getInt(0)}, t=$t")
          val (us, vs) = held.getOrElseUpdate(r.getInt(0), (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble))
          us += (t - start).toInt; vs += v
        }
      }
      held.iterator.map { case (sid, (us, vs)) => Span(sid.toInt, us.result(), vs.result(), start, len, b) }
    }
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
    * ``bj`` through narrow dependencies. A reading held twice, in one span or
    * in two, or a step of the query range held by none, fails with an
    * IllegalArgumentException naming sid and t.
    */
  def pairStats(spans: RDD[Span]): RDD[Tile] = {
    val k = blockCount(spans.sparkContext.defaultParallelism)
    val blocks = spans
      .keyBy(s => Math.floorMod(s.sid, k))
      .partitionBy(new HashPartitioner(k)) // an Int key b hashes to partition b
      .mapPartitionsWithIndex { (b, held) =>
        Iterator(b -> held.map(_._2).toSeq.groupBy(_.sid).map { case (sid, ss) => merge(sid, ss) }.toArray.sortBy(_.sid))
      }
    PartitionPruningRDD.create(blocks.cartesian(blocks), p => p / k <= p % k) // partition p of the product reads blocks p / k and p % k
      .map { case ((bi, blockI), (bj, blockJ)) => Tile(bi, bj, blockI, if (bi == bj) Array.empty[SeriesRow] else blockJ) }
  }

  /** One sketch row per tile with a pair: its series' stats once, means
    * [[centered]], and the cross products of each of its pairs.
    */
  def rows(tiles: RDD[Tile], q: SlidingQuery): RDD[PairSketch] = tiles.flatMap { tile =>
    val s = tile.series
    val (x, y) = tile.pairIndices.toArray.unzip
    Option.when(x.nonEmpty)(PairSketch(q.start, q.bwSize, s.map(_.sid), s.map(r => centered(r.mean)), s.map(_.m2),
      x, y, x.indices.map(p => crossProducts(s(x(p)), s(y(p)), q.bwSize)).toArray))
  }

  /** The [[rows]] encoded as a Dataset, for callers that cache them. */
  def pairSketches(tiles: RDD[Tile], q: SlidingQuery): Dataset[PairSketch] =
    SparkSession.active.createDataset(rows(tiles, q))(Encoders.product[PairSketch])

  /** Build the sketch rows straight from raw values. */
  def build(values: DataFrame, q: SlidingQuery): Dataset[PairSketch] =
    pairSketches(pairStats(segments(values, q)), q)

  /** Series ``sid`` from its spans: dense values over the query range and each basic window's stats. */
  private def merge(sid: Int, spans: Iterable[Span]): SeriesRow = {
    val Span(_, _, _, start, len, b) = spans.head
    val vals = new Array[Double](len)
    java.util.Arrays.fill(vals, Double.NaN) // NaN: no reading yet (NaN readings are rejected)
    for (s <- spans) {
      var r = 0
      while (r < s.steps.length) {
        val u = s.steps(r)
        require(vals(u).isNaN, s"duplicate reading at sid=$sid, t=${start + u}")
        vals(u) = s.vals(r)
        r += 1
      }
    }
    var hole = 0
    while (hole < len && !vals(hole).isNaN) hole += 1
    require(hole == len, s"missing reading at sid=$sid, t=${start + hole}")
    val (mean, m2) = (new Array[Double](len / b), new Array[Double](len / b))
    var t = 0
    while (t < mean.length) {
      val stats = meanM2(vals, t * b, (t + 1) * b)
      mean(t) = stats._1; m2(t) = stats._2
      t += 1
    }
    SeriesRow(sid, vals, mean, m2)
  }

  /** Basic-window means less the series' mean over the query range, alike in every tile: Eq. 1
    * is shift-invariant, and centered means keep its sums from cancelling on data far from zero.
    */
  def centered(mean: Array[Double]): Array[Double] = { val c = mean.sum / mean.length; mean.map(_ - c) }

  /** Per basic window ``t``, ``Σ (x − meanX(t))(y − meanY(t))`` in time order. */
  private def crossProducts(x: SeriesRow, y: SeriesRow, b: Int): Array[Double] = {
    val cps = new Array[Double](x.mean.length)
    var t = 0
    while (t < cps.length) {
      val mx = x.mean(t); val my = y.mean(t)
      var cp = 0.0
      var u = t * b
      while (u < (t + 1) * b) { cp += (x.vals(u) - mx) * (y.vals(u) - my); u += 1 }
      cps(t) = cp
      t += 1
    }
    cps
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
