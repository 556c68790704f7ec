package repro.core

import org.apache.spark.Partitioner
import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** Per-series basic-window statistics (TSUBASA's per-series sketch). */
final case class SeriesBw(sid: Int, bw: Int, cnt: Long, mean: Double, m2: Double)

/** One series' values over the query range, with each basic window's mean and m2. */
final case class SeriesRow(sid: Int, vals: Array[Double], mean: Array[Double], m2: Array[Double])

/** Tile ``(bi ≤ bj)`` of the all-pairs grid: the series of blocks ``bi`` and
  * ``bj`` by sid, ``blockJ`` empty on the diagonal.
  */
final case class Tile(bi: Int, bj: Int, blockI: Array[SeriesRow], blockJ: Array[SeriesRow]) {

  /** Every pair of the tile once, lower sid first, emitted lazily: a task
    * holds a tile's series, never its pairs.
    */
  def pairs: Iterator[(SeriesRow, SeriesRow)] =
    if (bi == bj)
      for (x <- blockI.indices.iterator; y <- (x + 1 until blockI.length).iterator) yield (blockI(x), blockI(y))
    else for (x <- blockI.iterator; y <- blockJ.iterator) yield if (x.sid < y.sid) (x, y) else (y, x)
}

/** The basic-window sketch substrate, shared by Dangoron and TSUBASA.
  *
  * Input contract throughout: a long-format DataFrame with columns ``sid``
  * (int), ``t`` (long), ``v`` (double), one finite reading per series and time
  * step of the query range. Construction tiles the pair space as ParCorr does:
  * [[segments]] gathers each series into one row with its basic-window stats;
  * [[pairStats]] sends it to the ``k`` tiles of its block ``sid % k``, one tile
  * per partition; [[pairSketches]] computes each tile's pairs in a ``flatMap``.
  * The tiles are the one pair grid: NaiveCorr and ParCorr read them too.
  */
object Sketch {

  /** Series blocks ``k``: the least giving three tiles per core, so that tiles of unequal size balance. */
  private[core] def blockCount(parallelism: Int): Int =
    Iterator.from(1).find(k => k * (k + 1) / 2 >= 3 * parallelism).get

  /** One row per series with its basic-window stats. A duplicate, missing,
    * NaN or infinite reading fails with an IllegalArgumentException naming
    * sid and t.
    */
  def segments(values: DataFrame, q: SlidingQuery): Dataset[SeriesRow] = {
    val spark = values.sparkSession
    import spark.implicits._
    val start = q.start; val end = q.end; val len = (end - start).toInt; val b = q.bwSize
    values
      .select(col("sid").cast("int"), col("t").cast("long"), col("v").cast("double"))
      .where(col("t") >= start && col("t") < end)
      .as[(Int, Long, Double)]
      .groupByKey(_._1)
      .mapGroups { (sid, rows) =>
        val vals = Array.fill(len)(Double.NaN) // NaN: no reading yet (NaN readings are rejected)
        rows.foreach { case (_, t, v) =>
          require(!v.isNaN && !v.isInfinite, s"non-finite value $v at sid=$sid, t=$t")
          require(vals((t - start).toInt).isNaN, s"duplicate reading at sid=$sid, t=$t")
          vals((t - start).toInt) = v
        }
        val hole = vals.indexWhere(_.isNaN)
        require(hole < 0, s"missing reading at sid=$sid, t=${start + hole}")
        val stats = Array.tabulate(len / b)(t => meanM2(vals.slice(t * b, (t + 1) * b)))
        SeriesRow(sid, vals, stats.map(_._1), stats.map(_._2))
      }
  }

  /** Per-series basic-window stats, one row per (series, basic window). */
  def seriesStats(series: Dataset[SeriesRow]): Dataset[SeriesBw] = {
    val spark = series.sparkSession
    import spark.implicits._
    series.flatMap { s =>
      s.mean.indices.map(t => SeriesBw(s.sid, t, s.vals.length / s.mean.length, s.mean(t), s.m2(t)))
    }
  }

  /** One row per tile of the all-pairs grid, alone in its partition. */
  def pairStats(series: Dataset[SeriesRow]): Dataset[Tile] = {
    val spark = series.sparkSession
    import spark.implicits._
    val k = blockCount(spark.sparkContext.defaultParallelism)
    def block(sid: Int) = Math.floorMod(sid, k) // a block with no series leaves its tiles empty
    val tiles = series.rdd
      .flatMap(s => (0 until k).map(o => (math.min(block(s.sid), o), math.max(block(s.sid), o)) -> s))
      .groupByKey(new Partitioner { // tile (bi, bj) alone in partition bj(bj+1)/2 + bi
        def numPartitions: Int = k * (k + 1) / 2
        def getPartition(key: Any): Int = key match { case (bi: Int, bj: Int) => bj * (bj + 1) / 2 + bi }
      })
      .map { case ((bi, bj), rows) =>
        val (blockI, blockJ) = rows.toArray.sortBy(_.sid).partition(s => block(s.sid) == bi)
        Tile(bi, bj, blockI, blockJ)
      }
    spark.createDataset(tiles)
  }

  /** The sketch of every pair in each tile, emitted lazily. */
  def pairSketches(tiles: Dataset[Tile], q: SlidingQuery): Dataset[PairSketch] = {
    val spark = tiles.sparkSession
    import spark.implicits._
    val b = q.bwSize
    tiles.flatMap(_.pairs.map { case (x, y) =>
      PairSketch(x.sid, y.sid, x.mean, x.m2, y.mean, y.m2, crossProducts(x, y, b))
    })
  }

  /** Build pair sketches straight from raw values. */
  def build(values: DataFrame, q: SlidingQuery): Dataset[PairSketch] =
    pairSketches(pairStats(segments(values, q)), q)

  /** Per basic window ``t``, ``Σ (x − meanX(t))(y − meanY(t))`` in time order. */
  private def crossProducts(x: SeriesRow, y: SeriesRow, b: Int): Array[Double] =
    Array.tabulate(x.mean.length) { t =>
      val (mx, my) = (x.mean(t), y.mean(t))
      var cp = 0.0
      var u = t * b
      while (u < (t + 1) * b) { cp += (x.vals(u) - mx) * (y.vals(u) - my); u += 1 }
      cp
    }

  /** Mean and centered sum of squares in one pass. */
  def meanM2(vals: Array[Double]): (Double, Double) = {
    var s = 0.0
    var u = 0
    while (u < vals.length) { s += vals(u); u += 1 }
    val mean = s / vals.length
    var m2 = 0.0
    u = 0
    while (u < vals.length) { val d = vals(u) - mean; m2 += d * d; u += 1 }
    (mean, m2)
  }
}
