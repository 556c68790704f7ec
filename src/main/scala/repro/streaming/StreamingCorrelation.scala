package repro.streaming

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Dangoron, Edge, SlidingQuery}

/** Structured Streaming substrate for Dangoron (per the reproduction
  * hint): maintain basic-window sketches with event-time windowed
  * aggregation, and emit thresholded correlation edges as sliding windows
  * complete, pruning below-threshold entries with DataFrame filters.
  *
  * Input stream contract: ``sid: Int, ts: Timestamp, v: Double``, where the
  * timestamp encodes the dense step index (``epoch second = t``).
  */
object StreamingCorrelation {

  /** Per-series basic-window statistics as a streaming aggregation:
    * ``groupBy(sid, window(ts, bwSize seconds))``. Emits
    * ``(sid, bw, cnt, mean, m2)``, one row per series and basic window, so
    * the test suite diffs it against the series stats the batch tiles hold.
    * Works on both streaming and batch DataFrames.
    */
  def bwStats(readings: DataFrame, bwSize: Int, origin: Long = 0L): DataFrame = {
    readings
      .groupBy(col("sid"), window(col("ts"), s"$bwSize seconds", s"$bwSize seconds"))
      .agg(
        count("v").as("cnt"),
        avg("v").as("mean"),
        sum("v").as("sum"),
        sum(col("v") * col("v")).as("sumsq"))
      .select(
        col("sid"),
        ((unix_timestamp(col("window.start")) - origin) / bwSize).cast("int").as("bw"),
        col("cnt"),
        col("mean"),
        (col("sumsq") - col("sum") * col("sum") / col("cnt")).as("m2"))
  }

  /** Streaming Dangoron driver, used from ``foreachBatch``: buffers
    * arriving readings (driver-side state store), tracks the dense frontier
    * across all series, and whenever new sliding windows complete runs the
    * Dangoron sweep over exactly the newly-completed window range and
    * emits its thresholded edges.
    *
    * Emission is incremental — window ``w``'s edges are produced once, in
    * the first micro-batch whose frontier covers it — and exact: tests
    * assert the union of emissions equals a batch run over the full range.
    */
  final class StreamingDangoron(spark: SparkSession, nSeries: Int, q: SlidingQuery) {
    private val buffer: Array[mutable.ArrayBuffer[Double]] =
      Array.fill(nSeries)(mutable.ArrayBuffer.empty[Double])
    private var emittedWindows = 0
    private val collected = mutable.ArrayBuffer.empty[Edge]

    /** Windows whose edges have been emitted so far. */
    def windowsEmitted: Int = emittedWindows

    /** All edges emitted so far. */
    def edgesSoFar: Vector[Edge] = collected.toVector

    /** Dense frontier: number of leading time steps present for ALL series. */
    private def frontier(): Long = buffer.map(_.length.toLong).min

    private def completeWindows(f: Long): Int = {
      val avail = f - q.start
      if (avail < q.windowLen) 0
      else math.min(q.numWindows, ((avail - q.windowLen) / q.step + 1).toInt)
    }

    /** Ingest one micro-batch of rows ``(sid, t, v)`` (t dense per series)
      * and return edges newly emitted because of it. The whole batch is
      * checked first: a sid outside ``[0, nSeries)``, a non-finite value or a
      * gap fails with an IllegalArgumentException naming sid and t, and
      * leaves the buffers unchanged.
      */
    def ingest(batch: Array[(Int, Long, Double)]): Vector[Edge] = {
      val rows = batch.sortBy(r => (r._1, r._2))
      val next = buffer.map(_.length.toLong)
      rows.foreach { case (sid, t, v) =>
        require(sid >= 0 && sid < nSeries, s"sid=$sid out of range [0, $nSeries) at t=$t")
        require(!v.isNaN && !v.isInfinite, s"non-finite value $v at sid=$sid, t=$t")
        require(t == next(sid), s"non-dense stream for sid=$sid: got t=$t, expected ${next(sid)}")
        next(sid) += 1
      }
      rows.foreach { case (sid, _, v) => buffer(sid) += v }
      advance()
    }

    /** Run the sweep over windows [emittedWindows, complete). */
    private def advance(): Vector[Edge] = {
      val complete = completeWindows(frontier())
      if (complete <= emittedWindows) return Vector.empty
      val firstW = emittedWindows
      val sub = SlidingQuery(
        start = q.start + firstW.toLong * q.step,
        end = q.start + (complete - 1).toLong * q.step + q.windowLen,
        windowLen = q.windowLen, step = q.step, beta = q.beta, bwSize = q.bwSize)
      import spark.implicits._
      val rows = for {
        sid <- (0 until nSeries).iterator
        t <- (sub.start until sub.end).iterator
      } yield (sid, t, buffer(sid)(t.toInt))
      val values = spark.createDataset(rows.toSeq).toDF("sid", "t", "v")
      val (edgeDs, _) = Dangoron.run(values, sub)
      val fresh = edgeDs.collect().toVector.map(e => e.copy(w = e.w + firstW))
      collected ++= fresh
      emittedWindows = complete
      fresh
    }
  }
}
