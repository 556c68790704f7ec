package repro.streaming

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.{Dangoron, Edge, SlidingQuery}

/** Incremental Dangoron over a stream of readings, driven from
  * ``foreachBatch`` or any loop that hands over micro-batches of
  * ``(sid, t, v)`` rows.
  */
object StreamingCorrelation {

  /** Streaming Dangoron driver: buffers arriving readings on the driver,
    * tracks the dense frontier across all series, and whenever new sliding
    * windows complete runs the batch Dangoron over exactly the
    * newly-completed window range and emits its thresholded edges. Readings
    * before the next window's start are dropped, so each series buffers at
    * most a window plus the readings of one micro-batch.
    *
    * Emission is incremental — window ``w``'s edges are produced once, in
    * the first micro-batch whose frontier covers it — and exact, but not
    * batch Dangoron's: each batch restarts the sweep at its first new window,
    * so with one window per batch it emits exactly the TSUBASA network.
    */
  final class StreamingDangoron(spark: SparkSession, nSeries: Int, q: SlidingQuery) {
    private val buffer: Array[mutable.ArrayBuffer[Double]] =
      Array.fill(nSeries)(mutable.ArrayBuffer.empty[Double])
    private var base = q.start // t of every series' first buffered reading
    private var emittedWindows = 0
    private val collected = mutable.ArrayBuffer.empty[Edge]

    /** Windows whose edges have been emitted so far. */
    def windowsEmitted: Int = emittedWindows

    /** All edges emitted so far. */
    def edgesSoFar: Vector[Edge] = collected.toVector

    /** Readings buffered for the longest series. */
    private[streaming] def buffered: Int = buffer.map(_.length).max

    /** Dense frontier: the first step that some series still lacks. */
    private def frontier(): Long = base + buffer.map(_.length).min

    private def completeWindows(f: Long): Int = {
      val avail = f - q.start
      if (avail < q.windowLen) 0
      else math.min(q.numWindows, ((avail - q.windowLen) / q.step + 1).toInt)
    }

    /** Ingest one micro-batch of rows ``(sid, t, v)`` (t dense per series
      * from ``q.start``, where every stream starts) and return edges newly
      * emitted because of it. The whole batch is checked first: a sid outside
      * ``[0, nSeries)``, a non-finite value or a gap fails with an
      * IllegalArgumentException naming sid and t, and leaves the buffers unchanged.
      */
    def ingest(batch: Array[(Int, Long, Double)]): Vector[Edge] = {
      val rows = batch.sortBy(r => (r._1, r._2))
      val next = buffer.map(base + _.length)
      rows.foreach { case (sid, t, v) =>
        require(sid >= 0 && sid < nSeries, s"sid=$sid out of range [0, $nSeries) at t=$t")
        require(!v.isNaN && !v.isInfinite, s"non-finite value $v at sid=$sid, t=$t")
        require(t == next(sid), s"non-dense stream for sid=$sid: got t=$t, expected ${next(sid)}")
        next(sid) += 1
      }
      rows.foreach { case (sid, _, v) => buffer(sid) += v }
      val fresh = advance()
      val drop = (math.min(q.windowStartT(emittedWindows), frontier()) - base).toInt
      if (drop > 0) { buffer.foreach(_.remove(0, drop)); base += drop }
      fresh
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
      } yield (sid, t, buffer(sid)((t - base).toInt))
      val values = spark.createDataset(rows.toSeq).toDF("sid", "t", "v")
      val (edgeDs, _) = Dangoron.run(values, sub)
      val fresh = edgeDs.collect().toVector.map(e => e.copy(w = e.w + firstW))
      collected ++= fresh
      emittedWindows = complete
      fresh
    }
  }
}
