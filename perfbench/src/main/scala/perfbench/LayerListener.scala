package perfbench

import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Sums Spark task metrics per job group. The benchmark runs each traced
  * layer call under its own job group, so the sums are that layer's stage
  * metrics. Jobs without a group land in [[LayerListener.NoGroup]].
  */
final class LayerListener extends SparkListener {
  import LayerListener._

  private val groupOfStage = new ConcurrentHashMap[Int, String]()
  private val sums = new ConcurrentHashMap[String, Totals]()
  private val jobsOfGroup = new ConcurrentHashMap[String, Integer]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty(GroupKey))).getOrElse(NoGroup)
    e.stageIds.foreach(groupOfStage.put(_, group))
    jobsOfGroup.merge(group, 1, (a, b) => a + b)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      val t = Totals(
        tasks = 1,
        executorRunMs = m.executorRunTime,
        shuffleWriteBytes = m.shuffleWriteMetrics.bytesWritten,
        shuffleReadBytes = m.shuffleReadMetrics.totalBytesRead,
        spillBytes = m.memoryBytesSpilled + m.diskBytesSpilled,
        gcMs = m.jvmGCTime)
      sums.merge(groupOfStage.getOrDefault(e.stageId, NoGroup), t, (a, b) => a + b)
    }
  }

  /** Totals so far for ``group``; drain the listener bus first. */
  def totals(group: String): Totals = sums.getOrDefault(group, Totals.Zero)

  /** Jobs started so far under ``group``; drain the listener bus first. */
  def jobs(group: String): Int = jobsOfGroup.getOrDefault(group, 0)
}

object LayerListener {
  /** The local property under which ``SparkContext.setJobGroup`` stores the group. */
  val GroupKey = "spark.jobGroup.id"
  val NoGroup = "(none)"

  final case class Totals(tasks: Long, executorRunMs: Long, shuffleWriteBytes: Long,
                          shuffleReadBytes: Long, spillBytes: Long, gcMs: Long) {
    def +(o: Totals): Totals = Totals(tasks + o.tasks, executorRunMs + o.executorRunMs,
      shuffleWriteBytes + o.shuffleWriteBytes, shuffleReadBytes + o.shuffleReadBytes,
      spillBytes + o.spillBytes, gcMs + o.gcMs)
  }
  object Totals { val Zero: Totals = Totals(0, 0, 0, 0, 0, 0) }
}
