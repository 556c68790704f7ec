package perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

class LayerListenerSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder
    .master("local[2]").appName("LayerListenerSpec")
    .config("spark.ui.enabled", false).config("spark.driver.host", "127.0.0.1")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  test("task metrics are summed per job group, ungrouped jobs apart") {
    val sc = spark.sparkContext
    val listener = new LayerListener
    sc.addSparkListener(listener)
    def inGroup(g: String)(f: => Unit): Unit = {
      sc.setJobGroup(g, g, interruptOnCancel = false)
      try f finally sc.clearJobGroup()
    }
    inGroup("a")(sc.parallelize(1 to 100, 3).count())
    inGroup("a")(sc.parallelize(1 to 100, 2).count())
    // A shuffle: one map stage and one reduce stage in the same job.
    inGroup("b")(sc.parallelize(1 to 1000, 4).map(i => (i % 10, i)).reduceByKey(_ + _, 5).count())
    sc.parallelize(1 to 10, 1).count()
    ListenerBusDrain(sc)

    assert(listener.jobs("a") == 2 && listener.jobs("b") == 1 && listener.jobs(LayerListener.NoGroup) == 1)
    val a = listener.totals("a")
    val b = listener.totals("b")
    assert(a.tasks == 5 && a.shuffleWriteBytes == 0)
    assert(b.tasks == 9)
    assert(b.shuffleWriteBytes > 0 && b.shuffleReadBytes > 0)
    assert(listener.totals(LayerListener.NoGroup).tasks == 1)
    assert(listener.totals("never") == LayerListener.Totals.Zero)
    sc.removeSparkListener(listener)
  }
}
