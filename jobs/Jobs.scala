package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.SlidingQuery
import repro.data.ClimateData
import repro.exp.Experiments
import repro.streaming.StreamingCorrelation
import repro.tomborg.{Tomborg, TomborgSpec, PowerLaw}

/** Shared session and arguments of the spark-submit entrypoints. */
object JobSession {
  /** Runs ``job`` on a session named ``name``, stopped however the job ends. */
  def run(name: String)(job: SparkSession => Unit): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try job(spark) finally spark.stop()
  }

  def intArg(args: Array[String], i: Int, default: Int): Int =
    if (args.length > i) args(i).toInt else default

  /** ``w`` with its ``n`` and ``len`` from the first two arguments, if given. */
  def workload(args: Array[String], w: Experiments.Workload): Experiments.Workload =
    w.copy(n = intArg(args, 0, w.n), len = intArg(args, 1, w.len))
}

/** Table 1 — pure query time, Dangoron vs TSUBASA (±naive), on
  * [[Experiments.Table1]]. Usage: Table1QueryTime [nStations] [hours] [runNaive(0/1)]
  */
object Table1QueryTime {
  def main(args: Array[String]): Unit = JobSession.run("table1-query-time") { spark =>
    val w = JobSession.workload(args, Experiments.Table1)
    val runNaive = JobSession.intArg(args, 2, 0) == 1
    val (values, q) = Experiments.climateWorkload(spark, w, beta = 0.7)
    val rows = Experiments.table1(spark, values, q, betas = Seq(0.5, 0.7, 0.9), runNaive = runNaive)
    println(Experiments.printT1(rows))
  }
}

/** Table 2 — accuracy vs exact, Dangoron vs ParCorr, on
  * [[Experiments.Table2]]. Usage: Table2Accuracy [nStations] [hours]
  */
object Table2Accuracy {
  def main(args: Array[String]): Unit = JobSession.run("table2-accuracy") { spark =>
    val (values, q) = Experiments.climateWorkload(spark, JobSession.workload(args, Experiments.Table2), beta = 0.7)
    val rows = Experiments.table2(spark, values, q, betas = Seq(0.5, 0.7, 0.9))
    println(Experiments.printT2(rows))
  }
}

/** Table 3 — robustness across Tomborg spectra, on [[Experiments.Table3]].
  * Usage: Table3Robustness [n] [len] (len must be a power of two)
  */
object Table3Robustness {
  def main(args: Array[String]): Unit = JobSession.run("table3-robustness") { spark =>
    val n = JobSession.intArg(args, 0, Experiments.Table3.n)
    val len = JobSession.intArg(args, 1, Experiments.Table3.len)
    val rows = Experiments.table3(spark, Experiments.tomborg(n, len), beta = 0.6, Experiments.defaultSpectra)
    println(Experiments.printT3(rows))
  }
}

/** Table 4 — pruning power (Eq. 2 skips + horizontal triangle pruning), on
  * [[Experiments.Table4]]. Usage: Table4Pruning [nStations] [hours]
  */
object Table4Pruning {
  def main(args: Array[String]): Unit = JobSession.run("table4-pruning") { spark =>
    val (values, q) = Experiments.climateWorkload(spark, JobSession.workload(args, Experiments.Table4), beta = 0.7)
    val rows = Experiments.table4(spark, values, q, betas = Seq(0.5, 0.7, 0.9))
    println(Experiments.printT4(rows))
  }
}

/** Streaming demo: feeds climate readings through the incremental
  * StreamingDangoron driver in micro-batches and reports edge counts per
  * completed window. Usage: StreamingDemo [nStations] [hours] [batchHours]
  */
object StreamingDemo {
  def main(args: Array[String]): Unit = JobSession.run("streaming-demo") { spark =>
    val n = JobSession.intArg(args, 0, 20)
    val hours = JobSession.intArg(args, 1, 2400)
    val batchHours = JobSession.intArg(args, 2, 240)
    val q = SlidingQuery(0L, hours.toLong, windowLen = 720, step = 24, beta = 0.7, bwSize = 24)
    val matrix = ClimateData.hourlyLocal(
      ClimateData.Spec(nStations = n, hours = hours, nRegions = math.max(1, math.min(8, n / 3))))
    val driver = new StreamingCorrelation.StreamingDangoron(spark, n, q)
    var t = 0
    while (t < hours) {
      val hi = math.min(hours, t + batchHours)
      val batch = for { sid <- (0 until n).toArray; u <- (t until hi).toArray }
        yield (sid, u.toLong, matrix(sid)(u))
      val fresh = driver.ingest(batch)
      println(s"[stream] t=$hi windowsEmitted=${driver.windowsEmitted} newEdges=${fresh.size}")
      t = hi
    }
    println(s"[stream] total edges: ${driver.edgesSoFar.size}")
  }
}

/** Writes the two synthetic datasets to parquet for external inspection.
  * Usage: GenerateData <outDir> [nStations] [hours]
  */
object GenerateData {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: GenerateData <outDir> [nStations] [hours]")
    JobSession.run("generate-data") { spark =>
      val out = args(0)
      val n = JobSession.intArg(args, 1, 100)
      val hours = JobSession.intArg(args, 2, 8760)
      ClimateData.hourly(spark,
          ClimateData.Spec(nStations = n, hours = hours, nRegions = math.min(8, n)))
        .write.mode("overwrite").parquet(s"$out/climate")
      Tomborg.generate(spark, TomborgSpec(n = n, len = 4096, clusters = 8, rho = 0.8, spectrum = PowerLaw(1.5)))
        .write.mode("overwrite").parquet(s"$out/tomborg")
      println(s"wrote $out/climate and $out/tomborg")
    }
  }
}
