package perfbench

import org.apache.spark.sql.SparkSession

import Metrics.Metric

/** Entry point: ``perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>``.
  *
  * Prints three JSON lines: the environment, a summary under the workload's
  * own metric names (with tail percentiles and sample counts), and last the
  * result: ``correct``, ``attempted``, ``failed`` and the declared metrics,
  * end-to-end with ``--trace 0`` and per-layer with ``--trace 1``.
  */
object Main {

  /** Matches the root build's spark-submit jobs. */
  val ShufflePartitions = 64

  def parse(args: Array[String]): Either[String, RunArgs] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      w <- need("workload").filterOrElse(Workloads.names.contains, s"unknown workload; one of ${Workloads.names.mkString(", ")}")
      seed <- need("seed").flatMap(_.toLongOption.toRight("--seed is not an integer"))
      secs <- need("seconds").flatMap(_.toIntOption.filter(_ > 0).toRight("--seconds is not a positive integer"))
      trace <- need("trace").filterOrElse(Set("0", "1"), "--trace is 0 or 1")
      _ <- Either.cond(args.length == 8, (), "expected exactly --workload, --seed, --seconds and --trace")
    } yield RunArgs(w, seed, secs, trace == "1")
  }

  private def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString

  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  private def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  private def metricsJson(ms: Seq[Metric]): String =
    obj(ms.map(m => m.name -> obj(Seq("value" -> num(m.value), "unit" -> str(m.unit)))))

  def main(args: Array[String]): Unit = {
    val a = parse(args) match {
      case Right(a) => a
      case Left(err) =>
        Console.err.println(s"perfbench: $err\nusage: --workload <${Workloads.names.mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
        sys.exit(2)
    }
    val nproc = Runtime.getRuntime.availableProcessors()
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName(s"perfbench-${a.workload}")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val out = try Workloads.run(spark, a) finally spark.stop()

    val declared = if (a.trace) Metrics.perLayer else Metrics.endToEnd
    println(obj(Seq("environment" -> obj(Seq(
      "workload" -> str(a.workload), "seed" -> a.seed.toString, "seconds" -> a.seconds.toString,
      "trace" -> a.trace.toString, "nproc" -> nproc.toString, "spark_master" -> str(spark.sparkContext.master),
      "spark_sql_shuffle_partitions" -> ShufflePartitions.toString,
      "driver_heap_max_mb" -> num(Runtime.getRuntime.maxMemory / 1048576.0),
      "jvm" -> str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "spark" -> str(spark.version), "git_sha" -> str(sys.props.getOrElse("perfbench.gitSha", "unknown")),
      "source_sha256" -> str(sys.props.getOrElse("perfbench.sourceSha", "unknown")))))))
    println(obj(Seq("summary" -> metricsJson(out.summary))))
    println(obj(Seq(
      "correct" -> out.correct.toString, "attempted" -> out.attempted.toString, "failed" -> out.failed.toString,
      "metrics" -> metricsJson(Metrics.select(declared, out.metrics)))))
  }
}
