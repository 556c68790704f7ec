package perfbench

/** The metrics the benchmark reports, by name and unit. The lists here are
  * the ones ``BENCHMARK.json`` declares; a run emits exactly one of them in
  * full (end-to-end untraced, per-layer traced).
  */
object Metrics {

  final case class Metric(name: String, value: Double, unit: String)

  private val NamePattern = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}".r
  private val UnitPattern = "[A-Za-z0-9_/%.-]{1,16}".r

  def validName(name: String): Boolean = NamePattern.matches(name)
  def validUnit(unit: String): Boolean = UnitPattern.matches(unit)

  /** Seen by a user on every workload. ``latency_p50_s`` is one operation:
    * values → edges (climate-build) or one query over cached sketches
    * (climate-query).
    */
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "latency_p50_s" -> "s",
    "edge_recall" -> "ratio",
    "heap_after_gc_mb" -> "MB",
  )

  /** Stage metrics that the [[LayerListener]] attributes to each traced layer. */
  val stageMetrics: Seq[(String, String)] = Seq(
    "executor_run_s" -> "s", "shuffle_write_bytes" -> "bytes", "shuffle_read_bytes" -> "bytes",
    "spill_bytes" -> "bytes", "gc_s" -> "s", "tasks" -> "count",
  )

  val tracedLayers: Seq[String] = Seq("sketch", "dangoron", "tsubasa", "hprune", "streaming")

  /** Per-layer numbers of a traced run. A layer that a workload does not call
    * reports 0 there.
    */
  val perLayer: Seq[(String, String)] = Seq(
    "sketch.segments_s" -> "s", "sketch.segments_rows" -> "count",
    "sketch.pair_stats_s" -> "s", "sketch.pair_stats_rows" -> "count",
    "sketch.assembly_s" -> "s", "sketch.assembly_pairs" -> "count",
    "sketch.cached_bytes" -> "bytes",
    "dangoron.sweep_s" -> "s", "dangoron.sweep_s1_s" -> "s", "dangoron.sweep_s8_s" -> "s",
    "dangoron.computed_pair_windows" -> "count", "dangoron.skipped_pair_windows" -> "count",
    "dangoron.skip_fraction" -> "ratio",
    "tsubasa.sweep_s" -> "s", "tsubasa.computed_pair_windows" -> "count",
    "hprune.s" -> "s", "hprune.pruned_pairs" -> "count", "hprune.computed_pairs" -> "count",
    "streaming.ingest_s" -> "s", "streaming.jobs_per_batch" -> "count",
    "streaming.heap_growth_mb_per_100_windows" -> "MB",
    "trace_overhead_s" -> "s",
  ) ++ (for { layer <- tracedLayers; (m, u) <- stageMetrics } yield s"$layer.$m" -> u)

  /** Orders ``values`` as ``declared`` and attaches units; every declared
    * name must be present and nothing else.
    */
  def select(declared: Seq[(String, String)], values: Map[String, Double]): Seq[Metric] = {
    val names = declared.map(_._1).toSet
    require(values.keySet == names,
      s"metrics differ from the declared set: missing ${names -- values.keySet}, extra ${values.keySet -- names}")
    declared.map { case (n, u) =>
      val v = values(n)
      require(!v.isNaN && !v.isInfinite, s"metric $n is not finite: $v")
      Metric(n, v, u)
    }
  }
}
