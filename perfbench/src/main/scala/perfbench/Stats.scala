package perfbench

/** Order statistics the benchmark reports over one run's samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** A tail latency: ``value`` sits at ``percentile`` of ``samples`` samples. */
  final case class Tail(percentile: Double, value: Double, samples: Int)

  /** The highest percentile that still has at least ``beyond`` samples above
    * it: the (beyond + 1)-th largest sample, at percentile 100·(n − beyond)/n.
    * ``None`` when there are no more than ``beyond`` samples.
    */
  def tail(xs: Seq[Double], beyond: Int = 10): Option[Tail] =
    if (xs.length <= beyond) None
    else {
      val s = xs.sorted
      val n = s.length
      Some(Tail(100.0 * (n - beyond) / n, s(n - beyond - 1), n))
    }
}
