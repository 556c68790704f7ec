package repro.exp

import org.apache.spark.rdd.RDD
import repro.core.Edge

/** Edge-classification quality of an approximate framework against the
  * exact (naive) result, over all pair-windows of a query.
  */
final case class Accuracy(
    tp: Long, fp: Long, fn: Long, totalPairWindows: Long,
    maxCorrErrOnHits: Double
) {
  def tn: Long = totalPairWindows - tp - fp - fn
  def precision: Double = if (tp + fp == 0) 1.0 else tp.toDouble / (tp + fp)
  def recall: Double = if (tp + fn == 0) 1.0 else tp.toDouble / (tp + fn)
  def f1: Double =
    if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
  /** Pair-window classification accuracy — the paper's ">90%" metric. */
  def accuracy: Double =
    if (totalPairWindows == 0) 1.0 else (tp + tn).toDouble / totalPairWindows
}

object Metrics {

  /** Compare predicted edges against exact ground-truth correlations.
    *
    * ``truthAll`` must hold EVERY pair-window correlation (unthresholded);
    * it is thresholded at ``beta`` here so one cached truth RDD serves
    * every β of a sweep. One full outer join keyed by (i, j, w) and one
    * ``aggregate`` count tp, fp and fn. ``maxCorrErrOnHits`` is the worst
    * |corr − exact corr| over true-positive edges (≈0 for exact frameworks).
    */
  def compare(pred: RDD[Edge], truthAll: RDD[Edge], beta: Double, totalPairWindows: Long): Accuracy = {
    def keyed(edges: RDD[Edge]) = edges.map(e => ((e.i, e.j, e.w), e.corr))
    val (tp, fp, fn, maxErr) = keyed(pred).fullOuterJoin(keyed(truthAll.filter(_.corr >= beta))).values
      .aggregate((0L, 0L, 0L, 0.0))({
        case ((tp, fp, fn, err), (Some(p), Some(t))) => (tp + 1, fp, fn, math.max(err, math.abs(p - t)))
        case ((tp, fp, fn, err), (Some(_), None)) => (tp, fp + 1, fn, err)
        case ((tp, fp, fn, err), (None, _)) => (tp, fp, fn + 1, err)
      }, { case ((tp1, fp1, fn1, err1), (tp2, fp2, fn2, err2)) =>
        (tp1 + tp2, fp1 + fp2, fn1 + fn2, math.max(err1, err2))
      })
    Accuracy(tp, fp, fn, totalPairWindows, maxErr)
  }
}
