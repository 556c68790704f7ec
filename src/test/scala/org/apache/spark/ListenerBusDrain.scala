package org.apache.spark

/** Waits until every posted listener event has been delivered. The listener
  * bus is asynchronous and its drain is package-private, so this lives in
  * Spark's package, as Spark's own tests do.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
