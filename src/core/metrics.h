#ifndef DFLOW_CORE_METRICS_H_
#define DFLOW_CORE_METRICS_H_

#include <cstdint>

#include "sim/simulator.h"

namespace dflow::core {

// Per-instance execution measurements (§5 "Experiment Environment").
//
// `work` is the paper's Work: total units of processing submitted to the
// database for this instance, including speculative queries that were later
// disabled and queries still in flight when the instance reached its
// terminal snapshot (the database performs that work regardless).
// Response time is end_time - start_time: TimeInUnits under the
// InfiniteResourceService (unit duration 1.0), TimeInSeconds (in simulated
// milliseconds) under the DatabaseServer.
struct InstanceMetrics {
  sim::Time start_time = 0;
  sim::Time end_time = 0;

  int64_t work = 0;
  // Units belonging to launched queries whose attribute did not end in
  // state VALUE (disabled after launch, or abandoned by early exit).
  int64_t wasted_work = 0;

  int queries_launched = 0;
  // Queries launched while only READY (condition still unknown, option 'S').
  int speculative_launches = 0;
  // Attributes found DISABLED before all of their condition inputs were
  // stable (eager evaluation at work).
  int eager_disables = 0;
  // Attributes whose tasks were skipped because backward propagation proved
  // them unneeded (never entered the candidate pool though runnable).
  int unneeded_skipped = 0;
  // Prequalifier passes executed: one at instance start and one per query
  // completion. The first visits every attribute; each later pass visits
  // only the attributes its completion affected (see core/prequalifier.h).
  int prequalifier_passes = 0;

  // Time-integral of the number of in-flight queries; divided by the
  // response time this is the instance's mean multiprogramming level Lmpl
  // of the §5 analytical model.
  double inflight_area = 0;

  sim::Time ResponseTime() const { return end_time - start_time; }
  double MeanLmpl() const {
    const sim::Time rt = ResponseTime();
    return rt > 0 ? inflight_area / rt : 0;
  }
};

}  // namespace dflow::core

#endif  // DFLOW_CORE_METRICS_H_
