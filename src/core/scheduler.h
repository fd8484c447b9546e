#ifndef DFLOW_CORE_SCHEDULER_H_
#define DFLOW_CORE_SCHEDULER_H_

#include <vector>

#include "common/ids.h"
#include "core/schema.h"
#include "core/strategy.h"

namespace dflow::core {

// The task scheduler of the Figure 2 architecture: picks which candidate
// queries to send to the database, implementing the §4 scheduling phase.
//
// Heuristics:
//   Earliest ('E'): topologically-earliest candidates first — maximizes the
//     information produced for forward/backward propagation.
//   Cheapest ('C'): shortest estimated execution first — results return
//     sooner and mis-speculation wastes less (ties broken topologically).
//
// Parallelism (%Permitted): at each scheduling point the number of queries
// permitted to be in flight concurrently for this instance is
//   max(1, ceil(pct/100 * (|candidates| + in_flight))),
// i.e. the permitted fraction of the currently eligible pool, never less
// than one task so execution always makes progress (pct = 0 is fully
// serial, pct = 100 launches every candidate).
class Scheduler {
 public:
  Scheduler(const Schema* schema, const Strategy& strategy)
      : schema_(schema), strategy_(strategy) {}

  // `candidates` must be in ascending topological order (as produced by the
  // prequalifier) and already filtered of launched tasks. Replaces the
  // contents of `out` with the tasks to launch now, in launch order; the
  // caller owns `out` so its capacity is reused across scheduling points.
  void SelectForLaunch(const std::vector<AttributeId>& candidates,
                       int in_flight, std::vector<AttributeId>* out) const;

 private:
  const Schema* schema_;
  Strategy strategy_;
};

}  // namespace dflow::core

#endif  // DFLOW_CORE_SCHEDULER_H_
