#ifndef DFLOW_CORE_ENGINE_H_
#define DFLOW_CORE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "core/metrics.h"
#include "core/prequalifier.h"
#include "core/scheduler.h"
#include "core/schema.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "sim/query_service.h"
#include "sim/simulator.h"

namespace dflow::obs {
class FlowProfiler;
}  // namespace dflow::obs

namespace dflow::core {

// The outcome of one decision-flow instance: its terminal snapshot (all
// target attributes stable) and the execution measurements.
struct InstanceResult {
  int64_t instance_id = 0;
  Snapshot snapshot;
  InstanceMetrics metrics;
};

// The decision-flow execution engine of Figure 2, specialized to one schema
// and one execution strategy. Multiple instances may be processed
// concurrently against the shared QueryService; the scheduler chooses tasks
// for each instance independently of the others, as in the paper.
//
// The engine is driven entirely by simulator events: StartInstance enqueues
// the initial prequalifying/scheduling phases, and every query completion
// re-enters the §3 execution algorithm (evaluation phase → prequalifying
// phase → scheduling phase) for its instance. Run the simulator to make
// progress; `done` fires (within the simulation) at the instance's terminal
// snapshot.
class ExecutionEngine {
 public:
  using DoneCallback = std::function<void(InstanceResult)>;

  ExecutionEngine(const Schema* schema, const Strategy& strategy,
                  sim::Simulator* sim, sim::QueryService* service);

  // Begins executing a new instance with the given source bindings.
  // `instance_seed` parameterizes task value functions (see TaskContext).
  // Returns the instance id.
  int64_t StartInstance(const SourceBinding& sources, uint64_t instance_seed,
                        DoneCallback done);

  int active_instances() const { return static_cast<int>(instances_.size()); }
  const Strategy& strategy() const { return strategy_; }

  // Observes every FSA transition of every instance (tracing, debugging,
  // property tests). Applies to instances started after the call.
  using TraceListener = std::function<void(int64_t instance_id, AttributeId,
                                           AttrState from, AttrState to)>;
  void SetTraceListener(TraceListener listener) {
    trace_listener_ = std::move(listener);
  }

  // Attaches a profiler that harvests per-attribute / per-condition
  // statistics from instances whose seed passes its sampling predicate.
  // Applies to instances started after the call; null detaches. The
  // profiler must outlive every instance started while attached.
  void SetProfiler(obs::FlowProfiler* profiler) { profiler_ = profiler; }

 private:
  struct Instance {
    int64_t id = 0;
    uint64_t seed = 0;
    Snapshot snapshot;
    Prequalifier prequalifier;
    std::vector<char> launched;
    // Per-attribute flag: launched while READY (condition still open).
    std::vector<char> speculative;
    // Scheduling-phase scratch, reused by every Step of this instance:
    // unlaunched candidates, and the subset the scheduler picks.
    std::vector<AttributeId> fresh;
    std::vector<AttributeId> selected;
    bool profiled = false;
    int in_flight = 0;
    sim::Time inflight_mark = 0;
    InstanceMetrics metrics;
    DoneCallback done;

    Instance(const Schema* schema, const Strategy& strategy)
        : snapshot(schema), prequalifier(schema, strategy) {}
  };

  // One round of the execution algorithm for `inst`: prequalify, check for
  // the terminal snapshot, schedule.
  void Step(Instance* inst);
  void Launch(Instance* inst, AttributeId attr);
  void OnQueryComplete(int64_t instance_id, AttributeId attr);
  void Finish(Instance* inst);
  void AccumulateInflight(Instance* inst);
  Value ComputeTaskValue(const Instance& inst, AttributeId attr) const;

  const Schema* schema_;
  Strategy strategy_;
  Scheduler scheduler_;
  sim::Simulator* sim_;
  sim::QueryService* service_;
  int64_t next_id_ = 1;
  TraceListener trace_listener_;
  obs::FlowProfiler* profiler_ = nullptr;
  std::unordered_map<int64_t, std::unique_ptr<Instance>> instances_;
};

}  // namespace dflow::core

#endif  // DFLOW_CORE_ENGINE_H_
