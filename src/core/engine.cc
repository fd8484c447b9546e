#include "core/engine.h"

#include <cassert>
#include <utility>

#include "obs/flow_profiler.h"

namespace dflow::core {

ExecutionEngine::ExecutionEngine(const Schema* schema,
                                 const Strategy& strategy,
                                 sim::Simulator* sim,
                                 sim::QueryService* service)
    : schema_(schema),
      strategy_(strategy),
      scheduler_(schema, strategy),
      sim_(sim),
      service_(service) {}

int64_t ExecutionEngine::StartInstance(const SourceBinding& sources,
                                       uint64_t instance_seed,
                                       DoneCallback done) {
  const int64_t id = next_id_++;
  auto inst = std::make_unique<Instance>(schema_, strategy_);
  inst->id = id;
  inst->seed = instance_seed;
  inst->snapshot.BindSources(sources);
  inst->launched.assign(static_cast<size_t>(schema_->num_attributes()), 0);
  inst->speculative.assign(static_cast<size_t>(schema_->num_attributes()), 0);
  inst->fresh.reserve(static_cast<size_t>(schema_->num_attributes()));
  inst->selected.reserve(static_cast<size_t>(schema_->num_attributes()));
  inst->profiled = profiler_ != nullptr && profiler_->Sampled(instance_seed);
  inst->metrics.start_time = sim_->now();
  inst->inflight_mark = sim_->now();
  inst->done = std::move(done);
  if (trace_listener_) {
    inst->snapshot.SetTransitionListener(
        [this, id](AttributeId a, AttrState from, AttrState to) {
          trace_listener_(id, a, from, to);
        });
  }
  Instance* raw = inst.get();
  instances_.emplace(id, std::move(inst));
  Step(raw);
  return id;
}

void ExecutionEngine::AccumulateInflight(Instance* inst) {
  inst->metrics.inflight_area +=
      inst->in_flight * (sim_->now() - inst->inflight_mark);
  inst->inflight_mark = sim_->now();
}

void ExecutionEngine::Step(Instance* inst) {
  inst->prequalifier.Update(&inst->snapshot);
  ++inst->metrics.prequalifier_passes;

  if (inst->snapshot.AllTargetsStable()) {
    Finish(inst);
    return;
  }

  // Scheduling phase: filter already-launched tasks, then apply the
  // heuristic and the %Permitted parallelism cap.
  inst->fresh.clear();
  for (AttributeId a : inst->prequalifier.candidates()) {
    if (inst->launched[static_cast<size_t>(a)] == 0) inst->fresh.push_back(a);
  }
  scheduler_.SelectForLaunch(inst->fresh, inst->in_flight, &inst->selected);
  for (AttributeId a : inst->selected) Launch(inst, a);
}

void ExecutionEngine::Launch(Instance* inst, AttributeId attr) {
  inst->launched[static_cast<size_t>(attr)] = 1;
  AccumulateInflight(inst);
  ++inst->in_flight;
  const Task& task = schema_->task(attr);
  inst->metrics.work += task.cost_units;
  ++inst->metrics.queries_launched;
  if (inst->snapshot.state(attr) == AttrState::kReady) {
    ++inst->metrics.speculative_launches;
    inst->speculative[static_cast<size_t>(attr)] = 1;
  }
  const int64_t id = inst->id;
  service_->Submit(task.cost_units,
                   [this, id, attr]() { OnQueryComplete(id, attr); });
}

Value ExecutionEngine::ComputeTaskValue(const Instance& inst,
                                        AttributeId attr) const {
  TaskContext ctx;
  ctx.attr = attr;
  ctx.instance_seed = inst.seed;
  const Snapshot* snap = &inst.snapshot;
  ctx.input = [snap](AttributeId in) { return snap->value(in); };
  return schema_->task(attr).fn(ctx);
}

void ExecutionEngine::OnQueryComplete(int64_t instance_id, AttributeId attr) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) return;  // instance already reached its goal
  Instance* inst = it->second.get();

  AccumulateInflight(inst);
  --inst->in_flight;

  switch (inst->snapshot.state(attr)) {
    case AttrState::kReadyEnabled:
      inst->snapshot.Transition(attr, AttrState::kValue,
                                ComputeTaskValue(*inst, attr));
      break;
    case AttrState::kReady:
      // Speculative completion: hold the value until the condition resolves.
      inst->snapshot.Transition(attr, AttrState::kComputed,
                                ComputeTaskValue(*inst, attr));
      break;
    case AttrState::kDisabled:
      // Disabled while the query was in flight: the result is discarded.
      break;
    default:
      // Launch requires READY or READY+ENABLED, and the only transitions out
      // of those while in flight lead to READY+ENABLED or DISABLED.
      assert(false && "query completed in unexpected state");
      break;
  }
  Step(inst);
}

void ExecutionEngine::Finish(Instance* inst) {
  AccumulateInflight(inst);
  inst->metrics.end_time = sim_->now();
  inst->metrics.eager_disables = inst->prequalifier.eager_disables();
  inst->metrics.unneeded_skipped = inst->prequalifier.unneeded_skipped();
  for (AttributeId a = 0; a < schema_->num_attributes(); ++a) {
    if (inst->launched[static_cast<size_t>(a)] != 0 &&
        inst->snapshot.state(a) != AttrState::kValue) {
      inst->metrics.wasted_work += schema_->task(a).cost_units;
    }
  }

  if (inst->profiled) {
    profiler_->RecordInstance(inst->snapshot, inst->prequalifier,
                              inst->launched, inst->speculative);
  }

  InstanceResult result{inst->id, std::move(inst->snapshot),
                        inst->metrics};
  DoneCallback done = std::move(inst->done);
  instances_.erase(inst->id);
  if (done) done(std::move(result));
}

}  // namespace dflow::core
