#ifndef DFLOW_CORE_PREQUALIFIER_H_
#define DFLOW_CORE_PREQUALIFIER_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/attribute_state.h"
#include "core/schema.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "expr/tribool.h"

namespace dflow::core {

// The prequalifier of the Figure 2 architecture: after each batch of new
// attribute values it advances attribute states and maintains the candidate
// task pool.
//
// With option 'P' (Propagation Algorithm, §4 / [HLS+99b]) an Update pass
// performs, forward in topological order:
//   - *eager evaluation* of enabling conditions: Kleene partial evaluation
//     over the stable prefix, so attributes can become ENABLED or DISABLED
//     before all of their condition inputs are stable (e.g. the coat
//     inventory check disabled from db_load alone);
//   - *forward propagation*: an eagerly DISABLED attribute is stable with
//     value ⊥, which may immediately resolve conditions of later attributes
//     within the same pass;
// and backward in reverse topological order:
//   - *backward propagation*: detection of attributes whose values are
//     unneeded for completing the instance (their consumers are all stable,
//     value-known, disabled, or themselves unneeded). Unneeded tasks never
//     enter the candidate pool.
//
// Each pass is event-driven: it visits only what changed since the last
// one. Beyond a compare of the state bytes, a pass costs the work its
// changes cause, not a visit of every attribute and condition.
//   - Update first compares the snapshot's states with its last-seen copy,
//     which finds the transitions the engine (or a test) made in between
//     without any hook into Snapshot.
//   - The forward worklist holds the attributes that changed and the
//     data/condition consumers of attributes that became stable. It drains
//     in ascending topological index, and every consumer sits after its
//     inputs, so each visit sees exactly the state a full forward sweep
//     would see at that position: transitions fire in the sweep's order.
//     Attributes the sweep would visit without effect are skipped. A
//     condition is re-evaluated only when one of its inputs became stable
//     since its last evaluation (otherwise the result cannot change).
//   - Neededness is the unique fixpoint of a reverse-topological rule over
//     the current states, and every input of that rule (stability,
//     ValueKnown, resolved conditions) only grows within an instance, so
//     neededness only ever falls. The backward worklist therefore rechecks
//     only attributes that became stable and the producers of attributes
//     whose condition resolved or whose neededness fell. It drains in
//     descending topological index and never revisits an attribute already
//     unneeded. On a DAG this reaches the same fixpoint as a full backward
//     sweep.
//   - The candidate list stays sorted by topological index and is
//     re-examined only for attributes whose state or neededness changed.
//
// With option 'N' (naive) a condition is evaluated only once all of its
// inputs are stable, and no unneeded detection is performed.
//
// Options 'S'/'C' select whether READY (speculative) tasks are candidates
// in addition to READY+ENABLED ones.
class Prequalifier {
 public:
  Prequalifier(const Schema* schema, const Strategy& strategy);

  // One prequalifying pass: advances states in `snap` (ENABLED / DISABLED /
  // READY / READY+ENABLED / COMPUTED resolution) and updates the candidate
  // pool. Call after instance start and after every new value, always with
  // the same snapshot.
  void Update(Snapshot* snap);

  // Candidate attributes whose tasks are eligible for execution, in
  // ascending topological order. The engine filters out tasks it has
  // already launched.
  const std::vector<AttributeId>& candidates() const { return candidates_; }

  // True if `a`'s value is (still possibly) needed for successful
  // completion. Always true under option 'N'. Meaningful after Update().
  bool needed(AttributeId a) const { return needed_[static_cast<size_t>(a)] != 0; }

  // Attributes disabled before all their condition inputs stabilized.
  int eager_disables() const { return eager_disables_; }
  // Runnable-but-unneeded tasks pruned from the pool so far (counted once
  // per attribute).
  int unneeded_skipped() const { return unneeded_skipped_; }

  // Profiling taps (obs::FlowProfiler). These describe the instance this
  // prequalifier served.
  //
  // Evaluations of `a`'s (non-literal-true) enabling condition as counted
  // by the §4 algorithm, which evaluates every open condition once per
  // pass: the number of the pass in which the condition resolved, the
  // current pass count while it is still open, and 0 for literal true.
  int cond_evals(AttributeId a) const {
    const auto i = static_cast<size_t>(a);
    return cond_open_[i] != 0 ? passes_ : cond_evals_[i];
  }
  // Terminal truth of `a`'s condition (kUnknown if it never resolved).
  expr::Tribool cond_state(AttributeId a) const {
    return cond_state_[static_cast<size_t>(a)];
  }
  // True iff `a` was disabled before all its condition inputs stabilized.
  bool eager_disabled(AttributeId a) const {
    return eager_disabled_[static_cast<size_t>(a)] != 0;
  }

 private:
  // A set of topological indices, drained in ascending order (forward
  // worklist) or descending order (backward worklist).
  class TopoSet {
   public:
    explicit TopoSet(int n) : words_(static_cast<size_t>((n + 63) / 64), 0) {}
    void Insert(int i) {
      words_[static_cast<size_t>(i >> 6)] |= uint64_t{1} << (i & 63);
    }
    void Erase(int i) {
      words_[static_cast<size_t>(i >> 6)] &= ~(uint64_t{1} << (i & 63));
    }
    bool Contains(int i) const {
      return (words_[static_cast<size_t>(i >> 6)] >> (i & 63) & 1) != 0;
    }
    // Remove and return the smallest / largest member; -1 when empty.
    int PopMin();
    int PopMax();
    // Appends order[i] for every member i, ascending.
    void Collect(const std::vector<AttributeId>& order,
                 std::vector<AttributeId>* out) const;

   private:
    std::vector<uint64_t> words_;
  };

  expr::Tribool ConditionState(const Snapshot& snap, AttributeId a) const;
  // Forward visit of one attribute: resolves its condition if an input
  // stabilized since the last evaluation, then applies the FSA transitions
  // its condition and data-input readiness allow.
  void Visit(Snapshot* snap, AttributeId a);
  // Records a transition of `a` (made by the engine or by Visit) and
  // schedules everything it can affect.
  void OnStateChange(AttributeId a, AttrState to);
  // Backward rule: may `a`'s value still be used by a needed consumer?
  bool ComputeNeeded(const Snapshot& snap, AttributeId a) const;
  void PushProducers(AttributeId a);
  void DrainBackward(const Snapshot& snap);
  void RefreshCandidates(const Snapshot& snap);

  const Schema* schema_;
  Strategy strategy_;
  int passes_ = 0;
  // The snapshot's states as of the end of the last pass.
  std::vector<AttrState> seen_;
  // Cached condition truth per attribute; kUnknown until determined.
  std::vector<expr::Tribool> cond_state_;
  // Pass in which the condition resolved (see cond_evals()).
  std::vector<int> cond_evals_;
  // Condition still open and counted once per pass.
  std::vector<char> cond_open_;
  // A condition input became stable since the last evaluation.
  std::vector<char> cond_dirty_;
  std::vector<char> eager_disabled_;
  std::vector<char> needed_;
  std::vector<char> counted_unneeded_;
  std::vector<AttributeId> candidates_;
  TopoSet forward_;
  TopoSet backward_;
  // Attributes whose state or neededness changed this pass.
  TopoSet touched_;
  TopoSet candidate_set_;
  int eager_disables_ = 0;
  int unneeded_skipped_ = 0;
};

}  // namespace dflow::core

#endif  // DFLOW_CORE_PREQUALIFIER_H_
