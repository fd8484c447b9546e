#ifndef DFLOW_CORE_SNAPSHOT_H_
#define DFLOW_CORE_SNAPSHOT_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/value.h"
#include "core/attribute_state.h"
#include "core/schema.h"
#include "expr/predicate.h"

namespace dflow::core {

// Values for the source attributes of one instance, e.g. the customer
// profile and shopping cart of Figure 1. Sources not bound default to null.
using SourceBinding = std::vector<std::pair<AttributeId, Value>>;

// The extended snapshot of §3: a (state, value) pair per attribute, where
// states range over the Figure 3 FSA. The execution algorithm constructs a
// series of snapshots, each incorporating newly acquired information; this
// class is the mutable runtime representation and doubles as the
// AttributeEnv used to (partially) evaluate enabling conditions.
//
// Monotonicity invariant (§2): transitions follow the FSA only, so an
// assigned value is never overwritten and stable states are final.
// Transition() checks this and reports violations to the caller rather than
// silently corrupting the run.
class Snapshot : public expr::AttributeEnv {
 public:
  explicit Snapshot(const Schema* schema);

  // Binds source values (missing sources stay null) — sources are in state
  // VALUE from the start, per §2.
  void BindSources(const SourceBinding& sources);

  const Schema& schema() const { return *schema_; }

  AttrState state(AttributeId a) const {
    return states_[static_cast<size_t>(a)];
  }
  // Every attribute's state, indexed by AttributeId.
  const std::vector<AttrState>& states() const { return states_; }
  // The current value: meaningful in states VALUE and COMPUTED; the null
  // value in DISABLED; null otherwise.
  const Value& value(AttributeId a) const {
    return values_[static_cast<size_t>(a)];
  }

  bool IsStableAttr(AttributeId a) const { return IsStable(state(a)); }
  // True iff the value of `a` is already known (stable, or speculatively
  // COMPUTED while its condition is pending).
  bool ValueKnown(AttributeId a) const {
    const AttrState s = state(a);
    return IsStable(s) || s == AttrState::kComputed;
  }

  // AttributeEnv: stable attributes expose their final value (null for
  // DISABLED); unstable attributes are unknown. Note COMPUTED values are
  // *not* exposed to conditions: the attribute is not yet stable, and §2's
  // semantics evaluates conditions over stable values only.
  std::optional<Value> StableValue(AttributeId id) const override;

  // Applies one FSA transition; `value` must be provided when entering
  // VALUE or COMPUTED (ignored otherwise; DISABLED forces the null value).
  // Returns false (and leaves the snapshot unchanged) on an illegal
  // transition.
  bool Transition(AttributeId a, AttrState to, Value value = Value::Null());

  // Observer for successful transitions (tracing, trajectory property
  // tests). Invoked after the state/value update. At most one listener.
  using TransitionListener =
      std::function<void(AttributeId, AttrState from, AttrState to)>;
  void SetTransitionListener(TransitionListener listener) {
    listener_ = std::move(listener);
  }

  bool AllTargetsStable() const;
  int num_stable() const { return num_stable_; }

  std::string DebugString() const;

 private:
  const Schema* schema_;
  std::vector<AttrState> states_;
  std::vector<Value> values_;
  int num_stable_ = 0;
  TransitionListener listener_;
};

}  // namespace dflow::core

#endif  // DFLOW_CORE_SNAPSHOT_H_
