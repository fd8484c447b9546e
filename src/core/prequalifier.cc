#include "core/prequalifier.h"

#include <bit>
#include <cstring>

namespace dflow::core {

int Prequalifier::TopoSet::PopMin() {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      const int bit = std::countr_zero(words_[w]);
      words_[w] &= words_[w] - 1;
      return static_cast<int>(w * 64) + bit;
    }
  }
  return -1;
}

int Prequalifier::TopoSet::PopMax() {
  for (size_t w = words_.size(); w-- > 0;) {
    if (words_[w] != 0) {
      const int bit = 63 - std::countl_zero(words_[w]);
      words_[w] &= ~(uint64_t{1} << bit);
      return static_cast<int>(w * 64) + bit;
    }
  }
  return -1;
}

void Prequalifier::TopoSet::Collect(const std::vector<AttributeId>& order,
                                    std::vector<AttributeId>* out) const {
  for (size_t w = 0; w < words_.size(); ++w) {
    for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      out->push_back(order[w * 64 + static_cast<size_t>(std::countr_zero(bits))]);
    }
  }
}

Prequalifier::Prequalifier(const Schema* schema, const Strategy& strategy)
    : schema_(schema),
      strategy_(strategy),
      seen_(static_cast<size_t>(schema->num_attributes()),
            AttrState::kUninitialized),
      cond_state_(static_cast<size_t>(schema->num_attributes()),
                  expr::Tribool::kUnknown),
      cond_evals_(static_cast<size_t>(schema->num_attributes()), 0),
      cond_open_(static_cast<size_t>(schema->num_attributes()), 0),
      cond_dirty_(static_cast<size_t>(schema->num_attributes()), 1),
      eager_disabled_(static_cast<size_t>(schema->num_attributes()), 0),
      needed_(static_cast<size_t>(schema->num_attributes()), 1),
      counted_unneeded_(static_cast<size_t>(schema->num_attributes()), 0),
      forward_(schema->num_attributes()),
      backward_(schema->num_attributes()),
      touched_(schema->num_attributes()),
      candidate_set_(schema->num_attributes()) {
  for (AttributeId a = 0; a < schema->num_attributes(); ++a) {
    cond_open_[static_cast<size_t>(a)] =
        !schema->is_source(a) && !schema->enabling_condition(a).IsLiteralTrue();
  }
  candidates_.reserve(static_cast<size_t>(schema->num_attributes()));
}

void Prequalifier::Update(Snapshot* snap) {
  ++passes_;
  const int n = schema_->num_attributes();
  if (passes_ == 1) {
    // The first pass is a full sweep: everything is new.
    for (int i = 0; i < n; ++i) {
      forward_.Insert(i);
      if (strategy_.unneeded_detection()) backward_.Insert(i);
      touched_.Insert(i);
    }
  }

  // Transitions made outside the prequalifier since the last pass: a word-
  // wise compare against the last-seen states, then a byte scan of the
  // words that differ.
  const AttrState* now = snap->states().data();
  AttrState* seen = seen_.data();
  for (int base = 0; base < n; base += 8) {
    const int len = n - base < 8 ? n - base : 8;
    if (std::memcmp(now + base, seen + base, static_cast<size_t>(len)) == 0) {
      continue;
    }
    for (int a = base; a < base + len; ++a) {
      if (now[a] == seen[a]) continue;
      forward_.Insert(schema_->topo_index(a));
      OnStateChange(a, now[a]);
    }
  }

  for (int i = forward_.PopMin(); i >= 0; i = forward_.PopMin()) {
    Visit(snap, schema_->topo_order()[static_cast<size_t>(i)]);
  }
  if (strategy_.unneeded_detection()) DrainBackward(*snap);
  RefreshCandidates(*snap);
}

expr::Tribool Prequalifier::ConditionState(const Snapshot& snap,
                                           AttributeId a) const {
  const expr::Condition& cond = schema_->enabling_condition(a);
  if (cond.IsLiteralTrue()) return expr::Tribool::kTrue;
  if (!strategy_.eager_conditions()) {
    // Naive: wait until every condition input is stable, then the
    // evaluation below is definite by construction.
    for (AttributeId in : schema_->cond_inputs(a)) {
      if (!snap.IsStableAttr(in)) return expr::Tribool::kUnknown;
    }
  }
  return cond.Eval(snap);
}

void Prequalifier::Visit(Snapshot* snap, AttributeId a) {
  if (schema_->is_source(a) || snap->IsStableAttr(a)) return;
  const auto ai = static_cast<size_t>(a);

  expr::Tribool& cond = cond_state_[ai];
  if (cond == expr::Tribool::kUnknown && cond_dirty_[ai] != 0) {
    cond_dirty_[ai] = 0;
    cond = ConditionState(*snap, a);
    if (cond != expr::Tribool::kUnknown) {
      if (cond_open_[ai] != 0) {
        cond_open_[ai] = 0;
        cond_evals_[ai] = passes_;
      }
      if (strategy_.unneeded_detection()) PushProducers(a);
    }
    if (cond == expr::Tribool::kFalse) {
      // Eager if some condition input had not stabilized yet.
      for (AttributeId in : schema_->cond_inputs(a)) {
        if (!snap->IsStableAttr(in)) {
          ++eager_disables_;
          eager_disabled_[ai] = 1;
          break;
        }
      }
    }
  }

  bool ready = true;
  for (AttributeId in : schema_->data_inputs(a)) {
    if (!snap->IsStableAttr(in)) {
      ready = false;
      break;
    }
  }

  const AttrState before = snap->state(a);
  switch (before) {
    case AttrState::kUninitialized:
      if (cond == expr::Tribool::kFalse) {
        snap->Transition(a, AttrState::kDisabled);
      } else if (cond == expr::Tribool::kTrue) {
        snap->Transition(a, AttrState::kEnabled);
        if (ready) snap->Transition(a, AttrState::kReadyEnabled);
      } else if (ready) {
        snap->Transition(a, AttrState::kReady);
      }
      break;
    case AttrState::kEnabled:
      if (ready) snap->Transition(a, AttrState::kReadyEnabled);
      break;
    case AttrState::kReady:
      if (cond == expr::Tribool::kTrue) {
        snap->Transition(a, AttrState::kReadyEnabled);
      } else if (cond == expr::Tribool::kFalse) {
        snap->Transition(a, AttrState::kDisabled);
      }
      break;
    case AttrState::kComputed:
      if (cond == expr::Tribool::kTrue) {
        snap->Transition(a, AttrState::kValue);
      } else if (cond == expr::Tribool::kFalse) {
        snap->Transition(a, AttrState::kDisabled);
      }
      break;
    case AttrState::kReadyEnabled:
      break;  // waiting for the task to complete
    case AttrState::kValue:
    case AttrState::kDisabled:
      break;  // stable (unreachable: filtered above)
  }
  const AttrState after = snap->state(a);
  if (after != before) OnStateChange(a, after);
}

void Prequalifier::OnStateChange(AttributeId a, AttrState to) {
  const auto ai = static_cast<size_t>(a);
  seen_[ai] = to;
  const int index = schema_->topo_index(a);
  touched_.Insert(index);
  if (IsStable(to)) {
    // Stabilized from outside with its condition still open (a test may
    // disable an attribute directly): from here on the sweep skips it.
    if (cond_open_[ai] != 0) {
      cond_open_[ai] = 0;
      cond_evals_[ai] = passes_ - 1;
    }
    for (AttributeId b : schema_->data_consumers(a)) {
      forward_.Insert(schema_->topo_index(b));
    }
    for (AttributeId b : schema_->cond_consumers(a)) {
      cond_dirty_[static_cast<size_t>(b)] = 1;
      forward_.Insert(schema_->topo_index(b));
    }
    // Its neededness drops to 0, which reschedules its producers. That also
    // covers their rule's reads of its stability and ValueKnown: the one
    // ValueKnown change that keeps an attribute unstable, READY ->
    // COMPUTED, has only stable data inputs, and the condition clause reads
    // stability alone.
    if (strategy_.unneeded_detection()) backward_.Insert(index);
  }
}

void Prequalifier::PushProducers(AttributeId a) {
  for (AttributeId p : schema_->data_inputs(a)) {
    backward_.Insert(schema_->topo_index(p));
  }
  for (AttributeId p : schema_->cond_inputs(a)) {
    backward_.Insert(schema_->topo_index(p));
  }
}

bool Prequalifier::ComputeNeeded(const Snapshot& snap, AttributeId a) const {
  // An attribute is needed if it is an unstable target, or if some needed
  // consumer may still use it:
  //   - a data consumer whose task may still run (condition not false) and
  //     whose value is not already known;
  //   - a condition consumer whose condition is still unresolved.
  // Everything else is unneeded (backward propagation) and will be kept out
  // of the candidate pool.
  if (snap.IsStableAttr(a)) return false;
  if (schema_->is_target(a)) return true;
  for (AttributeId b : schema_->data_consumers(a)) {
    if (needed_[static_cast<size_t>(b)] != 0 && !snap.ValueKnown(b) &&
        cond_state_[static_cast<size_t>(b)] != expr::Tribool::kFalse) {
      return true;
    }
  }
  for (AttributeId b : schema_->cond_consumers(a)) {
    if (needed_[static_cast<size_t>(b)] != 0 && !snap.IsStableAttr(b) &&
        cond_state_[static_cast<size_t>(b)] == expr::Tribool::kUnknown) {
      return true;
    }
  }
  return false;
}

void Prequalifier::DrainBackward(const Snapshot& snap) {
  // Consumers sit above their producers in topological order, so draining
  // from the top finalizes every consumer before its producers are checked.
  for (int i = backward_.PopMax(); i >= 0; i = backward_.PopMax()) {
    const AttributeId a = schema_->topo_order()[static_cast<size_t>(i)];
    char& needed = needed_[static_cast<size_t>(a)];
    if (needed == 0 || ComputeNeeded(snap, a)) continue;
    needed = 0;
    touched_.Insert(i);
    PushProducers(a);
  }
}

void Prequalifier::RefreshCandidates(const Snapshot& snap) {
  const bool unneeded_detection = strategy_.unneeded_detection();
  bool changed = false;
  for (int i = touched_.PopMin(); i >= 0; i = touched_.PopMin()) {
    const AttributeId a = schema_->topo_order()[static_cast<size_t>(i)];
    if (schema_->is_source(a)) continue;
    const AttrState state = snap.state(a);
    bool candidate = state == AttrState::kReadyEnabled ||
                     (strategy_.speculative && state == AttrState::kReady);
    if (candidate && unneeded_detection &&
        needed_[static_cast<size_t>(a)] == 0) {
      if (counted_unneeded_[static_cast<size_t>(a)] == 0) {
        counted_unneeded_[static_cast<size_t>(a)] = 1;
        ++unneeded_skipped_;
      }
      candidate = false;
    }
    if (candidate != candidate_set_.Contains(i)) {
      changed = true;
      if (candidate) {
        candidate_set_.Insert(i);
      } else {
        candidate_set_.Erase(i);
      }
    }
  }
  if (changed) {
    candidates_.clear();
    candidate_set_.Collect(schema_->topo_order(), &candidates_);
  }
}

}  // namespace dflow::core
