// Differential test of the event-driven Prequalifier against the original
// full-sweep implementation of the §4 Propagation Algorithm, kept here as
// the oracle. Both prequalifiers are driven in lockstep, each on its own
// snapshot, through randomized legal completion orders; after every Update
// every observable must agree.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/prequalifier.h"
#include "core/scheduler.h"
#include "core/schema.h"
#include "core/snapshot.h"
#include "core/strategy.h"
#include "gen/schema_generator.h"
#include "test_util.h"

namespace dflow::core {
namespace {

// The full-sweep prequalifier: every Update re-sweeps every attribute
// forward (eager evaluation + forward propagation), backward (unneeded
// detection) and once more to collect candidates.
class SweepPrequalifier {
 public:
  SweepPrequalifier(const Schema* schema, const Strategy& strategy)
      : schema_(schema),
        strategy_(strategy),
        cond_state_(static_cast<size_t>(schema->num_attributes()),
                    expr::Tribool::kUnknown),
        cond_evals_(static_cast<size_t>(schema->num_attributes()), 0),
        eager_disabled_(static_cast<size_t>(schema->num_attributes()), 0),
        needed_(static_cast<size_t>(schema->num_attributes()), 1),
        counted_unneeded_(static_cast<size_t>(schema->num_attributes()), 0) {}

  void Update(Snapshot* snap) {
    ForwardPass(snap);
    if (strategy_.unneeded_detection()) BackwardPass(*snap);
    CollectCandidates(*snap);
  }

  const std::vector<AttributeId>& candidates() const { return candidates_; }
  bool needed(AttributeId a) const {
    return needed_[static_cast<size_t>(a)] != 0;
  }
  int eager_disables() const { return eager_disables_; }
  int unneeded_skipped() const { return unneeded_skipped_; }
  int cond_evals(AttributeId a) const {
    return cond_evals_[static_cast<size_t>(a)];
  }
  expr::Tribool cond_state(AttributeId a) const {
    return cond_state_[static_cast<size_t>(a)];
  }
  bool eager_disabled(AttributeId a) const {
    return eager_disabled_[static_cast<size_t>(a)] != 0;
  }

 private:
  expr::Tribool ConditionState(const Snapshot& snap, AttributeId a) const {
    const expr::Condition& cond = schema_->enabling_condition(a);
    if (cond.IsLiteralTrue()) return expr::Tribool::kTrue;
    if (!strategy_.eager_conditions()) {
      for (AttributeId in : schema_->cond_inputs(a)) {
        if (!snap.IsStableAttr(in)) return expr::Tribool::kUnknown;
      }
    }
    return cond.Eval(snap);
  }

  void ForwardPass(Snapshot* snap) {
    for (AttributeId a : schema_->topo_order()) {
      if (schema_->is_source(a) || snap->IsStableAttr(a)) continue;

      expr::Tribool& cond = cond_state_[static_cast<size_t>(a)];
      if (cond == expr::Tribool::kUnknown) {
        if (!schema_->enabling_condition(a).IsLiteralTrue()) {
          ++cond_evals_[static_cast<size_t>(a)];
        }
        cond = ConditionState(*snap, a);
        if (cond == expr::Tribool::kFalse) {
          for (AttributeId in : schema_->cond_inputs(a)) {
            if (!snap->IsStableAttr(in)) {
              ++eager_disables_;
              eager_disabled_[static_cast<size_t>(a)] = 1;
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

      switch (snap->state(a)) {
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
        case AttrState::kValue:
        case AttrState::kDisabled:
          break;
      }
    }
  }

  void BackwardPass(const Snapshot& snap) {
    const auto& order = schema_->topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const AttributeId a = *it;
      if (snap.IsStableAttr(a)) {
        needed_[static_cast<size_t>(a)] = 0;
        continue;
      }
      bool needed = schema_->is_target(a);
      if (!needed) {
        for (AttributeId b : schema_->data_consumers(a)) {
          if (needed_[static_cast<size_t>(b)] != 0 && !snap.ValueKnown(b) &&
              cond_state_[static_cast<size_t>(b)] != expr::Tribool::kFalse) {
            needed = true;
            break;
          }
        }
      }
      if (!needed) {
        for (AttributeId b : schema_->cond_consumers(a)) {
          if (needed_[static_cast<size_t>(b)] != 0 && !snap.IsStableAttr(b) &&
              cond_state_[static_cast<size_t>(b)] == expr::Tribool::kUnknown) {
            needed = true;
            break;
          }
        }
      }
      needed_[static_cast<size_t>(a)] = needed ? 1 : 0;
    }
  }

  void CollectCandidates(const Snapshot& snap) {
    candidates_.clear();
    for (AttributeId a : schema_->topo_order()) {
      if (schema_->is_source(a)) continue;
      const AttrState state = snap.state(a);
      const bool runnable =
          state == AttrState::kReadyEnabled ||
          (strategy_.speculative && state == AttrState::kReady);
      if (!runnable) continue;
      if (strategy_.unneeded_detection() &&
          needed_[static_cast<size_t>(a)] == 0) {
        if (counted_unneeded_[static_cast<size_t>(a)] == 0) {
          counted_unneeded_[static_cast<size_t>(a)] = 1;
          ++unneeded_skipped_;
        }
        continue;
      }
      candidates_.push_back(a);
    }
  }

  const Schema* schema_;
  Strategy strategy_;
  std::vector<expr::Tribool> cond_state_;
  std::vector<int> cond_evals_;
  std::vector<char> eager_disabled_;
  std::vector<char> needed_;
  std::vector<char> counted_unneeded_;
  std::vector<AttributeId> candidates_;
  int eager_disables_ = 0;
  int unneeded_skipped_ = 0;
};

// Lockstep driver: one snapshot per prequalifier, the same launches and
// completions applied to both. Completions arrive in a random order (any
// in-flight task may finish next), so tasks complete speculatively into
// COMPUTED, complete after being disabled in flight, and complete long
// after the targets stabilized. With `external_disables`, the driver also
// disables random unstable attributes itself between passes, as a test
// poking the snapshot would.
class Lockstep {
 public:
  Lockstep(const Schema* schema, const Strategy& strategy,
           const SourceBinding& sources, uint64_t order_seed,
           bool external_disables = false)
      : schema_(schema),
        strategy_(strategy),
        scheduler_(schema, strategy),
        ref_snap_(schema),
        new_snap_(schema),
        ref_(schema, strategy),
        new_(schema, strategy),
        launched_(static_cast<size_t>(schema->num_attributes()), 0),
        rng_(order_seed),
        external_disables_(external_disables) {
    ref_snap_.BindSources(sources);
    new_snap_.BindSources(sources);
  }

  // Runs until nothing is in flight and nothing is left to launch.
  void Run() {
    UpdateBoth();
    while (true) {
      LaunchSome();
      if (in_flight_.empty()) break;
      const size_t pick = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(in_flight_.size()) - 1));
      const AttributeId a = in_flight_[pick];
      in_flight_[pick] = in_flight_.back();
      in_flight_.pop_back();
      Complete(&ref_snap_, a);
      Complete(&new_snap_, a);
      if (external_disables_ && rng_.Chance(0.3)) DisableOne();
      UpdateBoth();
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_TRUE(new_snap_.AllTargetsStable());
  }

  int speculative_completions() const { return speculative_completions_; }
  int disabled_in_flight() const { return disabled_in_flight_; }

 private:
  void UpdateBoth() {
    ref_.Update(&ref_snap_);
    new_.Update(&new_snap_);
    ++passes_;
    Compare();
  }

  void Compare() {
    SCOPED_TRACE("pass " + std::to_string(passes_) + " strategy " +
                 strategy_.ToString());
    const int n = schema_->num_attributes();
    for (AttributeId a = 0; a < n; ++a) {
      SCOPED_TRACE(schema_->attribute(a).name);
      ASSERT_EQ(new_snap_.state(a), ref_snap_.state(a));
      ASSERT_EQ(new_.needed(a), ref_.needed(a));
      ASSERT_EQ(new_.cond_state(a), ref_.cond_state(a));
      ASSERT_EQ(new_.cond_evals(a), ref_.cond_evals(a));
      ASSERT_EQ(new_.eager_disabled(a), ref_.eager_disabled(a));
    }
    ASSERT_EQ(new_.candidates(), ref_.candidates());
    ASSERT_EQ(new_.eager_disables(), ref_.eager_disables());
    ASSERT_EQ(new_.unneeded_skipped(), ref_.unneeded_skipped());
  }

  void LaunchSome() {
    std::vector<AttributeId> fresh;
    for (AttributeId a : new_.candidates()) {
      if (launched_[static_cast<size_t>(a)] == 0) fresh.push_back(a);
    }
    std::vector<AttributeId> selected;
    scheduler_.SelectForLaunch(fresh, static_cast<int>(in_flight_.size()),
                               &selected);
    for (AttributeId a : selected) {
      launched_[static_cast<size_t>(a)] = 1;
      in_flight_.push_back(a);
    }
  }

  // Disables one random attribute that the FSA lets reach DISABLED from
  // its current state, in both snapshots.
  void DisableOne() {
    const auto a = static_cast<AttributeId>(
        rng_.UniformInt(0, schema_->num_attributes() - 1));
    if (!IsValidTransition(new_snap_.state(a), AttrState::kDisabled)) return;
    ASSERT_TRUE(ref_snap_.Transition(a, AttrState::kDisabled));
    ASSERT_TRUE(new_snap_.Transition(a, AttrState::kDisabled));
  }

  // Applies the engine's completion rule to one snapshot.
  void Complete(Snapshot* snap, AttributeId a) {
    const auto value = [&] {
      TaskContext ctx;
      ctx.attr = a;
      ctx.instance_seed = 17;
      ctx.input = [snap](AttributeId in) { return snap->value(in); };
      return schema_->task(a).fn(ctx);
    };
    switch (snap->state(a)) {
      case AttrState::kReadyEnabled:
        ASSERT_TRUE(snap->Transition(a, AttrState::kValue, value()));
        break;
      case AttrState::kReady:
        ASSERT_TRUE(snap->Transition(a, AttrState::kComputed, value()));
        if (snap == &new_snap_) ++speculative_completions_;
        break;
      case AttrState::kDisabled:
        if (snap == &new_snap_) ++disabled_in_flight_;
        break;
      default:
        FAIL() << "completion in state " << ToString(snap->state(a));
    }
  }

  const Schema* schema_;
  Strategy strategy_;
  Scheduler scheduler_;
  Snapshot ref_snap_;
  Snapshot new_snap_;
  SweepPrequalifier ref_;
  Prequalifier new_;
  std::vector<char> launched_;
  std::vector<AttributeId> in_flight_;
  Rng rng_;
  bool external_disables_;
  int passes_ = 0;
  int speculative_completions_ = 0;
  int disabled_in_flight_ = 0;
};

// How often the randomized orders reached the two completion cases the
// sweep is most likely to get wrong incrementally.
struct Coverage {
  int speculative_completions = 0;
  int disabled_in_flight = 0;

  void Add(const Lockstep& run) {
    speculative_completions += run.speculative_completions();
    disabled_in_flight += run.disabled_in_flight();
  }
  void ExpectBothCases() const {
    EXPECT_GT(speculative_completions, 0);
    EXPECT_GT(disabled_in_flight, 0);
  }
};

void CheckPattern(int nodes, uint64_t pattern_seed, int instances,
                  Coverage* coverage, bool external_disables = false) {
  gen::PatternParams params;
  params.nb_nodes = nodes;
  params.nb_rows = nodes >= 16 ? 4 : 2;
  params.seed = pattern_seed;
  const gen::GeneratedSchema pattern = gen::GeneratePattern(params);
  for (const Strategy& strategy : test::AllStrategies()) {
    for (int i = 0; i < instances; ++i) {
      SCOPED_TRACE("nodes " + std::to_string(nodes) + " pattern seed " +
                   std::to_string(pattern_seed) + " instance " +
                   std::to_string(i));
      const uint64_t seed = gen::InstanceSeed(params, i);
      Lockstep run(&pattern.schema, strategy,
                   gen::MakeSourceBinding(pattern, seed),
                   Rng::Mix(seed, static_cast<uint64_t>(strategy.pct_permitted)),
                   external_disables);
      run.Run();
      coverage->Add(run);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(PrequalifierOracleTest, Patterns8Nodes) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    CheckPattern(8, seed, 8, &coverage);
  }
  coverage.ExpectBothCases();
}

TEST(PrequalifierOracleTest, Patterns16Nodes) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CheckPattern(16, seed, 6, &coverage);
  }
  coverage.ExpectBothCases();
}

TEST(PrequalifierOracleTest, Patterns64Nodes) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CheckPattern(64, seed, 4, &coverage);
  }
  coverage.ExpectBothCases();
}

TEST(PrequalifierOracleTest, Patterns256Nodes) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    CheckPattern(256, seed, 2, &coverage);
  }
  coverage.ExpectBothCases();
}

TEST(PrequalifierOracleTest, ExternalDisables) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    CheckPattern(16, seed, 4, &coverage, /*external_disables=*/true);
    CheckPattern(64, seed, 2, &coverage, /*external_disables=*/true);
  }
  coverage.ExpectBothCases();
}

TEST(PrequalifierOracleTest, PromoFlow) {
  const test::PromoFlow f = test::MakePromoFlow();
  const std::vector<SourceBinding> bindings = {
      test::HappyBindings(f),
      {{f.income, Value::Int(50)},
       {f.cart_boys, Value::Bool(false)},
       {f.db_load, Value::Int(20)}},
      {{f.income, Value::Int(0)},
       {f.cart_boys, Value::Bool(true)},
       {f.db_load, Value::Int(20)}},
      {{f.income, Value::Int(50)},
       {f.cart_boys, Value::Bool(true)},
       {f.db_load, Value::Int(99)}},
      {},
  };
  Coverage coverage;
  for (const Strategy& strategy : test::AllStrategies()) {
    for (size_t b = 0; b < bindings.size(); ++b) {
      for (uint64_t order = 0; order < 4; ++order) {
        SCOPED_TRACE("binding " + std::to_string(b));
        Lockstep run(&f.schema, strategy, bindings[b], order);
        run.Run();
        coverage.Add(run);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  coverage.ExpectBothCases();
}

}  // namespace
}  // namespace dflow::core
