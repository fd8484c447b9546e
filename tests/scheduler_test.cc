#include "core/scheduler.h"

#include <gtest/gtest.h>

#include "core/schema_builder.h"
#include "expr/condition.h"

namespace dflow::core {
namespace {

// A flat schema with queries of distinct costs so the heuristics can be
// told apart: q5, q3, q9, q1, q3b (costs 5, 3, 9, 1, 3), all source-fed.
struct FlatFlow {
  Schema schema;
  std::vector<AttributeId> queries;
};

FlatFlow MakeFlatFlow() {
  SchemaBuilder b;
  const AttributeId src = b.AddSource("src");
  auto noop = [](const TaskContext&) { return Value::Int(0); };
  std::vector<AttributeId> qs;
  qs.push_back(b.AddQuery("q5", 5, noop, {src}));
  qs.push_back(b.AddQuery("q3", 3, noop, {src}));
  qs.push_back(b.AddQuery("q9", 9, noop, {src}));
  qs.push_back(b.AddQuery("q1", 1, noop, {src}));
  qs.push_back(b.AddQuery("q3b", 3, noop, {src}));
  b.AddQuery("t", 1, noop, qs, expr::Condition::True(), /*is_target=*/true);
  auto schema = b.Build();
  return FlatFlow{std::move(*schema), std::move(qs)};
}

// The tasks SelectForLaunch picks, as a fresh vector.
std::vector<AttributeId> Select(const Scheduler& sched,
                                const std::vector<AttributeId>& candidates,
                                int in_flight) {
  std::vector<AttributeId> out = {kInvalidAttribute};  // must be replaced
  sched.SelectForLaunch(candidates, in_flight, &out);
  return out;
}

Strategy WithHeuristic(Strategy::Heuristic h, int pct) {
  Strategy s;
  s.heuristic = h;
  s.pct_permitted = pct;
  return s;
}

TEST(SchedulerTest, EmptyCandidatesYieldNothing) {
  FlatFlow f = MakeFlatFlow();
  Scheduler sched(&f.schema, WithHeuristic(Strategy::Heuristic::kEarliest, 100));
  EXPECT_TRUE(Select(sched, {}, 0).empty());
}

TEST(SchedulerTest, ZeroPercentIsSerial) {
  FlatFlow f = MakeFlatFlow();
  Scheduler sched(&f.schema, WithHeuristic(Strategy::Heuristic::kEarliest, 0));
  const auto picked = Select(sched, f.queries, /*in_flight=*/0);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], f.queries[0]);  // earliest
  // With one query already running, nothing more is permitted.
  EXPECT_TRUE(Select(sched, f.queries, /*in_flight=*/1).empty());
}

TEST(SchedulerTest, HundredPercentLaunchesAll) {
  FlatFlow f = MakeFlatFlow();
  Scheduler sched(&f.schema, WithHeuristic(Strategy::Heuristic::kEarliest, 100));
  EXPECT_EQ(Select(sched, f.queries, 0).size(), f.queries.size());
}

TEST(SchedulerTest, PartialPercentCapsInFlight) {
  FlatFlow f = MakeFlatFlow();
  Scheduler sched(&f.schema, WithHeuristic(Strategy::Heuristic::kEarliest, 40));
  // Pool = 5 candidates + 0 in flight; 40% of 5 = 2 permitted.
  const auto first = Select(sched, f.queries, 0);
  EXPECT_EQ(first.size(), 2u);
  // As the engine would, drop the launched tasks from the candidate list:
  // pool = 3 remaining + 2 in flight = 5; 40% of 5 = 2 <= in flight, so
  // nothing more may launch until a completion frees a slot.
  const std::vector<AttributeId> remaining(f.queries.begin() + 2,
                                           f.queries.end());
  EXPECT_TRUE(Select(sched, remaining, 2).empty());
  // After one completion (pool = 3 + 1): ceil(40% of 4) = 2 -> one more.
  EXPECT_EQ(Select(sched, remaining, 1).size(), 1u);
}

TEST(SchedulerTest, AtLeastOneTaskAlwaysPermitted) {
  // %Permitted 0 with nothing in flight must still pick one task (the
  // paper's constraint "at least one attribute must be selected").
  FlatFlow f = MakeFlatFlow();
  Scheduler sched(&f.schema, WithHeuristic(Strategy::Heuristic::kCheapest, 0));
  EXPECT_EQ(Select(sched, {f.queries[2]}, 0).size(), 1u);
}

TEST(SchedulerTest, EarliestOrdersTopologically) {
  FlatFlow f = MakeFlatFlow();
  Scheduler sched(&f.schema, WithHeuristic(Strategy::Heuristic::kEarliest, 100));
  const auto picked = Select(sched, f.queries, 0);
  for (size_t i = 1; i < picked.size(); ++i) {
    EXPECT_LT(f.schema.topo_index(picked[i - 1]), f.schema.topo_index(picked[i]));
  }
}

TEST(SchedulerTest, CheapestOrdersByCost) {
  FlatFlow f = MakeFlatFlow();
  Scheduler sched(&f.schema, WithHeuristic(Strategy::Heuristic::kCheapest, 100));
  const auto picked = Select(sched, f.queries, 0);
  ASSERT_EQ(picked.size(), 5u);
  // Costs: q1(1), q3(3), q3b(3), q5(5), q9(9); ties broken topologically.
  EXPECT_EQ(f.schema.attribute(picked[0]).name, "q1");
  EXPECT_EQ(f.schema.attribute(picked[1]).name, "q3");
  EXPECT_EQ(f.schema.attribute(picked[2]).name, "q3b");
  EXPECT_EQ(f.schema.attribute(picked[3]).name, "q5");
  EXPECT_EQ(f.schema.attribute(picked[4]).name, "q9");
}

TEST(SchedulerTest, CheapestPicksCheapestUnderSerial) {
  FlatFlow f = MakeFlatFlow();
  Scheduler sched(&f.schema, WithHeuristic(Strategy::Heuristic::kCheapest, 0));
  const auto picked = Select(sched, f.queries, 0);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(f.schema.attribute(picked[0]).name, "q1");
}

}  // namespace
}  // namespace dflow::core
