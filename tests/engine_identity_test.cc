// Pins the engine's observable behaviour to recorded hashes: every FSA
// transition (in order), every result fingerprint (terminal snapshot plus
// all InstanceMetrics) and every FlowProfiler counter, over generated
// schemas x execution strategies, with several instances interleaved on
// one engine. A refactor of the prequalifier, scheduler or engine loop
// that changes any of these — even the order of two transitions — fails
// here. The pinned values were produced by the full-sweep prequalifier.

#include <cstdint>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/strategy.h"
#include "gen/schema_generator.h"
#include "net/wire_protocol.h"
#include "obs/flow_profiler.h"
#include "sim/database_server.h"
#include "sim/infinite_service.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace dflow::core {
namespace {

constexpr int kInstancesPerRun = 6;

uint64_t FoldProfile(uint64_t h, const obs::ProfileSnapshot& profile) {
  for (const obs::AttrProfile& a : profile.attrs) {
    for (int64_t v : {a.launches, a.work_units, a.speculative_launches,
                      a.wasted_work, a.useful_completions}) {
      h = Rng::Mix(h, static_cast<uint64_t>(v));
    }
  }
  for (const obs::CondProfile& c : profile.conds) {
    for (int64_t v : {c.evals, c.true_outcomes, c.false_outcomes,
                      c.unknown_outcomes, c.eager_disables}) {
      h = Rng::Mix(h, static_cast<uint64_t>(v));
    }
  }
  return h;
}

// Runs kInstancesPerRun instances of `pattern` concurrently on one engine
// (all started at time 0, so their steps interleave) and folds everything
// observable into one hash. `db` selects the bounded backend.
uint64_t RunAndHash(const gen::GeneratedSchema& pattern,
                    const Strategy& strategy, bool db) {
  sim::Simulator sim;
  std::optional<sim::InfiniteResourceService> infinite;
  std::optional<sim::DatabaseServer> bounded;
  sim::QueryService* service = nullptr;
  if (db) {
    service = &bounded.emplace(&sim, sim::DatabaseParams{}, 7);
  } else {
    service = &infinite.emplace(&sim);
  }
  ExecutionEngine engine(&pattern.schema, strategy, &sim, service);
  obs::FlowProfiler profiler(&pattern.schema,
                             obs::FlowProfilerOptions{.sample_period = 1});
  engine.SetProfiler(&profiler);

  uint64_t h = 0x1de7171e5ULL;
  engine.SetTraceListener(
      [&h](int64_t id, AttributeId a, AttrState from, AttrState to) {
        h = Rng::Mix(h, static_cast<uint64_t>(id));
        h = Rng::Mix(h, static_cast<uint64_t>(a));
        h = Rng::Mix(h, static_cast<uint64_t>(from) << 8 |
                            static_cast<uint64_t>(to));
      });
  int done = 0;
  for (int i = 0; i < kInstancesPerRun; ++i) {
    const uint64_t seed = gen::InstanceSeed(pattern.params, i);
    engine.StartInstance(gen::MakeSourceBinding(pattern, seed), seed,
                         [&h, &done](InstanceResult r) {
                           h = Rng::Mix(h, static_cast<uint64_t>(r.instance_id));
                           h = Rng::Mix(h, net::FingerprintResult(r));
                           ++done;
                         });
  }
  sim.RunUntilEmpty();
  EXPECT_EQ(done, kInstancesPerRun);
  return FoldProfile(h, profiler.Snapshot());
}

uint64_t HashForSize(int nodes, bool db) {
  uint64_t h = static_cast<uint64_t>(nodes);
  for (uint64_t pattern_seed : {3, 11, 29}) {
    gen::PatternParams params;
    params.nb_nodes = nodes;
    params.nb_rows = 4;
    params.seed = pattern_seed;
    const gen::GeneratedSchema pattern = gen::GeneratePattern(params);
    for (const Strategy& strategy : test::AllStrategies()) {
      h = Rng::Mix(h, RunAndHash(pattern, strategy, db));
    }
  }
  return h;
}

TEST(EngineIdentityTest, InfiniteBackend16Nodes) {
  EXPECT_EQ(HashForSize(16, false), 0x4f5c59cbe35634b1ULL);
}

TEST(EngineIdentityTest, InfiniteBackend64Nodes) {
  EXPECT_EQ(HashForSize(64, false), 0x62150e3b5a70ba39ULL);
}

TEST(EngineIdentityTest, InfiniteBackend256Nodes) {
  EXPECT_EQ(HashForSize(256, false), 0xafc6fe4056db6d41ULL);
}

TEST(EngineIdentityTest, BoundedBackend64Nodes) {
  EXPECT_EQ(HashForSize(64, true), 0xde5b59e3d0f900eaULL);
}

}  // namespace
}  // namespace dflow::core
