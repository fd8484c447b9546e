// Tests of the benchmark's own logic: percentiles, failure accounting, the
// answer check that fails a run, and how the seed shapes the workload.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload.h"

namespace servebench {
namespace {

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.5), 3);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 0.95), 4.8);
  EXPECT_DOUBLE_EQ(Percentile(sorted, 1.0), 5);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.99), 7);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2, 10}), 2.5);
}

TEST(Percentile, SummaryCountsEverySample) {
  std::vector<double> latencies;
  for (int i = 1; i <= 1000; ++i) latencies.push_back(i);
  const LatencySummary summary = SummarizeLatency(latencies, 0);
  EXPECT_EQ(summary.samples, 1000);
  EXPECT_NEAR(summary.p50_ms, 500.5, 1e-9);
  EXPECT_NEAR(summary.p95_ms, 950.05, 1e-9);
  EXPECT_NEAR(summary.p99_ms, 990.01, 1e-9);
}

TEST(Percentile, FailedRequestsMissEveryLatencyLimit) {
  // 94 fast answers and 6 failures: the failures are the slowest 6%, so
  // p95 is a failure (infinite) while p50 is unaffected.
  const std::vector<double> fast(94, 1.0);
  const LatencySummary summary = SummarizeLatency(fast, 6);
  EXPECT_EQ(summary.samples, 100);
  EXPECT_DOUBLE_EQ(summary.p50_ms, 1.0);
  EXPECT_TRUE(std::isinf(summary.p95_ms));
  EXPECT_TRUE(std::isinf(summary.p99_ms));
}

TEST(Percentile, WindowFiguresAreMediansOfSubWindows) {
  // Three 1-second sub-windows; the middle one is disturbed.
  std::vector<SubWindow> windows(3);
  windows[0] = {100, 0, std::vector<double>(100, 1.0)};
  windows[1] = {10, 0, std::vector<double>(10, 9.0)};
  windows[2] = {120, 0, std::vector<double>(120, 2.0)};
  const WindowSummary summary = SummarizeWindows(windows, 3.0);
  EXPECT_EQ(summary.samples, 230);
  EXPECT_DOUBLE_EQ(summary.rps, 100);
  EXPECT_DOUBLE_EQ(summary.p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(summary.p95_ms, 2.0);
  // p99 pools every sample: the disturbed sub-window's slowest 10 of 230.
  EXPECT_DOUBLE_EQ(summary.p99_ms, 9.0);

  // A failure is an infinitely slow sample in the sub-window it hit.
  windows[0].failed = 10;
  const WindowSummary failed = SummarizeWindows(windows, 3.0);
  EXPECT_EQ(failed.samples, 240);
  EXPECT_TRUE(std::isinf(failed.p99_ms));
}

net::Completion Reply(net::MsgType type, net::WireError code) {
  net::Completion completion;
  completion.type = type;
  completion.error.code = code;
  return completion;
}

TEST(Tally, RefusalsAndErrorsCountAsFailures) {
  Tally tally;
  tally.attempted = 10;
  for (int i = 0; i < 6; ++i) {
    tally.RecordReply(Reply(net::MsgType::kSubmitResult, net::WireError::kNone));
  }
  tally.RecordReply(Reply(net::MsgType::kError, net::WireError::kRejectedBusy));
  tally.RecordReply(Reply(net::MsgType::kError, net::WireError::kShuttingDown));
  tally.RecordReply(
      Reply(net::MsgType::kError, net::WireError::kMalformedFrame));
  tally.unanswered = 1;
  EXPECT_EQ(tally.ok, 6);
  EXPECT_EQ(tally.refused, 2);
  EXPECT_EQ(tally.errored, 1);
  EXPECT_EQ(tally.failed(), 4);
  EXPECT_DOUBLE_EQ(tally.ErrorRatio(), 0.4);
  EXPECT_TRUE(tally.Balanced());

  Tally other;
  other.attempted = 2;
  other.RecordReply(Reply(net::MsgType::kError, net::WireError::kRejectedBusy));
  tally.Merge(other);
  EXPECT_EQ(tally.refused, 3);
  // One of the two attempts was never settled: the run does not balance.
  EXPECT_FALSE(tally.Balanced());
}

TEST(Tally, AllRefusedIsErrorRatioOne) {
  Tally tally;
  tally.attempted = 3;
  for (int i = 0; i < 3; ++i) {
    tally.RecordReply(
        Reply(net::MsgType::kError, net::WireError::kRejectedBusy));
  }
  EXPECT_DOUBLE_EQ(tally.ErrorRatio(), 1.0);
  EXPECT_TRUE(tally.Balanced());
}

class WorkloadTest : public ::testing::Test {
 protected:
  const gen::GeneratedSchema pattern_ =
      gen::GeneratePattern(PatternParamsFor(kNodes));
};

TEST_F(WorkloadTest, CorruptedFingerprintFailsTheRun) {
  const RequestStream stream(&pattern_, /*hot=*/true, 7);
  AnswerChecker reference_check;
  std::vector<uint64_t> answers;
  core::FlowHarness harness(&pattern_.schema,
                            *core::Strategy::Parse(kStrategy));
  for (int k = 0; k < 8; ++k) {
    answers.push_back(net::FingerprintResult(
        RunChecked(&harness, stream.ClassItem(k), &reference_check)));
  }
  ASSERT_TRUE(reference_check.ok()) << reference_check.first_failure();

  Tally tally;
  tally.attempted = tally.ok = 8;
  const std::vector<Metric> metrics = {{"throughput_rps", "1/s", 1234.5}};

  AnswerChecker clean;
  for (size_t k = 0; k < answers.size(); ++k) {
    clean.Check("class " + std::to_string(k), answers[k], answers[k]);
  }
  EXPECT_TRUE(Correct(clean, tally));
  EXPECT_EQ(ResultLine(clean, tally, metrics),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, "
            "\"metrics\": {\"throughput_rps\": {\"value\": 1234.5, "
            "\"unit\": \"1/s\"}}}");

  std::vector<uint64_t> corrupted = answers;
  corrupted[5] ^= 1;  // one flipped bit in one answer
  AnswerChecker checker;
  for (size_t k = 0; k < answers.size(); ++k) {
    checker.Check("class " + std::to_string(k), answers[k], corrupted[k]);
  }
  EXPECT_FALSE(checker.ok());
  EXPECT_EQ(checker.checked(), 8);
  EXPECT_EQ(checker.mismatches(), 1);
  EXPECT_NE(checker.first_failure().find("class 5"), std::string::npos);
  EXPECT_FALSE(Correct(checker, tally));
  // No metrics are reported for a run that failed an answer check.
  EXPECT_EQ(ResultLine(checker, tally, metrics),
            "{\"correct\": false, \"attempted\": 8, \"failed\": 0, "
            "\"metrics\": {}}");
  // The workload fingerprint moves too.
  EXPECT_NE(FoldWorkloadFingerprint(answers),
            FoldWorkloadFingerprint(corrupted));
}

TEST_F(WorkloadTest, SameSeedSameWorkloadFingerprint) {
  for (const bool hot : {false, true}) {
    const RequestStream a(&pattern_, hot, 42);
    const RequestStream b(&pattern_, hot, 42);
    EXPECT_EQ(ReferenceWorkloadFingerprint(a),
              ReferenceWorkloadFingerprint(b));
  }
}

TEST_F(WorkloadTest, DifferentSeedDifferentWorkloadFingerprint) {
  for (const bool hot : {false, true}) {
    const RequestStream a(&pattern_, hot, 42);
    const RequestStream b(&pattern_, hot, 43);
    EXPECT_NE(ReferenceWorkloadFingerprint(a),
              ReferenceWorkloadFingerprint(b));
    // The seed changes both the instance seeds and the source bindings.
    EXPECT_NE(a.Item(0).seed, b.Item(0).seed);
    EXPECT_NE(a.Item(0).sources, b.Item(0).sources);
  }
}

TEST_F(WorkloadTest, HotWorkloadsSendTheSameRequests) {
  const WorkloadSpec* hit = FindWorkload("hot_hit");
  const WorkloadSpec* routed = FindWorkload("hot_routed");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(routed, nullptr);
  const RequestStream a(&pattern_, hit->hot, 9);
  const RequestStream b(&pattern_, routed->hot, 9);
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Item(i), b.Item(i));
    EXPECT_EQ(a.Item(i), a.ClassItem(a.ClassOf(i)));
  }
  EXPECT_EQ(hit->batch(), routed->batch());
  EXPECT_EQ(hit->want_snapshot(), routed->want_snapshot());
}

TEST_F(WorkloadTest, UniqueStreamNeverRepeatsAndHotStreamCoversItsClasses) {
  const RequestStream unique(&pattern_, false, 5);
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < 5000; ++i) seeds.push_back(unique.InstanceSeed(i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());

  const RequestStream hot(&pattern_, true, 5);
  std::vector<int> hits(kHotClasses, 0);
  for (uint64_t i = 0; i < 30000; ++i) ++hits[hot.ClassOf(i)];
  for (const int n : hits) EXPECT_GT(n, 0);
}

TEST(Workloads, FindsEveryWorkloadByName) {
  ASSERT_EQ(Workloads().size(), 3u);
  for (const WorkloadSpec& spec : Workloads()) {
    EXPECT_EQ(FindWorkload(spec.name), &spec);
  }
  EXPECT_EQ(FindWorkload("no_such_workload"), nullptr);
  EXPECT_TRUE(Checked(0));
  EXPECT_TRUE(Checked(kFingerprintPrefix - 1));
  EXPECT_FALSE(Checked(kFingerprintPrefix + 1));
  EXPECT_TRUE(Checked(kFingerprintPrefix * kCheckStride));
}

}  // namespace
}  // namespace servebench
