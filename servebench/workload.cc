#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/rng.h"
#include "core/semantics.h"
#include "core/strategy.h"

namespace servebench {
namespace {

// Stream family salts: hot_hit and hot_routed share kHotSalt.
constexpr uint64_t kUniqueSalt = 0x756e69715f6d6973ULL;
constexpr uint64_t kHotSalt = 0x686f745f636c6173ULL;
constexpr uint64_t kClassPickSalt = 0x7069636b5f6b6c73ULL;

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"unique_miss", /*hot=*/false, /*routed=*/false},
      {"hot_hit", /*hot=*/true, /*routed=*/false},
      {"hot_routed", /*hot=*/true, /*routed=*/true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

gen::PatternParams PatternParamsFor(int nodes) {
  gen::PatternParams params;
  params.nb_nodes = nodes;
  params.nb_rows = kRows;
  params.seed = kPatternSeed;
  return params;
}

RequestStream::RequestStream(const gen::GeneratedSchema* pattern, bool hot,
                             uint64_t seed)
    : pattern_(pattern), hot_(hot), seed_(seed) {}

int RequestStream::ClassOf(uint64_t index) const {
  if (!hot_) return -1;
  return static_cast<int>(dflow::Rng::Mix(seed_, kClassPickSalt, index + 1) %
                          kHotClasses);
}

uint64_t RequestStream::ClassSeed(int k) const {
  return dflow::Rng::Mix(seed_, kHotSalt, static_cast<uint64_t>(k) + 1);
}

uint64_t RequestStream::InstanceSeed(uint64_t index) const {
  if (hot_) return ClassSeed(ClassOf(index));
  return dflow::Rng::Mix(seed_, kUniqueSalt, index + 1);
}

net::BatchItem RequestStream::Item(uint64_t index) const {
  const uint64_t seed = InstanceSeed(index);
  return net::BatchItem{seed, gen::MakeSourceBinding(*pattern_, seed)};
}

net::BatchItem RequestStream::ClassItem(int k) const {
  const uint64_t seed = ClassSeed(k);
  return net::BatchItem{seed, gen::MakeSourceBinding(*pattern_, seed)};
}

uint64_t FoldWorkloadFingerprint(const std::vector<uint64_t>& fingerprints) {
  uint64_t folded = dflow::Rng::Mix(0x5e7f0b0bULL, fingerprints.size());
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    folded = dflow::Rng::Mix(folded, i, fingerprints[i]);
  }
  return folded;
}

uint64_t ReferenceWorkloadFingerprint(const RequestStream& stream) {
  const std::optional<core::Strategy> strategy =
      core::Strategy::Parse(kStrategy);
  core::FlowHarness harness(&stream.pattern().schema, *strategy);
  const uint64_t count =
      stream.hot() ? static_cast<uint64_t>(kHotClasses) : kFingerprintPrefix;
  std::vector<uint64_t> fingerprints;
  fingerprints.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const net::BatchItem item = stream.hot()
                                    ? stream.ClassItem(static_cast<int>(i))
                                    : stream.Item(i);
    fingerprints.push_back(
        net::FingerprintResult(harness.Run(item.sources, item.seed)));
  }
  return FoldWorkloadFingerprint(fingerprints);
}

std::vector<net::SnapshotEntry> WireSnapshot(
    const core::InstanceResult& result) {
  std::vector<net::SnapshotEntry> entries;
  const int n = result.snapshot.schema().num_attributes();
  entries.reserve(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) {
    const auto attr = static_cast<dflow::AttributeId>(a);
    entries.push_back(net::SnapshotEntry{attr, result.snapshot.state(attr),
                                         result.snapshot.value(attr)});
  }
  return entries;
}

core::InstanceResult RunChecked(core::FlowHarness* harness,
                                const net::BatchItem& item,
                                AnswerChecker* checker) {
  core::InstanceResult result = harness->Run(item.sources, item.seed);
  const core::Schema& schema = result.snapshot.schema();
  std::string why;
  if (!core::IsCompatible(
          schema, core::EvaluateComplete(schema, item.sources, item.seed),
          result.snapshot, &why)) {
    checker->Fail("instance seed " + std::to_string(item.seed) +
                  " is not compatible with its complete snapshot: " + why);
  }
  return result;
}

void AnswerChecker::Check(const std::string& what, uint64_t expected,
                          uint64_t observed) {
  ++checked_;
  if (expected == observed) return;
  char detail[96];
  std::snprintf(detail, sizeof(detail), ": expected %016llx, got %016llx",
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(observed));
  Fail(what + detail);
}

void AnswerChecker::Fail(const std::string& why) {
  if (mismatches_++ == 0) first_failure_ = why;
}

void AnswerChecker::Merge(const AnswerChecker& other) {
  checked_ += other.checked_;
  if (mismatches_ == 0) first_failure_ = other.first_failure_;
  mismatches_ += other.mismatches_;
}

double Tally::ErrorRatio() const {
  return attempted > 0 ? static_cast<double>(failed()) / attempted : 0;
}

void Tally::RecordReply(const net::Completion& completion) {
  if (completion.type == net::MsgType::kSubmitResult) {
    ++ok;
  } else if (completion.type == net::MsgType::kError &&
             (completion.error.code == net::WireError::kRejectedBusy ||
              completion.error.code == net::WireError::kShuttingDown)) {
    ++refused;
  } else {
    ++errored;
  }
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  refused += other.refused;
  errored += other.errored;
  unanswered += other.unanswered;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0) return sorted[lo];
  if (std::isinf(sorted[hi])) return sorted[hi];  // inf * 0 would be NaN
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

LatencySummary SummarizeLatency(std::vector<double> latencies_ms,
                                int64_t failed) {
  latencies_ms.insert(latencies_ms.end(), static_cast<size_t>(failed),
                      std::numeric_limits<double>::infinity());
  std::sort(latencies_ms.begin(), latencies_ms.end());
  LatencySummary summary;
  summary.samples = static_cast<int64_t>(latencies_ms.size());
  summary.p50_ms = Percentile(latencies_ms, 0.50);
  summary.p95_ms = Percentile(latencies_ms, 0.95);
  summary.p99_ms = Percentile(latencies_ms, 0.99);
  return summary;
}

WindowSummary SummarizeWindows(const std::vector<SubWindow>& windows,
                               double seconds) {
  WindowSummary summary;
  if (windows.empty()) return summary;
  const double width = seconds / static_cast<double>(windows.size());
  std::vector<double> rates, p50s, p95s, pooled;
  int64_t failed = 0;
  for (const SubWindow& window : windows) {
    const LatencySummary latency =
        SummarizeLatency(window.latencies_ms, window.failed);
    rates.push_back(static_cast<double>(window.answers) / width);
    p50s.push_back(latency.p50_ms);
    p95s.push_back(latency.p95_ms);
    pooled.insert(pooled.end(), window.latencies_ms.begin(),
                  window.latencies_ms.end());
    failed += window.failed;
  }
  const LatencySummary all = SummarizeLatency(std::move(pooled), failed);
  summary.samples = all.samples;
  summary.rps = Median(rates);
  summary.p50_ms = Median(p50s);
  summary.p95_ms = Median(p95s);
  summary.p99_ms = all.p99_ms;
  return summary;
}

std::string ResultLine(const AnswerChecker& checker, const Tally& tally,
                       const std::vector<Metric>& metrics) {
  const bool correct = Correct(checker, tally);
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed()) +
                     ", \"metrics\": {";
  for (size_t i = 0; correct && i < metrics.size(); ++i) {
    // A failed request is an infinitely slow sample; JSON has no infinity.
    const double value = std::isfinite(metrics[i].value)
                             ? metrics[i].value
                             : std::numeric_limits<double>::max();
    char number[40];
    std::snprintf(number, sizeof(number), "%.17g", value);
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return line + "}}";
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

}  // namespace servebench
