#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

// The benchmark's inputs and its verdict logic: the three workloads, the
// seeded request streams they send, the workload fingerprint, the answer
// checker, failure accounting and latency percentiles. Everything here is
// a pure function of its arguments so the benchmark's own tests can pin it.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "core/runner.h"
#include "gen/schema_generator.h"
#include "net/client.h"
#include "net/wire_protocol.h"

namespace servebench {

namespace core = dflow::core;
namespace gen = dflow::gen;
namespace net = dflow::net;
namespace runtime = dflow::runtime;

// Fixed per workload (Table 1 defaults otherwise).
inline constexpr int kNodes = 64;
inline constexpr int kRows = 4;
inline constexpr uint64_t kPatternSeed = 1;
inline constexpr const char* kStrategy = "PSE100";
// Request classes of the hot workloads: fewer than the 2 x 256 cache
// entries of either fleet, so after warm-up every request hits.
inline constexpr int kHotClasses = 300;
inline constexpr int kHotBatch = 16;
// Client connections of every workload, one client thread each.
inline constexpr int kConnections = 4;
// A timed window is split into this many sub-windows (see SummarizeWindows).
inline constexpr int kSubWindows = 10;
// unique_miss requests with index below this, and every kCheckStride-th
// one after it, are checked against the in-process reference.
inline constexpr uint64_t kFingerprintPrefix = 512;
inline constexpr uint64_t kCheckStride = 16;

struct WorkloadSpec {
  std::string name;
  bool hot = false;     // kHotClasses repeating classes, else all-unique
  bool routed = false;  // through dflow_router to two backends

  // The hot workloads send BATCH_SUBMITs of kHotBatch asking for snapshots;
  // the all-unique one sends singleton SUBMITs without.
  int batch() const { return hot ? kHotBatch : 1; }
  bool want_snapshot() const { return hot; }
};

// The workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();
// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(std::string_view name);

gen::PatternParams PatternParamsFor(int nodes);

// The request stream of one workload family under one seed. Request i is a
// pure function of (seed, family, i); the seed changes every instance seed
// and therefore every source binding. hot_hit and hot_routed share a
// family, so they send exactly the same requests.
class RequestStream {
 public:
  RequestStream(const gen::GeneratedSchema* pattern, bool hot, uint64_t seed);

  bool hot() const { return hot_; }
  const gen::GeneratedSchema& pattern() const { return *pattern_; }
  // Hot family: the class request `index` belongs to (uniform over
  // kHotClasses). All-unique family: -1.
  int ClassOf(uint64_t index) const;
  uint64_t InstanceSeed(uint64_t index) const;
  net::BatchItem Item(uint64_t index) const;
  // Hot family: the one request every member of class k sends.
  net::BatchItem ClassItem(int k) const;

 private:
  uint64_t ClassSeed(int k) const;

  const gen::GeneratedSchema* pattern_;
  bool hot_;
  uint64_t seed_;
};

// Index-ordered fold of answer fingerprints into one workload fingerprint.
// Hot family: the answers to classes 0..kHotClasses-1. All-unique family:
// the answers to requests 0..kFingerprintPrefix-1.
uint64_t FoldWorkloadFingerprint(const std::vector<uint64_t>& fingerprints);

// The workload fingerprint computed in-process with core::FlowHarness and
// net::FingerprintResult, no server involved: what every server must match.
uint64_t ReferenceWorkloadFingerprint(const RequestStream& stream);

class AnswerChecker;

// A result's snapshot as the wire carries it.
std::vector<net::SnapshotEntry> WireSnapshot(const core::InstanceResult& result);

// Runs `item` through `harness`, checks the result against the §2
// reference evaluator (core::IsCompatible over core::EvaluateComplete) and
// returns it.
core::InstanceResult RunChecked(core::FlowHarness* harness,
                                const net::BatchItem& item,
                                AnswerChecker* checker);

// Whether the unique_miss answer to `index` is compared to the reference.
inline bool Checked(uint64_t index) {
  return index < kFingerprintPrefix || index % kCheckStride == 0;
}

// Compares answers to references; one mismatch fails the run.
class AnswerChecker {
 public:
  void Check(const std::string& what, uint64_t expected, uint64_t observed);
  void Fail(const std::string& why);
  void Merge(const AnswerChecker& other);

  bool ok() const { return mismatches_ == 0; }
  int64_t checked() const { return checked_; }
  int64_t mismatches() const { return mismatches_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  int64_t checked_ = 0;
  int64_t mismatches_ = 0;
  std::string first_failure_;
};

// Request outcomes. Every request the benchmark sends is attempted and ends
// exactly one way: answered (ok), refused (REJECTED_BUSY/SHUTTING_DOWN),
// errored (any other error reply, or an undecodable one), or unanswered
// (the connection broke or the stream ended first).
struct Tally {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t refused = 0;
  int64_t errored = 0;
  int64_t unanswered = 0;

  int64_t failed() const { return refused + errored + unanswered; }
  double ErrorRatio() const;
  bool Balanced() const { return attempted == ok + failed(); }
  void RecordReply(const net::Completion& completion);
  void Merge(const Tally& other);
};

// Latency percentiles over answered requests, with each failed request
// added as an infinitely slow sample: a failure misses every latency limit.
struct LatencySummary {
  int64_t samples = 0;  // answered + failed
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};
// Linear-interpolated percentile (q in [0, 1]) of ascending `sorted`.
double Percentile(const std::vector<double>& sorted, double q);
LatencySummary SummarizeLatency(std::vector<double> latencies_ms,
                                int64_t failed);

double Median(std::vector<double> values);

// One slice of a timed window. Answers are binned by when they arrived,
// failures by when they were detected.
struct SubWindow {
  int64_t answers = 0;
  int64_t failed = 0;
  std::vector<double> latencies_ms;
};

// A timed window's end-to-end figures. Throughput, p50 and p95 are taken
// per sub-window and the median across sub-windows is reported, so a burst
// of interference from outside the benchmark moves one sub-window, not the
// figure. p99 needs every sample, so it is pooled over the window.
struct WindowSummary {
  int64_t samples = 0;  // answered + failed, over the window
  double rps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};
WindowSummary SummarizeWindows(const std::vector<SubWindow>& windows,
                               double seconds);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// A run is correct when every checked answer matched its reference and
// every attempted request is accounted for as answered or failed.
inline bool Correct(const AnswerChecker& checker, const Tally& tally) {
  return checker.ok() && tally.Balanced();
}

// The run's last stdout line: {"correct", "attempted", "failed",
// "metrics"}. An incorrect run reports no metrics.
std::string ResultLine(const AnswerChecker& checker, const Tally& tally,
                       const std::vector<Metric>& metrics);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
