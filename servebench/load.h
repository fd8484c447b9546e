#ifndef SERVEBENCH_LOAD_H_
#define SERVEBENCH_LOAD_H_

// The closed-loop load generator: one client thread per net::Client
// connection, each waiting for its answers before sending again, as a
// decision-flow caller does. Every answer is tallied, timed and checked.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "workload.h"

namespace servebench {

// Connected clients of one workload; connecting is part of set-up.
class ClientPool {
 public:
  // Opens kConnections connections.
  bool Connect(uint16_t port, std::string* error);
  // Graceful close of every connection.
  void Close();
  std::vector<std::unique_ptr<net::Client>>& clients() { return clients_; }
  int64_t bytes() const;  // sent + received over every connection so far

 private:
  std::vector<std::unique_ptr<net::Client>> clients_;
};

// The reference answers of the hot family's classes.
struct ClassReference {
  std::vector<uint64_t> fingerprints;
  std::vector<std::vector<net::SnapshotEntry>> snapshots;
};
// Also checks every class's result against core::EvaluateComplete.
ClassReference ComputeClassReference(const RequestStream& stream,
                                     AnswerChecker* checker);

// The hot family's warm-up pass: every class once, pipelined on one
// connection. Fills the cache and returns each class's answer
// fingerprint in class order; false if any class was not answered.
bool WarmClasses(net::Client* client, const RequestStream& stream,
                 std::vector<uint64_t>* fingerprints, std::string* error);

struct LoadOptions {
  const WorkloadSpec* spec = nullptr;
  const RequestStream* stream = nullptr;
  const ClassReference* classes = nullptr;  // hot family only
  double seconds = 1;
  bool trace = false;  // request traces and keep their spans
  // Called once, on a client thread, when the window's answer count
  // reaches mark_answers (0: never).
  int64_t mark_answers = 0;
  std::function<void()> at_mark;
};

// Spans of one traced request: the client's own span (send to answer) and
// the span trailer the servers returned. Server span starts are relative
// to each node's own trace start.
struct TracedRequest {
  uint64_t index = 0;
  uint64_t trace_id = 0;
  uint64_t start_ns = 0;  // client send, relative to the window start
  uint64_t latency_ns = 0;
  std::vector<net::WireSpan> spans;
};

struct TraceStats {
  // Durations in microseconds by span name, plus the self times
  // "client.self" (client latency minus the outermost server spans) and
  // "router.forward.self" (router.forward minus the backend's spans).
  std::map<std::string, std::vector<double>> durations_us;
  int64_t traced = 0;
  // Every 256th traced request, for the span file.
  std::vector<TracedRequest> kept;
};

struct LoadResult {
  Tally tally;
  std::vector<SubWindow> windows;           // kSubWindows of them
  double client_cpu_s = 0;                  // this process, over the window
  int64_t bytes = 0;                        // client bytes sent + received
  AnswerChecker checker;                    // hot family: checked inline
  // All-unique family: (index, answer fingerprint) of every Checked()
  // index, compared to the reference after the window.
  std::vector<std::pair<uint64_t, uint64_t>> answers;
  TraceStats trace;
};

LoadResult RunClosedLoop(ClientPool* pool, const LoadOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_LOAD_H_
