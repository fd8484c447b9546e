#ifndef DFLOW_OBS_EVENT_LOG_H_
#define DFLOW_OBS_EVENT_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/jsonl_sink.h"

namespace dflow::obs {

class MetricsRegistry;

// The fleet event taxonomy: everything operationally interesting that is
// NOT a per-request fact (those are traces). The enum value doubles as the
// on-wire kind byte in STATS health sections, so values are append-only.
enum class EventKind : uint8_t {
  kBackendDeath = 1,       // a backend connection died
  kBackendReconnect = 2,   // a previously-dead backend came back
  kFailover = 3,           // orphaned in-flight work replayed on a sibling
  kDivergenceCheck = 4,    // a sampled replica cross-check completed clean
  kDivergenceMismatch = 5, // replica fingerprints disagreed (data corruption)
  kEpochRefusal = 6,       // handshake refused: fleet-epoch/identity mismatch
  kDrain = 7,              // a node drained its shards on shutdown
  kAdvisorExplore = 8,     // the AUTO advisor ran explore-epoch selections
  kHealthTransition = 9,   // the health status gauge changed level
  kWatermark = 10,         // a watermark rule breached (queue, SLO, flap)
  kProfileSnapshot = 11,   // a plan profile was rotated/promoted
};

inline constexpr uint8_t kMinEventKind = 1;
inline constexpr uint8_t kMaxEventKind = 11;

enum class Severity : uint8_t {
  kInfo = 0,
  kWarn = 1,
  kError = 2,
};

const char* ToString(EventKind kind);
const char* ToString(Severity severity);

// One journal entry. `detail` is a short free-form "key=value key=value"
// string — structured enough for grep and the dflow_top event pane, cheap
// enough to ship in STATS frames.
struct Event {
  EventKind kind = EventKind::kBackendDeath;
  Severity severity = Severity::kInfo;
  int64_t wall_ms = 0;  // unix wall clock, milliseconds
  std::string node;
  std::string detail;

  friend bool operator==(const Event&, const Event&) = default;
};

struct EventLogOptions {
  // Journal entries retained in memory (bounded ring, oldest dropped).
  size_t ring_capacity = 256;
  // When non-empty, every event is appended as one JSON line.
  std::string jsonl_path;
  // Rotation budget for the JSONL sink; 0 = never rotate.
  uint64_t jsonl_max_bytes = 0;
  // Mirror events at kWarn and above to stderr as they happen.
  bool log_to_stderr = false;
};

// A bounded, thread-safe structured event journal: one per front door
// (ingress or router). Emit() is mutex-plus-deque cheap and is only called
// on rare control-plane transitions, never on the request hot path.
// Per-kind counters are plain atomics so watermark rules and Prometheus
// exposition can difference them without touching the ring mutex.
class EventLog {
 public:
  explicit EventLog(EventLogOptions options, std::string node = "");
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Appends an event stamped with the current wall clock and this
  // journal's node id.
  void Emit(EventKind kind, Severity severity, std::string detail);

  // The newest `max` events at or above `min_severity`, oldest first.
  std::vector<Event> Tail(size_t max,
                          Severity min_severity = Severity::kInfo) const;

  // Lifetime count of one kind / of everything (monotonic, lock-free).
  int64_t CountFor(EventKind kind) const;
  int64_t total() const;

  // Registers the per-kind counter family:
  //   dflow_events_total{kind="failover"} 3
  void RegisterCounters(MetricsRegistry* registry);

  // Flushes the JSONL sink (drain/shutdown path).
  void Flush();

  const std::string& node() const { return node_; }

 private:
  const EventLogOptions options_;
  const std::string node_;
  std::atomic<int64_t> counts_[kMaxEventKind + 1] = {};
  std::atomic<int64_t> total_{0};
  mutable std::mutex ring_mu_;
  std::deque<Event> ring_;
  JsonlSink sink_;
};

// One event as a JSONL line (no trailing newline).
std::string ToJsonLine(const Event& event);

}  // namespace dflow::obs

#endif  // DFLOW_OBS_EVENT_LOG_H_
