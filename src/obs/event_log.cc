#include "obs/event_log.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <utility>

#include "obs/metrics_registry.h"

namespace dflow::obs {
namespace {

int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kBackendDeath: return "backend_death";
    case EventKind::kBackendReconnect: return "backend_reconnect";
    case EventKind::kFailover: return "failover";
    case EventKind::kDivergenceCheck: return "divergence_check";
    case EventKind::kDivergenceMismatch: return "divergence_mismatch";
    case EventKind::kEpochRefusal: return "epoch_refusal";
    case EventKind::kDrain: return "drain";
    case EventKind::kAdvisorExplore: return "advisor_explore";
    case EventKind::kHealthTransition: return "health_transition";
    case EventKind::kWatermark: return "watermark";
    case EventKind::kProfileSnapshot: return "profile_snapshot";
  }
  return "unknown";
}

const char* ToString(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "unknown";
}

EventLog::EventLog(EventLogOptions options, std::string node)
    : options_(std::move(options)), node_(std::move(node)) {
  if (!options_.jsonl_path.empty()) {
    sink_.Open(options_.jsonl_path, options_.jsonl_max_bytes);
  }
}

void EventLog::Emit(EventKind kind, Severity severity, std::string detail) {
  Event event;
  event.kind = kind;
  event.severity = severity;
  event.wall_ms = WallMs();
  event.node = node_;
  event.detail = std::move(detail);

  const uint8_t k = static_cast<uint8_t>(kind);
  if (k >= kMinEventKind && k <= kMaxEventKind) {
    counts_[k].fetch_add(1, std::memory_order_relaxed);
  }
  total_.fetch_add(1, std::memory_order_relaxed);

  if (sink_.open()) sink_.Append(ToJsonLine(event));
  if (options_.log_to_stderr && severity >= Severity::kWarn) {
    std::fprintf(stderr, "[events] %s %s %s %s\n", ToString(severity),
                 node_.c_str(), ToString(kind), event.detail.c_str());
  }

  std::lock_guard<std::mutex> lock(ring_mu_);
  if (options_.ring_capacity == 0) return;
  while (ring_.size() >= options_.ring_capacity) ring_.pop_front();
  ring_.push_back(std::move(event));
}

std::vector<Event> EventLog::Tail(size_t max, Severity min_severity) const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  std::vector<Event> out;
  // Walk newest-to-oldest collecting matches, then reverse to oldest-first.
  for (auto it = ring_.rbegin(); it != ring_.rend() && out.size() < max;
       ++it) {
    if (it->severity >= min_severity) out.push_back(*it);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

int64_t EventLog::CountFor(EventKind kind) const {
  const uint8_t k = static_cast<uint8_t>(kind);
  if (k < kMinEventKind || k > kMaxEventKind) return 0;
  return counts_[k].load(std::memory_order_relaxed);
}

int64_t EventLog::total() const {
  return total_.load(std::memory_order_relaxed);
}

void EventLog::RegisterCounters(MetricsRegistry* registry) {
  for (uint8_t k = kMinEventKind; k <= kMaxEventKind; ++k) {
    const EventKind kind = static_cast<EventKind>(k);
    registry->AddCounter("dflow_events_total",
                         {{"kind", ToString(kind)}},
                         [this, kind] { return CountFor(kind); });
  }
}

void EventLog::Flush() { sink_.Flush(); }

std::string ToJsonLine(const Event& event) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"ts_ms\":%" PRId64 ",\"severity\":\"%s\",\"kind\":\"%s\",",
                event.wall_ms, ToString(event.severity),
                ToString(event.kind));
  std::string out = buf;
  out += "\"node\":\"" + JsonEscape(event.node) + "\",\"detail\":\"" +
         JsonEscape(event.detail) + "\"}";
  return out;
}

}  // namespace dflow::obs
