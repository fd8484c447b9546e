#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <utility>

#include "common/rng.h"

namespace dflow::obs {
namespace {

// Salt for the sampling hash: independent of the shard-placement and
// cache-key salts, so which requests are sampled is uncorrelated with
// where they execute.
constexpr uint64_t kSampleSalt = 0x0b5e7ab1e5a17ULL;
// Salt folded into assigned trace ids (with a per-recorder counter, so
// repeated seeds still get distinct ids).
constexpr uint64_t kTraceIdSalt = 0x7ace1dULL;

}  // namespace

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* ToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRouterForward: return "router.forward";
    case SpanKind::kIngressQueue: return "ingress.queue";
    case SpanKind::kShardQueueWait: return "shard.queue_wait";
    case SpanKind::kAdvisorChoose: return "advisor.choose";
    case SpanKind::kCacheLookup: return "cache.lookup";
    case SpanKind::kHarnessExec: return "harness.exec";
    case SpanKind::kOutboxWrite: return "outbox.write";
  }
  return "unknown";
}

void RequestTrace::AddSpan(SpanKind kind, uint64_t start_abs_ns,
                           uint64_t end_abs_ns) {
  Span span;
  span.kind = kind;
  span.start_ns = start_abs_ns > begin_ns_ ? start_abs_ns - begin_ns_ : 0;
  span.duration_ns = end_abs_ns > start_abs_ns ? end_abs_ns - start_abs_ns : 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void RequestTrace::SetEnqueue(uint64_t abs_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  enqueue_abs_ns_ = abs_ns;
}

uint64_t RequestTrace::enqueue_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueue_abs_ns_;
}

void RequestTrace::SetExecution(int shard, uint64_t queue_depth,
                                std::string strategy, bool cache_hit) {
  std::lock_guard<std::mutex> lock(mu_);
  shard_ = shard;
  queue_depth_ = queue_depth;
  strategy_ = std::move(strategy);
  cache_hit_ = cache_hit;
}

RequestTrace::View RequestTrace::Snapshot() const {
  View view;
  view.trace_id = trace_id_;
  view.seed = seed_;
  std::lock_guard<std::mutex> lock(mu_);
  view.shard = shard_;
  view.queue_depth = queue_depth_;
  view.strategy = strategy_;
  view.cache_hit = cache_hit_;
  view.spans = spans_;
  return view;
}

TraceRecorder::TraceRecorder(TraceRecorderOptions options, std::string node)
    : options_(std::move(options)), node_(std::move(node)) {
  if (!options_.jsonl_path.empty()) {
    sink_.Open(options_.jsonl_path, options_.jsonl_max_bytes);
  }
}

TraceRecorder::~TraceRecorder() = default;

bool TraceRecorder::SampledBySeed(uint64_t seed, uint32_t period) {
  if (period == 0) return false;
  if (period == 1) return true;
  return Rng::Mix(seed, kSampleSalt) % period == 0;
}

bool TraceRecorder::ShouldTrace(uint64_t seed) const {
  // The slow log must see every request (a slow one cannot be predicted
  // from the seed), so arming it means full tracing — documented cost.
  if (options_.slow_ms > 0) return true;
  return SampledBySeed(seed, options_.sample_period);
}

std::shared_ptr<RequestTrace> TraceRecorder::Begin(uint64_t seed,
                                                   uint64_t trace_id) {
  if (trace_id == 0) {
    const uint64_t n = next_id_.fetch_add(1, std::memory_order_relaxed);
    trace_id = Rng::Mix(seed, kTraceIdSalt + n);
    if (trace_id == 0) trace_id = 1;
  }
  started_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<RequestTrace>(trace_id, seed, MonotonicNs());
}

void TraceRecorder::Finish(const std::shared_ptr<RequestTrace>& trace,
                           uint64_t wall_ns) {
  if (trace == nullptr) return;
  RequestTrace::View view = trace->Snapshot();
  view.wall_ns = wall_ns;
  const bool slow = options_.slow_ms > 0 &&
                    static_cast<double>(wall_ns) / 1e6 > options_.slow_ms;
  if (sink_.open()) sink_.Append(ToJsonLine(view, node_));
  if (slow) {
    slow_logged_.fetch_add(1, std::memory_order_relaxed);
    std::string spans;
    for (const Span& span : view.spans) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), " %s=%.1fus@%.1fus",
                    ToString(span.kind),
                    static_cast<double>(span.duration_ns) / 1e3,
                    static_cast<double>(span.start_ns) / 1e3);
      spans += buf;
    }
    std::fprintf(stderr,
                 "[obs] SLOW %s trace=%016" PRIx64 " seed=%" PRIu64
                 " wall=%.2fms shard=%d strategy=%s cache=%s queue_depth=%"
                 PRIu64 "%s\n",
                 node_.c_str(), view.trace_id, view.seed,
                 static_cast<double>(wall_ns) / 1e6, view.shard,
                 view.strategy.c_str(), view.cache_hit ? "hit" : "miss",
                 view.queue_depth, spans.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (options_.ring_capacity > 0) {
      while (ring_.size() >= options_.ring_capacity) ring_.pop_front();
      ring_.push_back(std::move(view));
    }
  }
  finished_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<RequestTrace::View> TraceRecorder::Completed() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return {ring_.begin(), ring_.end()};
}

void TraceRecorder::Flush() { sink_.Flush(); }

namespace {

std::vector<Span> SortedSpans(const RequestTrace::View& view) {
  std::vector<Span> spans = view.spans;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return static_cast<uint8_t>(a.kind) < static_cast<uint8_t>(b.kind);
  });
  return spans;
}

}  // namespace

std::string SpanStructure(const RequestTrace::View& view) {
  std::string out;
  for (const Span& span : SortedSpans(view)) {
    if (!out.empty()) out += ';';
    out += ToString(span.kind);
  }
  return out;
}

bool ValidateSpans(const RequestTrace::View& view, std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  uint64_t start_by_kind[kMaxSpanKind + 1] = {};
  bool seen[kMaxSpanKind + 1] = {};
  for (const Span& span : view.spans) {
    const uint8_t kind = static_cast<uint8_t>(span.kind);
    if (kind < kMinSpanKind || kind > kMaxSpanKind) {
      return fail("unknown span kind " + std::to_string(kind));
    }
    if (seen[kind]) {
      return fail(std::string("duplicate span ") + ToString(span.kind));
    }
    seen[kind] = true;
    start_by_kind[kind] = span.start_ns;
  }
  // Pipeline-order starts: a stage earlier in the taxonomy never starts
  // after a later one (equal starts are fine — clock granularity, and the
  // cross-node router.forward span travels with start 0).
  uint64_t last_start = 0;
  for (uint8_t kind = kMinSpanKind; kind <= kMaxSpanKind; ++kind) {
    if (!seen[kind]) continue;
    if (start_by_kind[kind] < last_start) {
      return fail(std::string(ToString(static_cast<SpanKind>(kind))) +
                  " starts before an earlier pipeline stage");
    }
    last_start = start_by_kind[kind];
  }
  return true;
}

std::string ToJsonLine(const RequestTrace::View& view,
                       const std::string& node) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"trace_id\":\"%016" PRIx64 "\",\"seed\":%" PRIu64
                ",\"node\":\"",
                view.trace_id, view.seed);
  // node and strategy are operator-chosen strings: escaped, and appended
  // outside the fixed-size buffer so a long node id is never truncated.
  std::string out = buf;
  out += JsonEscape(node);
  std::snprintf(buf, sizeof(buf), "\",\"shard\":%d,\"strategy\":\"",
                view.shard);
  out += buf;
  out += JsonEscape(view.strategy);
  std::snprintf(buf, sizeof(buf),
                "\",\"cache_hit\":%s,\"queue_depth\":%" PRIu64
                ",\"wall_us\":%.3f,\"spans\":[",
                view.cache_hit ? "true" : "false", view.queue_depth,
                static_cast<double>(view.wall_ns) / 1e3);
  out += buf;
  bool first = true;
  for (const Span& span : SortedSpans(view)) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"start_ns\":%" PRIu64
                  ",\"dur_ns\":%" PRIu64 "}",
                  first ? "" : ",", ToString(span.kind), span.start_ns,
                  span.duration_ns);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace dflow::obs
