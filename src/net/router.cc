#include "net/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/rng.h"
#include "net/stats_wire.h"
#include "runtime/flow_server.h"

namespace dflow::net {

namespace {

// Recv ceiling of the dialer's blocking Info handshake, so a wedged
// backend cannot pin the dialer (and every other backend's redial) for
// longer. Steady-state backend reads have no deadline: they run on the
// backend loop, and answers can legitimately be minutes away behind a
// deep queue.
constexpr int kHandshakeRecvTimeoutMs = 5000;

// Unsent bytes a backend conn's outbox may hold before front-door conns
// routing to it stall. Far above what a healthy backend ever has queued,
// and it bounds the router's buffering of a backend that stopped reading.
constexpr size_t kBackendBacklogCapBytes = 256 * 1024;

// Salt for the deterministic 1-in-N divergence sampling hash (the same
// Mix(seed, salt) % N idiom trace sampling uses, with a different salt so
// the two samples are uncorrelated).
constexpr uint64_t kDivergenceSalt = 0xd1fe6e9ceull;

// A ticket is re-issued at most this many times across backend deaths — a
// flapping fleet degrades to BACKEND_UNAVAILABLE instead of bouncing one
// request forever.
constexpr int kMaxFailoverAttempts = 8;

// A connection must survive this long past its handshake before a later
// drop resets the reconnect backoff: a backend that handshakes and then
// dies immediately keeps doubling instead of hot-looping at the initial
// delay.
constexpr auto kHealthyConnectionUptime = std::chrono::seconds(1);

// Deadline of one fleet STATS poll. The request shares the backend's
// stream with forwarded submits, so a backend parked on a full shard
// queue delays its answer — after this long the poll replies with a
// synthesized entry for every backend still silent.
constexpr auto kStatsPollTimeout = std::chrono::milliseconds(1000);

std::string AddressText(const BackendAddress& address) {
  return address.host + ":" + std::to_string(address.port);
}

// A port token: the whole of it base-10 digits, in [1, 65535].
bool ParsePort(const std::string& text, uint16_t* port) {
  if (text.empty() || text.size() > 5) return false;
  int value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  if (value < 1 || value > 65535) return false;
  *port = static_cast<uint16_t>(value);
  return true;
}

}  // namespace

bool ParseBackendList(const std::string& text,
                      std::vector<BackendAddress>* out) {
  size_t start = 0;
  while (true) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    BackendAddress address;
    const size_t colon = item.rfind(':');
    if (colon != std::string::npos) {
      if (colon == 0) return false;  // ":4521" names no host
      address.host = item.substr(0, colon);
    }
    if (!ParsePort(colon == std::string::npos ? item : item.substr(colon + 1),
                   &address.port)) {
      return false;
    }
    out->push_back(std::move(address));
    if (comma == text.size()) return true;
    start = comma + 1;
  }
}

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      recorder_(options_.trace, options_.node_id.empty() ? "router"
                                                         : options_.node_id),
      journal_(options_.events,
               options_.node_id.empty() ? "router" : options_.node_id),
      health_(options_.health, MakeHealthSources(), &journal_),
      front_(options_, "router", this, &journal_, &metrics_),
      // One thread carries every backend socket: it only moves bytes, and
      // a single loop keeps the router's thread count fleet-independent.
      backend_loop_(EventLoop::Options{/*num_threads=*/1}) {
  // Counters and gauges are callbacks over counters the router maintains
  // anyway, so registering them costs the relay path nothing. Per-backend
  // families are registered in Start(), once the fleet is known.
  const auto counter = [this](const char* name, std::atomic<int64_t>* src) {
    metrics_.AddCounter(name, {}, [src] { return src->load(); });
  };
  counter("dflow_requests_routed_total", &requests_routed_);
  counter("dflow_relayed_results_total", &relayed_results_);
  counter("dflow_relayed_busy_total", &relayed_busy_);
  counter("dflow_relayed_shutdown_total", &relayed_shutdown_);
  counter("dflow_unavailable_total", &unavailable_total_);
  counter("dflow_replica_failover_total", &failovers_total_);
  counter("dflow_replica_divergence_checks_total", &divergence_checks_);
  counter("dflow_replica_divergence_total", &divergence_mismatches_);
  counter("dflow_replica_divergence_incomplete_total",
          &divergence_incomplete_);
  metrics_.AddCounter("dflow_traces_started_total", {},
                      [this] { return recorder_.started(); });
  metrics_.AddCounter("dflow_traces_finished_total", {},
                      [this] { return recorder_.finished(); });
  wall_latency_us_ = metrics_.AddHistogram(
      "dflow_wall_latency_us", {}, obs::DefaultWallLatencyBucketsUs());
  journal_.RegisterCounters(&metrics_);
  health_.RegisterMetrics(&metrics_);
}

Router::~Router() { Stop(); }

bool Router::Start(std::string* error) {
  if (started_.exchange(true)) {
    if (error != nullptr) *error = "Start() called twice";
    return false;
  }
  if (options_.backends.empty()) {
    if (error != nullptr) *error = "no backends configured";
    return false;
  }
  replicas_ = std::max(1, options_.replicas);
  if (options_.backends.size() % static_cast<size_t>(replicas_) != 0) {
    if (error != nullptr) {
      *error = "backend count (" + std::to_string(options_.backends.size()) +
               ") is not a multiple of --replicas=" +
               std::to_string(replicas_);
    }
    return false;
  }
  num_slots_ = static_cast<int>(options_.backends.size()) / replicas_;
  backends_.reserve(options_.backends.size());
  for (const BackendAddress& address : options_.backends) {
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    backend->index = static_cast<int>(backends_.size());
    backend->slot = backend->index / replicas_;
    backend->replica = backend->index % replicas_;
    backend->backoff_ms = options_.backoff_initial_ms;
    backends_.push_back(std::move(backend));
  }
  // Per-backend metric families, one labeled series per backend. The
  // Backend objects are fixed from here, so the raw pointers the callbacks
  // capture stay valid for the router's lifetime. Family-outer loops keep
  // each family's series contiguous in the text exposition.
  const auto backend_counter = [this](const char* name,
                                      std::atomic<int64_t> Backend::*member) {
    for (const std::unique_ptr<Backend>& backend : backends_) {
      Backend* raw = backend.get();
      metrics_.AddCounter(name, {{"backend", AddressText(raw->address)}},
                          [raw, member] { return (raw->*member).load(); });
    }
  };
  backend_counter("dflow_backend_forwarded_total", &Backend::forwarded);
  backend_counter("dflow_backend_answered_total", &Backend::answered);
  backend_counter("dflow_backend_unavailable_total", &Backend::unavailable);
  backend_counter("dflow_backend_reconnects_total", &Backend::reconnects);
  backend_counter("dflow_backend_failover_total", &Backend::failovers);
  for (const std::unique_ptr<Backend>& backend : backends_) {
    Backend* raw = backend.get();
    metrics_.AddGauge(
        "dflow_backend_connected", {{"backend", AddressText(raw->address)}},
        [raw] { return Connected(*raw) ? 1.0 : 0.0; });
  }
  std::string failure;
  if (backend_loop_.Start(&failure)) {
    dialer_ = std::thread([this] { DialLoop(); });
  }
  // Admit no client until the whole fleet answered its identity handshake
  // and joined (see AcceptIdentity): a router that starts half-connected
  // would deterministically fail every seed hashing to the missing node.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.connect_timeout_s));
  while (failure.empty()) {
    const Backend* missing = nullptr;
    for (const std::unique_ptr<Backend>& backend : backends_) {
      std::string refusal;
      {
        std::lock_guard<std::mutex> lock(backend->info_mu);
        refusal = backend->refusal;
      }
      if (!refusal.empty()) {
        failure = "backend " + AddressText(backend->address) + " " + refusal;
        break;
      }
      if (missing == nullptr && !Connected(*backend)) missing = backend.get();
    }
    if (!failure.empty() || missing == nullptr) break;
    if (Clock::now() >= deadline) {
      failure = "backend " + AddressText(missing->address) +
                " unreachable within " +
                std::to_string(options_.connect_timeout_s) + "s";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (failure.empty() && front_.Start(&failure)) {
    health_.Start();
    return true;
  }
  if (error != nullptr) *error = failure;
  Stop();
  return false;
}

void Router::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_seq_cst);
  // 1. Stop accepting, then gracefully close every front-door conn. The
  // loop waits for each conn's in-flight tickets to be answered (the
  // backend loop is still live, so forwarded submits complete) and flushes
  // the responses before the sockets close — this is the "every admitted
  // request answered" barrier.
  front_.Stop();
  // 2. Only now retire the backends: nothing is owed to any client.
  // Stop the dialer first, so nothing is (re)attached from here on. The
  // empty lock orders stopping_ before the dialer's next wait.
  { std::lock_guard<std::mutex> lock(dial_mu_); }
  dial_cv_.notify_all();
  if (dialer_.joinable()) dialer_.join();
  // 3. A best-effort Goodbye on every live backend conn; stopping the
  // backend loop flushes it and closes the sockets.
  for (const std::unique_ptr<Backend>& backend : backends_) {
    std::vector<uint8_t> goodbye;
    EncodeGoodbye(&goodbye);
    SendToBackend(backend.get(), std::move(goodbye));
  }
  backend_loop_.Stop();
  // 4. Retire the health plane last: the drain event closes the journal's
  // story for this process, then both JSONL sinks flush.
  health_.Stop();
  journal_.Emit(obs::EventKind::kDrain, obs::Severity::kInfo,
                "relayed=" + std::to_string(relayed_results_.load()));
  journal_.Flush();
  recorder_.Flush();
}

runtime::IngressStats Router::front_stats() const {
  runtime::IngressStats stats = front_.Stats();
  stats.requests_accepted = requests_routed_.load();
  stats.requests_rejected_busy = relayed_busy_.load();
  stats.requests_rejected_shutdown = relayed_shutdown_.load();
  return stats;
}

RouterStats Router::router_stats() const {
  RouterStats stats;
  stats.is_router = 1;
  stats.replicas = replicas_;
  stats.failovers = failovers_total_.load();
  stats.divergence_checks = divergence_checks_.load();
  stats.divergence_mismatches = divergence_mismatches_.load();
  stats.divergence_incomplete = divergence_incomplete_.load();
  stats.backends.reserve(backends_.size());
  for (const std::unique_ptr<Backend>& backend : backends_) {
    RouterBackendStats entry;
    entry.address = AddressText(backend->address);
    entry.slot = backend->slot;
    entry.replica = backend->replica;
    {
      std::lock_guard<std::mutex> lock(backend->info_mu);
      entry.node_id = backend->node_id;
      entry.shards = backend->shards;
    }
    entry.connected = Connected(*backend) ? 1 : 0;
    entry.forwarded = backend->forwarded.load();
    entry.answered = backend->answered.load();
    entry.unavailable = backend->unavailable.load();
    entry.reconnects = backend->reconnects.load();
    entry.failovers = backend->failovers.load();
    stats.backends.push_back(std::move(entry));
  }
  return stats;
}

ServerInfo Router::BuildInfo() const {
  ServerInfo info;
  info.router = router_stats();
  int64_t total_shards = 0;
  for (const RouterBackendStats& backend : info.router.backends) {
    total_shards += backend.shards;
  }
  info.num_shards = static_cast<int32_t>(total_shards);
  {
    std::lock_guard<std::mutex> lock(strategy_mu_);
    info.strategy = strategy_;
    info.fleet_epoch = fleet_epoch_;
    if (advisor_fingerprint_ != 0) {
      info.advisor.enabled = 1;
      info.advisor.fingerprint = advisor_fingerprint_;
    }
  }
  if (!backends_.empty()) {
    std::lock_guard<std::mutex> lock(backends_.front()->info_mu);
    info.backend = backends_.front()->backend_kind;
    info.queue_capacity_per_shard = backends_.front()->queue_capacity;
  }
  info.completed = relayed_results_.load();
  info.rejected = relayed_busy_.load() + relayed_shutdown_.load() +
                  unavailable_total_.load();
  info.node_id = NodeId();
  info.ingress = front_stats();
  return info;
}

std::string Router::NodeId() const {
  return options_.node_id.empty()
             ? "router:" + std::to_string(front_.port())
             : options_.node_id;
}

EventConn::FrameAction Router::HandleStats(EventConn* conn,
                                           const StatsRequest& request) {
  auto poll = std::make_shared<StatsPoll>();
  poll->request = request;
  poll->deadline = Clock::now() + kStatsPollTimeout;
  poll->answers.resize(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    // Registered before the push: the answer may beat the push's return.
    const uint64_t ticket = next_ticket_.fetch_add(1);
    poll->tickets.push_back(ticket);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_probes_.emplace(ticket, StatsProbe{poll, i});
      ++poll->outstanding;
    }
    std::vector<uint8_t> out;
    EncodeStatsRequest(StatsRequest{ticket, poll->request.sections}, &out);
    if (!SendToBackend(backends_[i].get(), std::move(out))) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (stats_probes_.erase(ticket) != 0) --poll->outstanding;
    }
  }
  // Polled on the loop's 1ms ticks: the conn stops reading (later frames
  // keep their order behind this reply), every other conn keeps flowing.
  const auto settle = [this, conn, poll] {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (poll->outstanding > 0 && Clock::now() < poll->deadline) {
        return false;
      }
      for (const uint64_t ticket : poll->tickets) stats_probes_.erase(ticket);
    }
    AnswerStats(conn, poll.get());
    return true;
  };
  if (settle()) return EventConn::FrameAction::kContinue;
  conn->DeferRetry(settle);
  return EventConn::FrameAction::kStall;
}

void Router::AnswerStats(EventConn* conn, StatsPoll* poll) {
  const uint8_t sections = poll->request.sections;
  StatsInfo stats;
  stats.request_id = poll->request.request_id;
  stats.sections = sections;
  // A router executes no attributes: its profile section stays empty and
  // the fleet's profile lives in the backend entries.
  stats.self.node_id = NodeId();
  stats.self.is_router = 1;
  if (sections & kStatsMetrics) stats.self.metrics = metrics_.RenderText();
  if (sections & kStatsHealth) {
    NodeHealth& health = stats.self.health;
    health.completed = relayed_results_.load();
    health.failovers = failovers_total_.load();
    health.divergence_checks = divergence_checks_.load();
    health.divergence_mismatches = divergence_mismatches_.load();
    FillNodeHealthPlane(journal_, &health_, &health);
  }
  stats.backends.reserve(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (poll->answers[i].has_value()) {
      stats.backends.push_back(std::move(*poll->answers[i]));
      continue;
    }
    // Down or silent past the deadline: an identity entry (critical
    // health, empty profile), so the fleet view never omits a member.
    const Backend& backend = *backends_[i];
    NodeStats node;
    {
      std::lock_guard<std::mutex> lock(backend.info_mu);
      node.node_id = backend.node_id.empty() ? AddressText(backend.address)
                                             : backend.node_id;
    }
    node.health.status = static_cast<uint8_t>(obs::HealthStatus::kCritical);
    stats.backends.push_back(std::move(node));
  }
  std::vector<uint8_t> out;
  EncodeStats(stats, &out);
  conn->outbox().Push(std::move(out));
}

bool Router::SendToBackend(Backend* backend, std::vector<uint8_t> frame) {
  std::lock_guard<std::mutex> lock(backend->conn_mu);
  if (backend->conn == nullptr) return false;
  backend->conn->outbox().Push(std::move(frame));
  return true;
}

bool Router::Connected(const Backend& backend) {
  std::lock_guard<std::mutex> lock(backend.conn_mu);
  return backend.conn != nullptr;
}

obs::HealthSources Router::MakeHealthSources() {
  obs::HealthSources sources;
  sources.requests_total = [this] { return relayed_results_.load(); };
  sources.failovers_total = [this] { return failovers_total_.load(); };
  // wall_latency_us_ is assigned later in the constructor body; the lazy
  // read (first used once the collector thread runs) makes the ordering
  // benign.
  sources.wall_latency = [this] {
    return wall_latency_us_ != nullptr ? wall_latency_us_->Snap()
                                       : obs::Histogram::Snapshot{};
  };
  sources.slots_total = [this] { return static_cast<int64_t>(num_slots_); };
  sources.slots_down = [this] { return CountSlotsDown(); };
  return sources;
}

int64_t Router::CountSlotsDown() const {
  int64_t down = 0;
  for (int slot = 0; slot < num_slots_; ++slot) {
    bool live = false;
    for (int r = 0; r < replicas_ && !live; ++r) {
      live = Connected(*backends_[static_cast<size_t>(slot * replicas_ + r)]);
    }
    if (!live) ++down;
  }
  return down;
}

int Router::SlotFor(uint64_t seed) const {
  // The same hash the FlowServer uses for shard placement, over the slot
  // count: slot choice is a pure function of the seed, so any fleet size
  // serves byte-identical results — and within a slot every replica serves
  // the same bytes, so replica choice is free.
  return runtime::FlowServer::ShardFor(seed, num_slots_);
}

bool Router::Backlogged(int slot) const {
  // The slot's primary is where ForwardToSlot sends: its lowest-index
  // connected replica. A slot with none is not backlogged — its submits
  // fail fast with BACKEND_UNAVAILABLE instead.
  for (int r = 0; r < replicas_; ++r) {
    const Backend& backend =
        *backends_[static_cast<size_t>(slot * replicas_ + r)];
    std::lock_guard<std::mutex> lock(backend.conn_mu);
    if (backend.conn != nullptr) {
      return backend.conn->outbox().QueuedBytes() > kBackendBacklogCapBytes;
    }
  }
  return false;
}

EventConn::FrameAction Router::HandleBatchSubmit(
    EventConn* conn, const std::shared_ptr<Session>& session,
    BatchSubmitRequest request) {
  // The router cannot relay a batch wholesale: its items hash to different
  // slots. Unbundle into per-item singleton submit frames — request_id
  // base + i, everything shared stamped per item — and feed each through
  // the ordinary forward path, so ticket translation, failover replay, and
  // divergence sampling hold per item by construction. This is the one
  // tier that pays a decode on the batch path; the per-item forwards are
  // still the O(1) fixed-offset relay. An item whose backend is backlogged
  // stalls the conn; the retry resumes from that item, so the items keep
  // their order.
  const auto forward_from = [this, conn, session](BatchSubmitRequest& batch,
                                                  size_t& next) {
    for (; next < batch.items.size(); ++next) {
      if (Backlogged(SlotFor(batch.items[next].seed))) return false;
      SubmitRequest item;
      item.request_id = batch.request_id_base + next;
      item.seed = batch.items[next].seed;
      item.blocking = batch.blocking;
      item.want_snapshot = batch.want_snapshot;
      item.strategy = batch.strategy;
      item.sources = std::move(batch.items[next].sources);
      std::vector<uint8_t> bytes;
      EncodeSubmit(item, &bytes);
      Frame singleton;
      singleton.type = static_cast<uint8_t>(MsgType::kSubmit);
      singleton.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
      RouteSubmit(conn, session, singleton);
    }
    return true;
  };
  size_t next = 0;
  if (forward_from(request, next)) return EventConn::FrameAction::kContinue;
  conn->DeferRetry(
      [forward_from, request = std::move(request), next]() mutable {
        return forward_from(request, next);
      });
  return EventConn::FrameAction::kStall;
}

EventConn::FrameAction Router::HandleSubmit(
    EventConn* conn, const std::shared_ptr<Session>& session, Frame& frame) {
  // The routing key and correlation id sit at fixed offsets; anything
  // shorter cannot be a submit. Deeper validation is the backend's job —
  // its typed MALFORMED_FRAME answer relays back like any other response.
  // Like the ingress, echo the correlation id whenever the payload is
  // long enough to carry one, so the error stays attributable.
  if (frame.payload.size() < kSubmitPeekBytes) {
    front_.CountDecodeError();
    SendError(conn, PeekRequestId(frame.payload), WireError::kMalformedFrame,
              "short submit payload");
    return EventConn::FrameAction::kContinue;
  }
  const int slot = SlotFor(ReadLe64(frame.payload.data() + kSubmitSeedOffset));
  const auto forward = [this, conn, session, slot](Frame& submit) {
    if (Backlogged(slot)) return false;
    RouteSubmit(conn, session, submit);
    return true;
  };
  if (forward(frame)) return EventConn::FrameAction::kContinue;
  conn->DeferRetry([forward, frame = std::move(frame)]() mutable {
    return forward(frame);
  });
  return EventConn::FrameAction::kStall;
}

void Router::RouteSubmit(EventConn* conn,
                         const std::shared_ptr<Session>& session,
                         Frame& frame) {
  const uint64_t request_id = ReadLe64(frame.payload.data());
  const uint64_t seed = ReadLe64(frame.payload.data() + kSubmitSeedOffset);
  const int slot = SlotFor(seed);
  // Trace decision at the fleet's entry point: a client-set trace flag is
  // always honored, otherwise the router's own deterministic sample
  // applies. Either way the forwarded frame carries the v4 trace extension
  // with the router-minted id, so the backend adopts one identity and the
  // router.forward span appended on the way back joins the backend's spans
  // under a single trace. Still no payload decode: the flag is one bit of
  // the fixed-offset flags word, and the extension is the payload's last
  // nine bytes.
  std::shared_ptr<obs::RequestTrace> trace;
  const bool client_flagged =
      (frame.payload[kSubmitFlagsOffset] & kSubmitFlagHasTrace) != 0;
  if (client_flagged || recorder_.ShouldTrace(seed)) {
    const bool has_extension =
        client_flagged &&
        frame.payload.size() >= kSubmitPeekBytes + kSubmitTraceExtensionBytes;
    uint8_t* const extension_at = frame.payload.data() +
                                  frame.payload.size() -
                                  kSubmitTraceExtensionBytes;
    uint64_t upstream_id = 0;
    if (has_extension) upstream_id = ReadLe64(extension_at);
    trace = recorder_.Begin(seed, upstream_id);
    if (has_extension) {
      // trace_id 0 in a client extension means "assign at the entry
      // point" — that is us; a nonzero id came from further upstream and
      // Begin() adopted it, so this write is then a no-op.
      WriteLe64(trace->trace_id(), extension_at);
    } else {
      frame.payload[kSubmitFlagsOffset] |= kSubmitFlagHasTrace;
      uint8_t extension[kSubmitTraceExtensionBytes] = {0};
      WriteLe64(trace->trace_id(), extension);
      frame.payload.insert(frame.payload.end(), extension,
                           extension + kSubmitTraceExtensionBytes);
    }
  }
  const uint64_t start_ns =
      trace != nullptr ? trace->begin_ns() : obs::MonotonicNs();
  const uint64_t ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  WriteLe64(ticket, frame.payload.data());
  std::vector<uint8_t> forward;
  forward.reserve(kFrameHeaderBytes + frame.payload.size());
  EncodeRawFrame(frame.type, frame.payload, &forward);
  // The sampled divergence cross-check: decide (deterministically, by seed
  // hash) BEFORE forwarding and pre-register the check, so the primary's
  // answer — which can arrive the instant the bytes leave — finds the
  // check no matter how the race goes. The shadow copy itself is launched
  // only after the primary forward succeeded.
  const bool cross_check =
      replicas_ > 1 && options_.divergence_sample_period > 0 &&
      Rng::Mix(seed, kDivergenceSalt) % options_.divergence_sample_period == 0;
  uint64_t check_id = 0;
  std::vector<uint8_t> shadow_frame;
  if (cross_check) {
    check_id = next_ticket_.fetch_add(1, std::memory_order_relaxed);
    shadow_frame = forward;
    WriteLe64(check_id, shadow_frame.data() + kFrameHeaderBytes);
    std::lock_guard<std::mutex> lock(pending_mu_);
    checks_.emplace(check_id, DivergenceCheck{seed});
  }
  Pending pending;
  pending.conn = conn->shared_from_this();
  pending.request_id = request_id;
  pending.start_ns = start_ns;
  pending.trace = trace;
  pending.frame =
      std::make_shared<const std::vector<uint8_t>>(std::move(forward));
  pending.check_id = check_id;
  conn->outbox().BeginRequest();
  const int served = ForwardToSlot(slot, ticket, &pending);
  if (served >= 0) {
    session->accepted.fetch_add(1, std::memory_order_relaxed);
    requests_routed_.fetch_add(1, std::memory_order_relaxed);
    backends_[static_cast<size_t>(served)]->forwarded.fetch_add(
        1, std::memory_order_relaxed);
    if (cross_check) {
      LaunchShadow(slot, served, check_id, request_id, start_ns,
                   std::move(shadow_frame));
    }
    return;
  }
  if (cross_check) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    checks_.erase(check_id);
  }
  for (int r = 0; r < replicas_; ++r) {
    backends_[static_cast<size_t>(slot * replicas_ + r)]
        ->unavailable.fetch_add(1, std::memory_order_relaxed);
  }
  unavailable_total_.fetch_add(1, std::memory_order_relaxed);
  // A refused-but-traced request still finishes its trace: fast-fail
  // storms are exactly what the slow log and JSONL sink investigate.
  if (trace != nullptr) {
    recorder_.Finish(trace, obs::MonotonicNs() - start_ns);
  }
  const std::string what =
      replicas_ > 1
          ? "slot " + std::to_string(slot) + ": all " +
                std::to_string(replicas_) + " replicas disconnected"
          : "backend " +
                AddressText(backends_[static_cast<size_t>(slot)]->address) +
                " disconnected";
  SendError(conn, request_id, WireError::kBackendUnavailable, what);
  conn->outbox().FinishRequest();
}

bool Router::Forward(Backend* backend, uint64_t ticket, Pending* pending) {
  std::lock_guard<std::mutex> lock(backend->conn_mu);
  if (backend->conn == nullptr) return false;
  // Register before pushing — the answer can arrive on the backend loop
  // the instant the bytes leave. Under conn_mu, so this conn's on_close
  // (which nulls the conn under the same lock before sweeping) either
  // finds the ticket or ran before it and left the backend down.
  std::vector<uint8_t> bytes = *pending->frame;
  pending->backend_index = backend->index;
  {
    std::lock_guard<std::mutex> pending_lock(pending_mu_);
    pending_.emplace(ticket, std::move(*pending));
  }
  backend->conn->outbox().Push(std::move(bytes));
  return true;
}

int Router::ForwardToSlot(int slot, uint64_t ticket, Pending* pending) {
  // Index order makes the lowest live replica the slot's primary: every
  // session prefers the same member, so a healthy slot concentrates load
  // (and cache locality) instead of spraying, and failover preference is
  // deterministic.
  for (int r = 0; r < replicas_; ++r) {
    const int index = slot * replicas_ + r;
    if (Forward(backends_[static_cast<size_t>(index)].get(), ticket,
                pending)) {
      return index;
    }
  }
  return -1;
}

void Router::LaunchShadow(int slot, int served, uint64_t shadow_ticket,
                          uint64_t request_id, uint64_t start_ns,
                          std::vector<uint8_t> shadow_frame) {
  Pending shadow;
  shadow.request_id = request_id;
  shadow.start_ns = start_ns;
  shadow.frame =
      std::make_shared<const std::vector<uint8_t>>(std::move(shadow_frame));
  shadow.check_id = shadow_ticket;
  shadow.shadow = true;
  for (int r = 0; r < replicas_; ++r) {
    const int index = slot * replicas_ + r;
    if (index == served) continue;  // the cross-check needs a SECOND replica
    if (Forward(backends_[static_cast<size_t>(index)].get(), shadow_ticket,
                &shadow)) {
      divergence_checks_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // No second live replica: the sample is skipped, not failed. The primary
  // side finds no check entry when it answers and relays as usual.
  std::lock_guard<std::mutex> lock(pending_mu_);
  checks_.erase(shadow_ticket);
}

void Router::ResolveDivergence(uint64_t check_id, bool is_primary, bool ok,
                               uint64_t fingerprint) {
  bool settled = false;
  bool incomplete = false;
  DivergenceCheck done;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const auto it = checks_.find(check_id);
    if (it == checks_.end()) return;  // skipped or already settled
    DivergenceCheck& check = it->second;
    if (!ok) check.failed = true;
    if (is_primary) {
      check.primary_done = true;
      check.primary_fingerprint = fingerprint;
    } else {
      check.shadow_done = true;
      check.shadow_fingerprint = fingerprint;
    }
    if (check.failed) {
      // An errored side (reject, malformed relay, ...) leaves nothing to
      // compare; settle immediately rather than waiting for the peer.
      incomplete = true;
      settled = true;
    } else if (check.primary_done && check.shadow_done) {
      settled = true;
    }
    if (settled) {
      done = check;
      checks_.erase(it);
    }
  }
  if (!settled) return;
  if (incomplete) {
    divergence_incomplete_.fetch_add(1, std::memory_order_relaxed);
    // One side errored before producing a fingerprint: journal it (warn,
    // not error — nothing diverged, the sample just yielded no verdict).
    // Clean settles stay out of the journal on purpose: at a 1-in-N
    // sample rate they would flood the bounded ring and evict the rare
    // events the tail exists to preserve; their count lives in
    // dflow_replica_divergence_checks_total.
    char seed_hex[17];
    std::snprintf(seed_hex, sizeof(seed_hex), "%016llx",
                  static_cast<unsigned long long>(done.seed));
    journal_.Emit(obs::EventKind::kDivergenceCheck, obs::Severity::kWarn,
                  std::string("incomplete seed=") + seed_hex);
    return;
  }
  if (done.primary_fingerprint == done.shadow_fingerprint) return;
  // Byte-divergent replicas: the determinism contract — the very thing
  // that makes failover provable — is broken. Always loud; fatal when the
  // operator asked for it (dflow_router does).
  divergence_mismatches_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "[router] REPLICA DIVERGENCE seed=%016llx: primary "
               "fingerprint %016llx != replica fingerprint %016llx\n",
               static_cast<unsigned long long>(done.seed),
               static_cast<unsigned long long>(done.primary_fingerprint),
               static_cast<unsigned long long>(done.shadow_fingerprint));
  {
    char detail[96];
    std::snprintf(detail, sizeof(detail),
                  "seed=%016llx primary=%016llx shadow=%016llx",
                  static_cast<unsigned long long>(done.seed),
                  static_cast<unsigned long long>(done.primary_fingerprint),
                  static_cast<unsigned long long>(done.shadow_fingerprint));
    journal_.Emit(obs::EventKind::kDivergenceMismatch, obs::Severity::kError,
                  detail);
    journal_.Flush();
  }
  if (options_.abort_on_divergence) {
    std::fflush(nullptr);
    std::_Exit(3);
  }
}

// --- Backend connections: the dialer attaches them, the backend loop
// runs them.

void Router::DialLoop() {
  std::unique_lock<std::mutex> lock(dial_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    // The first down backend whose backoff has passed, else sleep until
    // the earliest one is due (or a drop or Stop wakes us).
    const Clock::time_point now = Clock::now();
    Backend* due = nullptr;
    Clock::time_point wake = Clock::time_point::max();
    for (const std::unique_ptr<Backend>& backend : backends_) {
      if (!backend->down) continue;
      if (backend->next_dial <= now) {
        due = backend.get();
        break;
      }
      wake = std::min(wake, backend->next_dial);
    }
    if (due == nullptr) {
      if (wake == Clock::time_point::max()) {
        dial_cv_.wait(lock);
      } else {
        dial_cv_.wait_until(lock, wake);
      }
      continue;
    }
    lock.unlock();
    const bool attached = Dial(due);
    lock.lock();
    if (!attached) {
      due->backoff_ms = std::min(due->backoff_ms * 2, options_.backoff_max_ms);
      due->next_dial =
          Clock::now() + std::chrono::milliseconds(due->backoff_ms);
    }
  }
}

bool Router::Dial(Backend* backend) {
  std::string error;
  Socket socket = Socket::ConnectTcp(backend->address.host,
                                     backend->address.port, &error);
  if (!socket.valid()) return false;
  // The Info identity handshake, blocking on this thread but bounded by
  // the receive timeout.
  socket.SetRecvTimeout(kHandshakeRecvTimeoutMs);
  std::vector<uint8_t> request;
  EncodeInfoRequest(&request);
  if (!socket.SendAll(request.data(), request.size())) return false;
  FrameAssembler assembler;
  std::optional<ServerInfo> info;
  // Tolerate a few stray frames, but a fresh connection should answer the
  // info request first.
  for (int frames = 0; frames < 8 && !info.has_value();) {
    if (std::optional<Frame> frame = assembler.Next()) {
      ++frames;
      if (frame->type != static_cast<uint8_t>(MsgType::kInfo)) continue;
      ServerInfo decoded;
      if (!DecodeInfo(frame->payload, &decoded)) return false;
      info = std::move(decoded);
      continue;
    }
    if (assembler.error() != WireError::kNone) return false;
    uint8_t chunk[4096];
    const ssize_t n = socket.Recv(chunk, sizeof(chunk));
    if (n <= 0) return false;
    assembler.Feed(chunk, static_cast<size_t>(n));
  }
  if (!info.has_value() || !AcceptIdentity(backend, *info)) return false;
  bool reconnect = false;
  {
    // Marked up before the conn exists: its on_close, which marks it down
    // again, can run the instant the loop registers it.
    std::lock_guard<std::mutex> lock(dial_mu_);
    backend->down = false;
    backend->up_since = Clock::now();
    reconnect = backend->connected_before;
    backend->connected_before = true;
  }
  EventConn::Handlers handlers;
  handlers.on_frame = [this, backend](EventConn*, Frame& frame) {
    HandleBackendFrame(backend, frame);
    return EventConn::FrameAction::kContinue;
  };
  handlers.on_protocol_error = [this](EventConn*, WireError) {
    front_.CountProtocolError();
  };
  handlers.on_close = [this, backend](EventConn* conn) {
    OnBackendClosed(backend, conn);
  };
  {
    // Added and installed under conn_mu, so on_close finds it installed.
    std::lock_guard<std::mutex> lock(backend->conn_mu);
    backend->conn =
        backend_loop_.Add(std::move(socket), std::move(handlers), nullptr);
    if (backend->conn == nullptr) return false;  // the loop is stopping
  }
  if (reconnect) {
    backend->reconnects.fetch_add(1, std::memory_order_relaxed);
    journal_.Emit(obs::EventKind::kBackendReconnect, obs::Severity::kInfo,
                  "backend=" + AddressText(backend->address));
  }
  if (options_.verbose) {
    std::fprintf(stderr, "[router] backend %s up\n",
                 AddressText(backend->address).c_str());
  }
  return true;
}

bool Router::AcceptIdentity(Backend* backend, const ServerInfo& info) {
  // All backends must serve the same strategy: routing by seed assumes any
  // node would produce the same bytes for a request, which only holds for
  // a homogeneous fleet. An AUTO fleet is homogeneous iff every backend
  // also reports the same advisor fingerprint (same calibration, same
  // candidates => identical per-request choices). The v5 fleet-epoch stamp
  // extends the rule to whole deployments: a mixed-epoch replica set
  // (half-upgraded, mixed calibration data, ...) would let failover swap a
  // request onto divergent bytes. The first handshake (backend 0's, as the
  // dialer goes in index order) sets the fleet identity; every later one,
  // re-handshakes included, must match it. A refused backend keeps being
  // redialed with backoff while its seeds fail fast; Start() fails on it.
  std::string refusal;
  {
    std::lock_guard<std::mutex> lock(strategy_mu_);
    if (!identity_set_) {
      identity_set_ = true;
      fleet_epoch_ = info.fleet_epoch;
      strategy_ = info.strategy;
      advisor_fingerprint_ = info.advisor.fingerprint;
    } else if (info.fleet_epoch != fleet_epoch_) {
      refusal = "reports fleet epoch " + std::to_string(info.fleet_epoch) +
                " but the fleet runs epoch " + std::to_string(fleet_epoch_);
    } else if (info.strategy != strategy_) {
      refusal = "runs " + info.strategy + " but the fleet runs " + strategy_;
    } else if (info.advisor.fingerprint != advisor_fingerprint_) {
      refusal =
          "runs AUTO with a different calibration (advisor fingerprint "
          "mismatch)";
    }
  }
  if (!refusal.empty()) {
    journal_.Emit(obs::EventKind::kEpochRefusal, obs::Severity::kWarn,
                  "backend=" + AddressText(backend->address) + " " + refusal);
  }
  std::lock_guard<std::mutex> lock(backend->info_mu);
  backend->refusal = refusal;
  if (!refusal.empty()) return false;
  backend->node_id = info.node_id;
  backend->shards = info.num_shards;
  backend->backend_kind = info.backend;
  backend->queue_capacity = info.queue_capacity_per_shard;
  return true;
}

void Router::OnBackendClosed(Backend* backend, EventConn* conn) {
  {
    std::lock_guard<std::mutex> lock(backend->conn_mu);
    if (backend->conn.get() != conn) return;
    // From here no ticket can be registered on this backend until the
    // dialer attaches a new conn, which it does only after the sweep.
    backend->conn = nullptr;
  }
  // A drop during graceful shutdown is the Goodbye exchange, not a
  // death — only unexpected disconnects make the journal.
  if (!stopping_.load(std::memory_order_acquire)) {
    journal_.Emit(obs::EventKind::kBackendDeath, obs::Severity::kError,
                  "backend=" + AddressText(backend->address));
  }
  FailPendingOn(backend->index);
  if (options_.verbose) {
    std::fprintf(stderr, "[router] backend %s down\n",
                 AddressText(backend->address).c_str());
  }
  {
    std::lock_guard<std::mutex> lock(dial_mu_);
    // Reset the reconnect backoff only once a connection PROVED healthy by
    // surviving a while: a backend that completes the handshake and then
    // dies right away (crash loop, bad deploy) keeps doubling toward the
    // cap instead of hot-looping at the initial delay.
    const Clock::time_point now = Clock::now();
    backend->backoff_ms =
        now - backend->up_since >= kHealthyConnectionUptime
            ? options_.backoff_initial_ms
            : std::min(backend->backoff_ms * 2, options_.backoff_max_ms);
    backend->next_dial = now + std::chrono::milliseconds(backend->backoff_ms);
    backend->down = true;
  }
  dial_cv_.notify_all();
}

void Router::HandleBackendFrame(Backend* backend, Frame& frame) {
  const MsgType type = static_cast<MsgType>(frame.type);
  if (type == MsgType::kInfo || type == MsgType::kGoodbyeAck) return;
  if (type == MsgType::kStats) {
    // Files the answer with the poll its ticket names. No probe means the
    // poll already replied without it; the bytes are simply dropped.
    StatsInfo answer;
    const bool ok = DecodeStats(frame.payload, &answer);
    if (!ok) front_.CountProtocolError();
    std::lock_guard<std::mutex> lock(stats_mu_);
    const auto it = stats_probes_.find(PeekRequestId(frame.payload));
    if (it == stats_probes_.end()) return;
    StatsPoll& poll = *it->second.poll;
    if (ok) poll.answers[it->second.backend_index] = std::move(answer.self);
    --poll.outstanding;
    stats_probes_.erase(it);
    return;
  }
  if (type != MsgType::kSubmitResult && type != MsgType::kError) {
    front_.CountProtocolError();
    return;
  }
  if (frame.payload.size() < kRequestIdBytes) {
    front_.CountProtocolError();
    return;
  }
  const uint64_t ticket = ReadLe64(frame.payload.data());
  if (type == MsgType::kError && ticket == 0) {
    // A stream-level complaint not attributable to one request. The
    // router only relays well-formed frames, so this is a backend-side
    // anomaly; it will be followed by the connection dropping.
    front_.CountProtocolError();
    return;
  }
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const auto it = pending_.find(ticket);
    if (it == pending_.end()) return;  // swept after a drop; already answered
    pending = std::move(it->second);
    pending_.erase(it);
  }
  // Divergence bookkeeping: a checked side contributes its fingerprint
  // (peeked at its fixed result offset — still no body decode). The
  // shadow copy ends here: it has no session, no outbox slot, and is
  // never relayed.
  if (pending.check_id != 0) {
    const bool result_ok =
        type == MsgType::kSubmitResult &&
        frame.payload.size() >= kResultFingerprintOffset + sizeof(uint64_t);
    const uint64_t fingerprint =
        result_ok ? ReadLe64(frame.payload.data() + kResultFingerprintOffset)
                  : 0;
    ResolveDivergence(pending.check_id, /*is_primary=*/!pending.shadow,
                      result_ok, fingerprint);
  }
  if (pending.shadow) return;
  if (type == MsgType::kSubmitResult) {
    relayed_results_.fetch_add(1, std::memory_order_relaxed);
  } else if (frame.payload.size() >= kErrorCodeOffset + sizeof(uint16_t)) {
    const uint16_t code = ReadLe16(frame.payload.data() + kErrorCodeOffset);
    if (code == static_cast<uint16_t>(WireError::kRejectedBusy)) {
      relayed_busy_.fetch_add(1, std::memory_order_relaxed);
    } else if (code == static_cast<uint16_t>(WireError::kShuttingDown)) {
      relayed_shutdown_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  backend->answered.fetch_add(1, std::memory_order_relaxed);
  const uint64_t now_ns = obs::MonotonicNs();
  if (type == MsgType::kSubmitResult) {
    wall_latency_us_->Observe(
        static_cast<double>(now_ns - pending.start_ns) / 1e3);
  }
  // Restore the client's correlation id in place and relay the frame
  // byte-for-byte otherwise (one re-framing copy, no decode).
  WriteLe64(pending.request_id, frame.payload.data());
  if (pending.trace != nullptr) {
    if (type == MsgType::kSubmitResult) {
      // The cross-node span: start_ns 0 by convention (the two nodes'
      // monotonic clocks are not comparable), duration the router's
      // forward->relay extent. O(1) in-place append to the v4 timing
      // trailer; a saturated trailer relays untouched.
      AppendResultSpan(&frame.payload, pending.trace->trace_id(),
                       static_cast<uint8_t>(obs::SpanKind::kRouterForward),
                       /*start_ns=*/0, now_ns - pending.start_ns);
      pending.trace->AddSpan(obs::SpanKind::kRouterForward, pending.start_ns,
                             now_ns);
    }
    // Errors finish the trace too — relayed rejections are investigation
    // material, and an unfinished trace would leak from the started/
    // finished counters' point of view.
    recorder_.Finish(pending.trace, now_ns - pending.start_ns);
  }
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  EncodeRawFrame(frame.type, frame.payload, &out);
  // Any-thread outbox surface: Push + Finish from the backend loop; the
  // wake doorbell schedules the flush on the front loop thread that owns
  // the socket. Push before Finish, so a graceful close seeing in-flight
  // zero finds every answer already in the outbox.
  pending.conn->outbox().Push(std::move(out));
  pending.conn->outbox().FinishRequest();
}

void Router::FailPendingOn(int backend_index) {
  std::vector<std::pair<uint64_t, Pending>> victims;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.backend_index == backend_index) {
        victims.emplace_back(it->first, std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (victims.empty()) return;
  Backend* backend = backends_[static_cast<size_t>(backend_index)].get();
  const int slot = backend->slot;
  const std::string message =
      "backend " + AddressText(backend->address) + " connection lost";
  // A victim's divergence check settles with no verdict.
  const auto abandon_check = [this](uint64_t check_id) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (checks_.erase(check_id) > 0) {
      divergence_incomplete_.fetch_add(1, std::memory_order_relaxed);
    }
  };
  int failed_over = 0;
  int unavailable = 0;
  for (auto& [ticket, pending] : victims) {
    // Divergence shadows are abandoned, never re-issued: the check is a
    // sample, and re-running it against a THIRD party would not audit the
    // pair it started on.
    if (pending.shadow) {
      abandon_check(pending.check_id);
      continue;
    }
    // Transparent failover: replay the retained frame — same ticket, same
    // bytes — against a live sibling replica. Deterministic, side-effect-
    // free execution makes the re-run byte-identical, and the ticket
    // lives in at most one pending entry, so the client still gets
    // exactly one answer. Whatever the dead backend computed but never
    // delivered is simply recomputed.
    if (pending.attempts < kMaxFailoverAttempts) {
      ++pending.attempts;
      if (ForwardToSlot(slot, ticket, &pending) >= 0) {
        backend->failovers.fetch_add(1, std::memory_order_relaxed);
        failovers_total_.fetch_add(1, std::memory_order_relaxed);
        ++failed_over;
        continue;
      }
    }
    // Whole slot down (or a flapping fleet exhausted the attempt cap):
    // answer with the typed error, exactly the pre-replication semantics.
    if (pending.check_id != 0) abandon_check(pending.check_id);
    const uint64_t now_ns = obs::MonotonicNs();
    backend->unavailable.fetch_add(1, std::memory_order_relaxed);
    unavailable_total_.fetch_add(1, std::memory_order_relaxed);
    ++unavailable;
    if (pending.trace != nullptr) {
      recorder_.Finish(pending.trace, now_ns - pending.start_ns);
    }
    SendError(pending.conn.get(), pending.request_id,
              WireError::kBackendUnavailable, message);
    pending.conn->outbox().FinishRequest();
  }
  // One journal entry per sweep, not per ticket: a death orphaning 500
  // in-flight requests is one operational fact, and the bounded ring must
  // not trade the death/reconnect story for 500 copies of it.
  if (failed_over > 0) {
    journal_.Emit(obs::EventKind::kFailover, obs::Severity::kWarn,
                  "backend=" + AddressText(backend->address) +
                      " tickets=" + std::to_string(failed_over));
  }
  if (unavailable > 0) {
    journal_.Emit(obs::EventKind::kFailover, obs::Severity::kError,
                  "backend=" + AddressText(backend->address) +
                      " slot=" + std::to_string(slot) +
                      " unanswerable=" + std::to_string(unavailable));
  }
}

}  // namespace dflow::net
