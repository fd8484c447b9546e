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

// Recv ceiling during the connect-time Info handshake only; steady-state
// backend reads block forever (responses can legitimately be minutes away
// behind a deep queue).
constexpr int kHandshakeRecvTimeoutMs = 5000;

// Fixed payload offsets the router peeks/patches without decoding:
//   Submit:        request_id u64 | seed u64 | flags u32 | ...
//   SubmitResult:  request_id u64 | shard u32 | work i64 | wasted i64 |
//                  response_time f64 | queries u32 | speculative u32 |
//                  fingerprint u64 | ...
//   Error:         request_id u64 | code u16 | ...
constexpr size_t kSubmitPeekBytes = 20;
// The divergence check compares replica answers by the fingerprint field,
// peeked at its fixed offset — still no body decode on the relay path.
constexpr size_t kResultFingerprintOffset = 44;
constexpr size_t kResultPeekBytes = kResultFingerprintOffset + 8;

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

// Deadline of one fleet STATS poll. The request shares the pooled stream
// with forwarded submits, so a backend parked on a full shard queue delays
// its answer — after this long the poll replies with a synthesized entry
// for every backend still silent.
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
      front_(options_, "router", this, &journal_, &metrics_) {
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
  const int pool = std::max(1, options_.connections_per_backend);
  backends_.reserve(options_.backends.size());
  for (const BackendAddress& address : options_.backends) {
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    backend->slot = static_cast<int>(backends_.size()) / replicas_;
    backend->replica = static_cast<int>(backends_.size()) % replicas_;
    backends_.push_back(std::move(backend));
  }
  for (size_t b = 0; b < backends_.size(); ++b) {
    Backend* backend = backends_[b].get();
    for (int c = 0; c < pool; ++c) {
      auto conn = std::make_unique<BackendConn>();
      conn->backend_index = static_cast<int>(b);
      conn->conn_index = c;
      BackendConn* raw = conn.get();
      backend->conns.push_back(std::move(conn));
      raw->thread = std::thread([this, backend, raw] {
        BackendLoop(backend, raw);
      });
    }
  }
  // Per-backend metric families, one labeled series per backend. The
  // Backend objects (and their conns vectors) are append-only from here,
  // so the raw pointers the callbacks capture stay valid for the router's
  // lifetime. Family-outer loops keep each family's series contiguous in
  // the text exposition.
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
        [raw] {
          for (const std::unique_ptr<BackendConn>& conn : raw->conns) {
            if (conn->ready.load(std::memory_order_acquire)) return 1.0;
          }
          return 0.0;
        });
  }
  // Admit no client until the whole fleet answered its identity handshake:
  // a router that starts half-connected would deterministically fail every
  // seed hashing to the missing node.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.connect_timeout_s));
  while (true) {
    const Backend* missing = nullptr;
    for (const std::unique_ptr<Backend>& backend : backends_) {
      bool any = false;
      for (const std::unique_ptr<BackendConn>& conn : backend->conns) {
        any = any || conn->ready.load(std::memory_order_acquire);
      }
      if (!any) {
        missing = backend.get();
        break;
      }
    }
    if (missing == nullptr) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      if (error != nullptr) {
        *error = "backend " + AddressText(missing->address) +
                 " unreachable within " +
                 std::to_string(options_.connect_timeout_s) + "s";
      }
      Stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // All backends must serve the same strategy: routing by seed assumes any
  // node would produce the same bytes for a request, which only holds for
  // a homogeneous fleet. An AUTO fleet is homogeneous iff every backend
  // also reports the same advisor fingerprint (same calibration, same
  // candidates => identical per-request choices); AUTO backends with
  // different calibrations would serve different bytes for the same seed.
  // The v5 fleet-epoch stamp extends the same rule to whole deployments: a
  // mixed-epoch replica set (half-upgraded, mixed calibration data, ...)
  // refuses to start rather than serving divergent bytes — replication
  // makes this existential, since replicas stand in for each other.
  // (Re-handshakes enforce the same invariants later.)
  for (const std::unique_ptr<Backend>& backend : backends_) {
    std::string backend_strategy;
    uint64_t backend_advisor = 0;
    uint64_t backend_epoch = 0;
    {
      std::lock_guard<std::mutex> lock(backend->info_mu);
      backend_strategy = backend->strategy;
      backend_advisor = backend->advisor_fingerprint;
      backend_epoch = backend->fleet_epoch;
    }
    bool mismatch = false;
    {
      std::lock_guard<std::mutex> lock(strategy_mu_);
      if (!epoch_set_) {
        fleet_epoch_ = backend_epoch;
        epoch_set_ = true;
      }
      if (backend_epoch != fleet_epoch_) {
        if (error != nullptr) {
          *error = "backend " + AddressText(backend->address) +
                   " reports fleet epoch " + std::to_string(backend_epoch) +
                   " but the fleet runs epoch " + std::to_string(fleet_epoch_);
        }
        mismatch = true;
      } else if (strategy_.empty()) {
        strategy_ = backend_strategy;
        advisor_fingerprint_ = backend_advisor;
      } else if (backend_strategy != strategy_) {
        if (error != nullptr) {
          *error = "backend " + AddressText(backend->address) + " runs " +
                   backend_strategy + " but the fleet runs " + strategy_;
        }
        mismatch = true;
      } else if (backend_advisor != advisor_fingerprint_) {
        if (error != nullptr) {
          *error = "backend " + AddressText(backend->address) +
                   " runs AUTO with a different calibration (advisor "
                   "fingerprint mismatch)";
        }
        mismatch = true;
      }
    }
    if (mismatch) {
      Stop();
      return false;
    }
  }
  if (!front_.Start(error)) {
    Stop();
    return false;
  }
  health_.Start();
  return true;
}

void Router::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_seq_cst);
  // 1. Stop accepting, then gracefully close every front-door conn. The
  // loop waits for each conn's in-flight tickets to be answered (the
  // backend pool is still live, so forwarded submits complete) and flushes
  // the responses before the sockets close — this is the "every admitted
  // request answered" barrier.
  front_.Stop();
  // 2. Only now retire the pool: nothing is owed to any client, so the
  // backends get a best-effort Goodbye and the conn threads exit instead
  // of reconnecting (stopping_ is visible under each send_mu).
  backoff_cv_.notify_all();
  for (const std::unique_ptr<Backend>& backend : backends_) {
    for (const std::unique_ptr<BackendConn>& conn : backend->conns) {
      std::lock_guard<std::mutex> lock(conn->send_mu);
      if (conn->client != nullptr) {
        conn->client->SendGoodbye();
        conn->client->Shutdown();
      }
    }
  }
  for (const std::unique_ptr<Backend>& backend : backends_) {
    for (const std::unique_ptr<BackendConn>& conn : backend->conns) {
      if (conn->thread.joinable()) conn->thread.join();
    }
  }
  // 3. Retire the health plane last: the drain event closes the journal's
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
    for (const std::unique_ptr<BackendConn>& conn : backend->conns) {
      if (conn->ready.load(std::memory_order_acquire)) {
        entry.connected = 1;
        break;
      }
    }
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
  poll->deadline = std::chrono::steady_clock::now() + kStatsPollTimeout;
  poll->answers.resize(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    // Registered before the send: the answer may beat the send's return.
    const uint64_t ticket = next_ticket_.fetch_add(1);
    poll->tickets.push_back(ticket);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_probes_.emplace(ticket, StatsProbe{poll, i});
      ++poll->outstanding;
    }
    std::vector<uint8_t> out;
    EncodeStatsRequest(StatsRequest{ticket, poll->request.sections}, &out);
    if (!SendToBackend(backends_[i].get(), out)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (stats_probes_.erase(ticket) != 0) --poll->outstanding;
    }
  }
  // Polled on the loop's 1ms ticks: the conn stops reading (later frames
  // keep their order behind this reply), every other conn keeps flowing.
  const auto settle = [this, conn, poll] {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (poll->outstanding > 0 &&
          std::chrono::steady_clock::now() < poll->deadline) {
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

bool Router::SendToBackend(Backend* backend,
                           const std::vector<uint8_t>& frame) {
  for (const std::unique_ptr<BackendConn>& conn : backend->conns) {
    if (!conn->ready.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(conn->send_mu);
    if (conn->ready.load(std::memory_order_acquire) &&
        conn->client != nullptr && conn->client->SendFrame(frame)) {
      return true;
    }
  }
  return false;
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
      const Backend* backend =
          backends_[static_cast<size_t>(slot * replicas_ + r)].get();
      for (const std::unique_ptr<BackendConn>& conn : backend->conns) {
        if (conn->ready.load(std::memory_order_acquire)) {
          live = true;
          break;
        }
      }
    }
    if (!live) ++down;
  }
  return down;
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
  // still the O(1) fixed-offset relay.
  for (size_t i = 0; i < request.items.size(); ++i) {
    SubmitRequest item;
    item.request_id = request.request_id_base + i;
    item.seed = request.items[i].seed;
    item.blocking = request.blocking;
    item.want_snapshot = request.want_snapshot;
    item.strategy = request.strategy;
    item.sources = std::move(request.items[i].sources);
    std::vector<uint8_t> bytes;
    EncodeSubmit(item, &bytes);
    Frame singleton;
    singleton.type = static_cast<uint8_t>(MsgType::kSubmit);
    singleton.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
    HandleSubmit(conn, session, singleton);
  }
  return EventConn::FrameAction::kContinue;
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
  const uint64_t request_id = ReadLe64(frame.payload.data());
  const uint64_t seed = ReadLe64(frame.payload.data() + 8);
  // The same hash the FlowServer uses for shard placement, over the slot
  // count: slot choice is a pure function of the seed, so any fleet size
  // serves byte-identical results — and within a slot every replica serves
  // the same bytes, so replica choice is free.
  const int slot = runtime::FlowServer::ShardFor(seed, num_slots_);
  // Trace decision at the fleet's entry point: a client-set trace flag is
  // always honored, otherwise the router's own deterministic sample
  // applies. Either way the forwarded frame carries the v4 trace extension
  // with the router-minted id, so the backend adopts one identity and the
  // router.forward span appended on the way back joins the backend's spans
  // under a single trace. Still no payload decode: the flag is one bit of
  // the fixed-offset flags word, and the extension is the payload's last
  // nine bytes.
  std::shared_ptr<obs::RequestTrace> trace;
  const bool client_flagged = (frame.payload[16] & 0x04) != 0;
  if (client_flagged || recorder_.ShouldTrace(seed)) {
    const bool has_extension =
        client_flagged && frame.payload.size() >= kSubmitPeekBytes + 9;
    uint64_t upstream_id = 0;
    if (has_extension) {
      upstream_id =
          ReadLe64(frame.payload.data() + frame.payload.size() - 9);
    }
    trace = recorder_.Begin(seed, upstream_id);
    if (has_extension) {
      // trace_id 0 in a client extension means "assign at the entry
      // point" — that is us; a nonzero id came from further upstream and
      // Begin() adopted it, so this write is then a no-op.
      WriteLe64(trace->trace_id(),
                frame.payload.data() + frame.payload.size() - 9);
    } else {
      frame.payload[16] |= 0x04;  // kFlagHasTrace (flags u32 LE @ 16)
      uint8_t extension[9] = {0};
      WriteLe64(trace->trace_id(), extension);
      frame.payload.insert(frame.payload.end(), extension, extension + 9);
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
  int served = -1;
  switch (ForwardToSlot(slot, ticket, &pending, &served)) {
    case ForwardOutcome::kForwarded:
      session->accepted.fetch_add(1, std::memory_order_relaxed);
      requests_routed_.fetch_add(1, std::memory_order_relaxed);
      backends_[static_cast<size_t>(served)]->forwarded.fetch_add(
          1, std::memory_order_relaxed);
      if (cross_check) {
        LaunchShadow(slot, served, check_id, request_id, start_ns,
                     std::move(shadow_frame));
      }
      break;
    case ForwardOutcome::kAnsweredElsewhere:
      if (cross_check) {
        std::lock_guard<std::mutex> lock(pending_mu_);
        checks_.erase(check_id);
      }
      break;  // a death sweep answered (and decremented) already
    case ForwardOutcome::kUnavailable: {
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
                    AddressText(
                        backends_[static_cast<size_t>(slot)]->address) +
                    " disconnected";
      SendError(conn, request_id, WireError::kBackendUnavailable, what);
      conn->outbox().FinishRequest();
      break;
    }
  }
  return EventConn::FrameAction::kContinue;
}

Router::ForwardOutcome Router::Forward(Backend* backend, uint64_t ticket,
                                       Pending* pending) {
  const int pool = static_cast<int>(backend->conns.size());
  const uint32_t start = backend->rr.fetch_add(1, std::memory_order_relaxed);
  for (int k = 0; k < pool; ++k) {
    BackendConn* conn =
        backend->conns[(start + static_cast<uint32_t>(k)) %
                       static_cast<uint32_t>(pool)]
            .get();
    if (!conn->ready.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(conn->send_mu);
    // Recheck under the lock: a conn that died since the relaxed peek has
    // ready=false here (the conn thread clears it before taking send_mu).
    if (!conn->ready.load(std::memory_order_acquire) ||
        conn->client == nullptr) {
      continue;
    }
    // Register before sending — the response can arrive on the conn
    // thread the instant the bytes leave. Whoever erases the entry
    // (response relay, death sweep, or the unwind below) owns answering.
    // Send from our own reference to the shared frame bytes, NOT from the
    // map node: a fast response (or death sweep) can move the Pending out
    // of the map while SendFrame is still reading, and only pending_mu_
    // guards the node — this conn's send_mu does not.
    std::shared_ptr<const std::vector<uint8_t>> frame;
    {
      std::lock_guard<std::mutex> pending_lock(pending_mu_);
      pending->backend_index = conn->backend_index;
      pending->conn_index = conn->conn_index;
      frame = pending->frame;
      auto [it, inserted] = pending_.emplace(ticket, std::move(*pending));
      if (!inserted) return ForwardOutcome::kAnsweredElsewhere;
    }
    // May block on a full TCP window — that is the end-to-end
    // backpressure path (downstream queue full -> downstream reader
    // parked -> our send stalls -> our session reader stalls -> the
    // client's TCP stalls).
    if (conn->client->SendFrame(*frame)) return ForwardOutcome::kForwarded;
    // Not fully delivered, so no response can exist: reclaim the ticket
    // (unless a sweep already took it over) and try the next conn.
    {
      std::lock_guard<std::mutex> pending_lock(pending_mu_);
      const auto it = pending_.find(ticket);
      if (it == pending_.end()) return ForwardOutcome::kAnsweredElsewhere;
      if (it->second.backend_index != conn->backend_index ||
          it->second.conn_index != conn->conn_index) {
        // A death sweep re-issued it to a sibling while we unwound: the
        // ticket is in flight there and that path owns answering it.
        return ForwardOutcome::kForwarded;
      }
      *pending = std::move(it->second);
      pending_.erase(it);
    }
  }
  return ForwardOutcome::kUnavailable;
}

Router::ForwardOutcome Router::ForwardToSlot(int slot, uint64_t ticket,
                                             Pending* pending, int* served) {
  // Index order makes the lowest live replica the slot's primary: every
  // session prefers the same member, so a healthy slot concentrates load
  // (and cache locality) instead of spraying, and failover preference is
  // deterministic.
  for (int r = 0; r < replicas_; ++r) {
    const int index = slot * replicas_ + r;
    Backend* backend = backends_[static_cast<size_t>(index)].get();
    switch (Forward(backend, ticket, pending)) {
      case ForwardOutcome::kForwarded:
        if (served != nullptr) *served = index;
        return ForwardOutcome::kForwarded;
      case ForwardOutcome::kAnsweredElsewhere:
        return ForwardOutcome::kAnsweredElsewhere;
      case ForwardOutcome::kUnavailable:
        continue;  // dead replica; try the next sibling
    }
  }
  return ForwardOutcome::kUnavailable;
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
    Backend* backend = backends_[static_cast<size_t>(index)].get();
    if (Forward(backend, shadow_ticket, &shadow) !=
        ForwardOutcome::kUnavailable) {
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

// --- Backend pool: one thread per pooled connection owns its whole
// connect / handshake / read / reconnect lifecycle.

void Router::BackendLoop(Backend* backend, BackendConn* conn) {
  int backoff_ms = options_.backoff_initial_ms;
  bool connected_before = false;
  bool first_attempt = true;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!first_attempt) {
      // Exponential backoff between attempts, abandoned instantly on Stop.
      std::unique_lock<std::mutex> lock(backoff_mu_);
      backoff_cv_.wait_for(lock, std::chrono::milliseconds(backoff_ms), [&] {
        return stopping_.load(std::memory_order_acquire);
      });
      if (stopping_.load(std::memory_order_acquire)) break;
    }
    first_attempt = false;
    auto client = std::make_unique<Client>();
    std::string error;
    if (!client->Connect(backend->address.host, backend->address.port,
                         &error) ||
        !Handshake(backend, client.get())) {
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conn->send_mu);
      // Stop() shuts down installed clients under this mutex; a client
      // installed after that pass would never be unblocked, so check here.
      if (stopping_.load(std::memory_order_acquire)) break;
      conn->client = std::move(client);
    }
    conn->ready.store(true, std::memory_order_release);
    if (connected_before) {
      backend->reconnects.fetch_add(1, std::memory_order_relaxed);
      journal_.Emit(obs::EventKind::kBackendReconnect, obs::Severity::kInfo,
                    "backend=" + AddressText(backend->address) +
                        " conn=" + std::to_string(conn->conn_index));
    }
    connected_before = true;
    const auto up_since = std::chrono::steady_clock::now();
    if (options_.verbose) {
      std::fprintf(stderr, "[router] backend %s conn %d up\n",
                   AddressText(backend->address).c_str(), conn->conn_index);
    }
    while (true) {
      std::optional<Frame> frame = conn->client->ReadFrame();
      if (!frame.has_value()) break;  // EOF, error, or Stop's Shutdown
      HandleBackendFrame(backend, std::move(*frame));
    }
    // Reset the reconnect backoff only once a connection PROVED healthy by
    // surviving a while: a backend that completes the handshake and then
    // dies right away (crash loop, bad deploy) keeps doubling toward the
    // cap instead of hot-looping at the initial delay.
    if (std::chrono::steady_clock::now() - up_since >=
        kHealthyConnectionUptime) {
      backoff_ms = options_.backoff_initial_ms;
    } else {
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
    }
    // Disconnected. Clear ready first, then take send_mu: any sender
    // mid-SendAll finishes (failing), and no new ticket can be registered
    // on this conn until the next handshake completes — so the sweep
    // below is complete.
    conn->ready.store(false, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(conn->send_mu);
      conn->client->Close();
    }
    // A drop during graceful shutdown is the Goodbye exchange, not a
    // death — only unexpected disconnects make the journal.
    if (!stopping_.load(std::memory_order_acquire)) {
      journal_.Emit(obs::EventKind::kBackendDeath, obs::Severity::kError,
                    "backend=" + AddressText(backend->address) +
                        " conn=" + std::to_string(conn->conn_index));
    }
    FailPendingOn(conn->backend_index, conn->conn_index);
    if (options_.verbose) {
      std::fprintf(stderr, "[router] backend %s conn %d down\n",
                   AddressText(backend->address).c_str(), conn->conn_index);
    }
  }
}

bool Router::Handshake(Backend* backend, Client* client) {
  client->SetRecvTimeout(kHandshakeRecvTimeoutMs);
  if (!client->SendInfoRequest()) return false;
  ServerInfo info;
  bool got = false;
  // Tolerate a few stray frames, but a fresh connection should answer the
  // info request first.
  for (int i = 0; i < 8 && !got; ++i) {
    const std::optional<Frame> frame = client->ReadFrame();
    if (!frame.has_value()) return false;
    if (frame->type == static_cast<uint8_t>(MsgType::kInfo)) {
      if (!DecodeInfo(frame->payload, &info)) return false;
      got = true;
    }
  }
  if (!got) return false;
  // Re-handshakes must keep the fleet homogeneous: a backend restarted
  // with a different strategy — or, on an AUTO fleet, a different advisor
  // calibration — is refused (the conn keeps backing off, its seeds keep
  // failing fast); re-attaching it would silently serve different bytes
  // for those seeds. strategy_ is empty only during the initial Start()
  // handshakes, which Start() itself cross-validates.
  {
    std::lock_guard<std::mutex> lock(strategy_mu_);
    if (!strategy_.empty() &&
        (info.strategy != strategy_ ||
         info.advisor.fingerprint != advisor_fingerprint_)) {
      if (options_.verbose) {
        std::fprintf(
            stderr,
            "[router] backend %s refused: runs %s (advisor %016llx), fleet "
            "runs %s (advisor %016llx)\n",
            AddressText(backend->address).c_str(), info.strategy.c_str(),
            static_cast<unsigned long long>(info.advisor.fingerprint),
            strategy_.c_str(),
            static_cast<unsigned long long>(advisor_fingerprint_));
      }
      journal_.Emit(obs::EventKind::kEpochRefusal, obs::Severity::kWarn,
                    "backend=" + AddressText(backend->address) +
                        " runs=" + info.strategy + " fleet=" + strategy_);
      return false;
    }
    // Same rule for the v5 fleet-epoch stamp: a backend restarted under a
    // different deployment generation is refused — with replicas standing
    // in for each other, re-attaching it would let failover silently swap
    // a request onto divergent bytes.
    if (epoch_set_ && info.fleet_epoch != fleet_epoch_) {
      if (options_.verbose) {
        std::fprintf(
            stderr,
            "[router] backend %s refused: fleet epoch %llu, fleet runs "
            "%llu\n",
            AddressText(backend->address).c_str(),
            static_cast<unsigned long long>(info.fleet_epoch),
            static_cast<unsigned long long>(fleet_epoch_));
      }
      journal_.Emit(obs::EventKind::kEpochRefusal, obs::Severity::kWarn,
                    "backend=" + AddressText(backend->address) +
                        " epoch=" + std::to_string(info.fleet_epoch) +
                        " fleet=" + std::to_string(fleet_epoch_));
      return false;
    }
  }
  client->SetRecvTimeout(0);
  std::lock_guard<std::mutex> lock(backend->info_mu);
  backend->node_id = info.node_id;
  backend->strategy = info.strategy;
  backend->shards = info.num_shards;
  backend->backend_kind = info.backend;
  backend->queue_capacity = info.queue_capacity_per_shard;
  backend->advisor_fingerprint = info.advisor.fingerprint;
  backend->fleet_epoch = info.fleet_epoch;
  return true;
}

void Router::HandleBackendFrame(Backend* backend, Frame frame) {
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
  if (frame.payload.size() < 8) {
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
    const bool result_ok = type == MsgType::kSubmitResult &&
                           frame.payload.size() >= kResultPeekBytes;
    const uint64_t fingerprint =
        result_ok ? ReadLe64(frame.payload.data() + kResultFingerprintOffset)
                  : 0;
    ResolveDivergence(pending.check_id, /*is_primary=*/!pending.shadow,
                      result_ok, fingerprint);
  }
  if (pending.shadow) return;
  if (type == MsgType::kSubmitResult) {
    relayed_results_.fetch_add(1, std::memory_order_relaxed);
  } else if (frame.payload.size() >= 10) {
    const uint16_t code = ReadLe16(frame.payload.data() + 8);
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
  // Any-thread outbox surface: Push + Finish from this backend thread; the
  // wake doorbell schedules the flush on the loop thread that owns the
  // socket. Push before Finish, so a graceful close seeing in-flight zero
  // finds every answer already in the outbox.
  pending.conn->outbox().Push(std::move(out));
  pending.conn->outbox().FinishRequest();
}

void Router::FailPendingOn(int backend_index, int conn_index) {
  std::vector<std::pair<uint64_t, Pending>> victims;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.backend_index == backend_index &&
          it->second.conn_index == conn_index) {
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
  int failed_over = 0;
  int unavailable = 0;
  for (auto& [ticket, pending] : victims) {
    // Divergence shadows are abandoned, never re-issued: the check is a
    // sample, and re-running it against a THIRD party would not audit the
    // pair it started on.
    if (pending.shadow) {
      bool had_check;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        had_check = checks_.erase(pending.check_id) > 0;
      }
      if (had_check) {
        divergence_incomplete_.fetch_add(1, std::memory_order_relaxed);
      }
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
      const ForwardOutcome outcome =
          ForwardToSlot(slot, ticket, &pending, nullptr);
      if (outcome != ForwardOutcome::kUnavailable) {
        backend->failovers.fetch_add(1, std::memory_order_relaxed);
        failovers_total_.fetch_add(1, std::memory_order_relaxed);
        ++failed_over;
        if (options_.verbose) {
          std::fprintf(stderr,
                       "[router] ticket %llu failed over off %s\n",
                       static_cast<unsigned long long>(ticket),
                       AddressText(backend->address).c_str());
        }
        continue;
      }
    }
    // Whole slot down (or a flapping fleet exhausted the attempt cap):
    // answer with the typed error, exactly the pre-replication semantics.
    if (pending.check_id != 0) {
      bool had_check;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        had_check = checks_.erase(pending.check_id) > 0;
      }
      if (had_check) {
        divergence_incomplete_.fetch_add(1, std::memory_order_relaxed);
      }
    }
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
