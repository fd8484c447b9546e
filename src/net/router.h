#ifndef DFLOW_NET_ROUTER_H_
#define DFLOW_NET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/front_door.h"
#include "net/wire_protocol.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/server_stats.h"

namespace dflow::net {

// One downstream dflow_serve instance the router fans out to.
struct BackendAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

// Parses a backend list: "4521,4522" or "host:4521,host:4522", mixed forms
// allowed; the host defaults to 127.0.0.1. Every port must be a whole
// base-10 token in [1, 65535], and a host before a colon must be non-empty.
// Appends to *out; false on the first bad item or an empty list.
bool ParseBackendList(const std::string& text,
                      std::vector<BackendAddress>* out);

struct RouterOptions : FrontDoorOptions {
  // The fleet. Routing is FlowServer::ShardFor(seed, num_slots) where
  // num_slots = backends.size() / replicas, so the slot a request lands on
  // — and therefore every result byte — is a pure function of the
  // submitted request set, for any fleet size.
  std::vector<BackendAddress> backends;
  // Replica group width: consecutive runs of `replicas` backends form one
  // hash slot (backends [0, replicas) are slot 0, and so on), every member
  // serving byte-identical results for the slot's seeds. Submits go to the
  // slot's primary (its lowest-index live replica); when a replica's
  // connection drops, its unanswered in-flight tickets are transparently
  // re-issued to a live sibling. backends.size() must be a multiple of
  // this; 1 (the default) is the PR-4 unreplicated behavior.
  int replicas = 1;
  // Replica-divergence cross-check sampling: 1-in-N submits (chosen by a
  // deterministic seed hash, like trace sampling) are additionally sent to
  // a second live replica of their slot, and the two result fingerprints
  // must agree — byte-identity across replicas is the invariant that makes
  // failover safe, so it is continuously audited rather than assumed.
  // Shadow copies never reach the client and are invisible to front-door
  // accounting. 0 disables the check; meaningless unless replicas > 1.
  uint32_t divergence_sample_period = 0;
  // Treat a divergence-check fingerprint mismatch as fatal: log the pair
  // and terminate the process with exit code 3 (what dflow_router runs
  // with). Off, the mismatch only feeds dflow_replica_divergence_total and
  // the RouterStats counters — what the tests use.
  bool abort_on_divergence = false;
  // Start() fails unless every backend completed its Info handshake within
  // this window (connection attempts retry with backoff inside it).
  double connect_timeout_s = 10.0;
  // Reconnect backoff after a backend drop: initial delay, doubling per
  // failed attempt up to the cap.
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2000;
  // Identity reported in Info responses; empty means "router:<port>".
  std::string node_id;
  // Observability for the routing tier's own TraceRecorder. The router is
  // the entry point of a multi-node deployment, so this is where sampled
  // trace ids are minted: a sampled submit gets the v4 trace extension
  // patched in before forwarding, the backend adopts the id, and the
  // router appends its router.forward span to the relayed result — one
  // trace identity across nodes. All-default means tracing off.
  obs::TraceRecorderOptions trace;
  // Structured event journal for the routing tier's control-plane
  // transitions (backend death/reconnect, failover, divergence verdicts,
  // epoch refusals): ring size, optional JSONL sink (+ rotation budget),
  // stderr mirroring of warnings. Always on.
  obs::EventLogOptions events;
  // Health collector cadence + watermark rules (the STATS health
  // section). interval_s <= 0 disables the collector thread; the health
  // section is still answered (with an empty rate series) so fleet polls
  // never fail.
  obs::HealthOptions health;
};

// The multi-node routing tier: a standalone ingress process that speaks
// the wire protocol to clients on the front and fans every submit out to
// N downstream dflow_serve instances, one connection per backend.
//
// Routing is the same seed hash the FlowServer uses internally
// (ShardFor(seed, num_backends)), so placement is stateless and results
// stay byte-identical to a direct single-server run for any fleet size:
// each instance still executes against a quiescent deterministic harness,
// wherever it lands.
//
// Forwarding is O(1) per frame: the router never decodes message bodies.
// A submit's routing key (seed) and correlation id sit at fixed offsets in
// the payload, so the router peeks them, rewrites the correlation id to a
// router-issued ticket, and relays the frame wholesale; the response path
// patches the client's original id back in. Ticket state lives in one map
// (ticket -> session + original id + backend), and whoever erases an
// entry — the response relay or a backend-death sweep — owns answering
// it, so every admitted request is answered exactly once.
//
// Threads: the front door's event loop owns the client sockets; a second,
// router-owned event loop with one thread owns the backend sockets, so no
// socket call ever blocks either loop. A forward (or a STATS fan-out) is a
// Push into the backend conn's outbox; backend answers arrive on that
// conn's frame handler and are pushed onto the client conn's outbox. One
// dialer thread serves the whole fleet: it connects, runs the INFO
// identity handshake, hands the socket to the backend loop, and redials
// dropped backends with exponential backoff.
//
// Backpressure is end to end: a blocking submit that lands on a full
// downstream shard queue pauses the backend's reads, TCP fills the
// router's backend socket, the backend conn's outbox grows, and once that
// backlog passes a fixed cap the client conn routing to it stalls (kStall:
// its reads pause and the stalled frame is retried on loop ticks), so TCP
// pushes the stall on to the client. No queue in the chain is unbounded,
// and conns routing to other backends keep flowing.
//
// Failure semantics: when a backend connection drops, every unanswered
// in-flight ticket on it is transparently re-issued to a live replica of
// the same slot (the stored forward frame is replayed under the same
// ticket; deterministic, side-effect-free execution makes the re-run
// byte-identical, and at-most-one pending entry per ticket keeps the
// answer exactly-once), and new submits prefer the slot's lowest-index
// live replica. Only when a slot has NO live replica do its tickets and
// new submits fail fast with a typed BACKEND_UNAVAILABLE error, while the
// dialer reconnects with exponential backoff (re-running the Info
// identity handshake); seeds hashing to healthy slots are unaffected. The
// router never re-routes a seed outside its replica slot — that would
// silently break the determinism contract; within a slot every member
// serves the same bytes, which the sampled divergence cross-check (see
// RouterOptions) continuously audits.
//
// Shutdown (Stop, also run by the destructor) answers every admitted
// request before Goodbye: stop accepting, then gracefully close every
// front-door conn — the front loop waits for each conn's in-flight
// tickets to be answered (the backend loop is still live) and flushes the
// responses — and only then stop the dialer, send Goodbye to the
// backends, and stop the backend loop.
class Router : private FrontDoor::Handler {
 public:
  explicit Router(RouterOptions options);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Connects every backend (retrying within connect_timeout_s), runs the
  // identity handshake against each, verifies they all serve the same
  // strategy, then binds the front listener and starts accepting.
  // Returns false and fills *error on failure. Call at most once.
  bool Start(std::string* error);

  // Graceful shutdown as described above. Idempotent.
  void Stop();

  // The bound front port (meaningful after a successful Start).
  uint16_t port() const { return front_.port(); }

  int num_backends() const { return static_cast<int>(backends_.size()); }

  // Live counters: the front door in IngressStats shape, and the
  // per-backend RouterStats — the same objects a client reads via Info.
  runtime::IngressStats front_stats() const;
  RouterStats router_stats() const;
  ServerInfo BuildInfo() const override;

  // Prometheus-style text exposition of every registered metric family —
  // the metrics section of a STATS answer and what --metrics-dump prints.
  // Per-backend families carry a {backend="host:port"} label.
  std::string MetricsText() const { return metrics_.RenderText(); }
  const obs::TraceRecorder& recorder() const { return recorder_; }
  const obs::EventLog& journal() const { return journal_; }
  const obs::HealthCollector& health() const { return health_; }

 private:
  using Session = FrontDoor::Session;
  using Clock = std::chrono::steady_clock;

  struct Backend {
    BackendAddress address;
    int index = 0;
    // Replica placement (fixed at Start): slot = index / replicas,
    // replica = index % replicas.
    int slot = 0;
    int replica = 0;

    // The live connection on the backend loop; null while the backend is
    // down. Forward registers a ticket and pushes its frame under conn_mu,
    // and the conn's on_close nulls this under conn_mu before sweeping,
    // so every ticket registered on a conn is either answered through it
    // or swept after it died.
    mutable std::mutex conn_mu;
    std::shared_ptr<EventConn> conn;

    // Identity from the latest Info handshake, guarded by info_mu;
    // `refusal` says why the latest handshake was refused ("" if it was
    // not).
    mutable std::mutex info_mu;
    std::string node_id;
    int32_t shards = 0;
    uint8_t backend_kind = 0;
    uint64_t queue_capacity = 0;
    std::string refusal;

    // Dialer state, guarded by the router's dial_mu_: whether the backend
    // needs a (re)dial, when the next attempt is due, the current backoff,
    // and when the live connection came up.
    bool down = true;
    bool connected_before = false;
    Clock::time_point next_dial{};
    Clock::time_point up_since{};
    int backoff_ms = 0;

    std::atomic<int64_t> forwarded{0};
    std::atomic<int64_t> answered{0};
    std::atomic<int64_t> unavailable{0};
    std::atomic<int64_t> reconnects{0};
    // In-flight tickets moved OFF this backend to a sibling after a drop.
    std::atomic<int64_t> failovers{0};
  };

  struct Pending {
    std::shared_ptr<EventConn> conn;  // null on divergence-shadow copies
    uint64_t request_id = 0;  // client-chosen id, restored on the way back
    int backend_index = 0;    // which backend carries it (death sweep)
    // Forward timestamp: the wall-clock latency histogram and the
    // router.forward span measure from here.
    uint64_t start_ns = 0;
    std::shared_ptr<obs::RequestTrace> trace;  // null = untraced
    // The exact frame that was forwarded (ticket already patched in) —
    // what a backend-death sweep replays against a sibling replica. One
    // retained copy per in-flight request, bounded by the same end-to-end
    // backpressure that bounds in-flight requests themselves.
    std::shared_ptr<const std::vector<uint8_t>> frame;
    // Failover re-issues so far; capped so a flapping fleet cannot bounce
    // one ticket forever.
    int attempts = 0;
    // Nonzero links this pending to a divergence check (checks_ key).
    uint64_t check_id = 0;
    // True for the cross-check's shadow copy: its answer feeds the check
    // and is never relayed (no session, no outbox accounting).
    bool shadow = false;
  };

  // One in-flight replica-divergence cross-check: the same request sent to
  // two replicas, fingerprints compared when both answered. Guarded by
  // pending_mu_ (the checks live and die with their pending entries).
  struct DivergenceCheck {
    uint64_t seed = 0;
    bool primary_done = false;
    bool shadow_done = false;
    bool failed = false;  // a side answered an error: nothing to compare
    uint64_t primary_fingerprint = 0;
    uint64_t shadow_fingerprint = 0;
  };

  // One fleet STATS poll: a front-door STATS_REQUEST fanned out to every
  // backend, each copy under its own router-issued ticket. The backend
  // loop files answers by backend index as they arrive; the front-door
  // conn's DeferRetry continuation replies once none is outstanding or
  // the deadline passed. answers/outstanding are guarded by stats_mu_.
  struct StatsPoll {
    StatsRequest request;  // the client's id and section mask
    Clock::time_point deadline;
    std::vector<uint64_t> tickets;  // one per backend copy sent
    std::vector<std::optional<NodeStats>> answers;  // by backend index
    size_t outstanding = 0;
  };
  struct StatsProbe {
    std::shared_ptr<StatsPoll> poll;
    size_t backend_index = 0;
  };

  // FrontDoor::Handler. A submit whose slot's primary backend has more
  // than a fixed backlog of unsent bytes stalls its front-door conn
  // (kStall) until the backlog drains; otherwise forwarding finishes
  // inline, with a typed error when the whole slot is down. A STATS poll
  // also returns kStall, while it waits for backend answers.
  EventConn::FrameAction HandleSubmit(EventConn* conn,
                                      const std::shared_ptr<Session>& session,
                                      Frame& frame) override;
  // Unbundles a v7 BATCH_SUBMIT into per-item singleton submit frames fed
  // through the singleton route (items hash to different slots, so the
  // router is the one tier that cannot relay a batch wholesale). Item i
  // forwards under request_id_base + i; every ticket/failover/divergence
  // invariant is then the singleton path's by construction. A stall
  // resumes from the item that stalled.
  EventConn::FrameAction HandleBatchSubmit(
      EventConn* conn, const std::shared_ptr<Session>& session,
      BatchSubmitRequest request) override;
  // Fans a STATS_REQUEST out to every backend and parks the reply on the
  // conn (kStall) until every backend answered or the poll deadline
  // passed; the loop thread never waits.
  EventConn::FrameAction HandleStats(EventConn* conn,
                                     const StatsRequest& request) override;
  // The slot a seed routes to, and whether that slot's primary backend
  // has more unsent bytes queued than the backlog cap.
  int SlotFor(uint64_t seed) const;
  bool Backlogged(int slot) const;
  // Forwards one submit frame (long enough to peek) to its slot, or
  // answers BACKEND_UNAVAILABLE.
  void RouteSubmit(EventConn* conn, const std::shared_ptr<Session>& session,
                   Frame& frame);
  // One forward attempt against one backend: registers *pending under
  // `ticket` (consuming it) and pushes its frame. False — with the pending
  // handed back untouched — when the backend is down.
  bool Forward(Backend* backend, uint64_t ticket, Pending* pending);
  // Tries every replica of `slot` in index order (lowest live index is the
  // primary). Returns the backend that took it, or -1.
  int ForwardToSlot(int slot, uint64_t ticket, Pending* pending);
  // Launches the sampled cross-check: sends a shadow copy of the frame
  // just forwarded to a live replica of `slot` other than `served`.
  void LaunchShadow(int slot, int served, uint64_t shadow_ticket,
                    uint64_t request_id, uint64_t start_ns,
                    std::vector<uint8_t> shadow_frame);
  // Feeds one side's answer into its divergence check; compares and
  // settles the check when both sides are in.
  void ResolveDivergence(uint64_t check_id, bool is_primary, bool ok,
                         uint64_t fingerprint);
  // The dialer thread: (re)connects every backend that is down once its
  // backoff has passed, until Stop.
  void DialLoop();
  // One connect + Info handshake + hand-off to the backend loop. False
  // when the backend could not be attached.
  bool Dial(Backend* backend);
  // Validates and records the handshake identity; false refuses a backend
  // that would break fleet homogeneity.
  bool AcceptIdentity(Backend* backend, const ServerInfo& info);
  // Backend conn handlers, on the backend loop thread.
  void HandleBackendFrame(Backend* backend, Frame& frame);
  void OnBackendClosed(Backend* backend, EventConn* conn);
  // Sweeps every pending ticket carried by the given backend: client
  // tickets are re-issued to a live sibling replica (transparent failover)
  // or, when the whole slot is down, answered with a typed
  // BACKEND_UNAVAILABLE; divergence shadows are abandoned.
  void FailPendingOn(int backend_index);

  // The reply once the poll settled: the router's own entry plus one per
  // backend, synthesized for a backend that did not answer in time.
  void AnswerStats(EventConn* conn, StatsPoll* poll);
  // Pushes `frame` onto the backend's live conn; false when it is down.
  bool SendToBackend(Backend* backend, std::vector<uint8_t> frame);
  static bool Connected(const Backend& backend);
  // Identity reported in Info and STATS: options_.node_id or
  // "router:<port>".
  std::string NodeId() const;
  obs::HealthSources MakeHealthSources();
  // Replica slots with no connected backend (the critical-status topology
  // input).
  int64_t CountSlotsDown() const;

  const RouterOptions options_;
  obs::TraceRecorder recorder_;
  obs::EventLog journal_;
  obs::MetricsRegistry metrics_;
  // Declared after journal_ and the counters it differences; the collector
  // thread runs Start() -> Stop().
  obs::HealthCollector health_;
  // Every STATS_REQUEST a backend still owes an answer, by ticket. A
  // poll erases its tickets when it replies, so a late answer finds no
  // probe and is dropped instead of filling a later poll.
  std::mutex stats_mu_;
  std::unordered_map<uint64_t, StatsProbe> stats_probes_;
  // Registry-owned wall-clock latency histogram, observed on the relay
  // path (submit forwarded -> result relayed): the cross-node counterpart
  // of the ingress's dflow_wall_latency_us.
  obs::Histogram* wall_latency_us_ = nullptr;
  // Stopped by Stop() before the backend loop, because graceful closes
  // wait for in-flight tickets the backends still owe answers to.
  FrontDoor front_;
  // Owns every backend socket, on one thread.
  EventLoop backend_loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  // serializes Stop()
  bool stopped_ = false;

  std::vector<std::unique_ptr<Backend>> backends_;
  // Fixed at Start(): normalized replica group width and the slot count
  // the seed hash routes over (backends_.size() / replicas_).
  int replicas_ = 1;
  int num_slots_ = 0;
  // The fleet identity (strategy, AUTO advisor fingerprint, v5 fleet
  // epoch), learned from the first handshake and enforced on every later
  // one (see AcceptIdentity). identity_set_ discriminates "not yet
  // learned" from the valid epoch 0. Guarded by strategy_mu_: the dialer
  // writes it while Info readers read it.
  mutable std::mutex strategy_mu_;
  bool identity_set_ = false;
  std::string strategy_;
  uint64_t advisor_fingerprint_ = 0;  // fleet-wide; 0 unless AUTO
  uint64_t fleet_epoch_ = 0;

  // The dialer: woken by a backend going down and by Stop.
  std::mutex dial_mu_;
  std::condition_variable dial_cv_;
  std::thread dialer_;

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Pending> pending_;
  // In-flight divergence checks, keyed by the shadow copy's ticket (also
  // stamped into both participating Pending entries as check_id).
  std::unordered_map<uint64_t, DivergenceCheck> checks_;  // pending_mu_
  std::atomic<uint64_t> next_ticket_{1};

  // Replicated-fleet counters (RouterStats + the obs registry).
  std::atomic<int64_t> failovers_total_{0};
  std::atomic<int64_t> divergence_checks_{0};
  std::atomic<int64_t> divergence_mismatches_{0};
  std::atomic<int64_t> divergence_incomplete_{0};

  // Front-door request aggregates (IngressStats shape; `accepted` means
  // forwarded to a backend — the router's notion of admission). The
  // connection, byte and error counters live in front_.
  std::atomic<int64_t> requests_routed_{0};
  std::atomic<int64_t> relayed_results_{0};
  std::atomic<int64_t> relayed_busy_{0};
  std::atomic<int64_t> relayed_shutdown_{0};
  std::atomic<int64_t> unavailable_total_{0};
};

}  // namespace dflow::net

#endif  // DFLOW_NET_ROUTER_H_
