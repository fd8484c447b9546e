#ifndef DFLOW_NET_INGRESS_SERVER_H_
#define DFLOW_NET_INGRESS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/front_door.h"
#include "net/wire_protocol.h"
#include "obs/event_log.h"
#include "obs/jsonl_sink.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/flow_server.h"

namespace dflow::net {

struct IngressOptions : FrontDoorOptions {
  // Identity this server reports in its Info responses (ServerInfo::
  // node_id); a router records it per backend at handshake time. Empty
  // means "serve:<bound port>".
  std::string node_id;
  // Deployment generation stamped into Info responses (ServerInfo::
  // fleet_epoch, the v5 handshake field). A replicated router refuses a
  // fleet whose members disagree on it — bump it together across a
  // replica set whenever a deploy could change served bytes, so a
  // half-upgraded set fails at handshake time instead of diverging.
  uint64_t fleet_epoch = 0;
  // Observability: sampling, JSONL sink, and slow-request-log threshold
  // for the ingress's TraceRecorder. All-default (sample_period 0, no
  // sink, slow_ms 0) means tracing is off — untraced requests pay one
  // pointer test per stage and nothing else. Propagated trace contexts
  // (a submit carrying the v4 trace extension) are honored regardless.
  obs::TraceRecorderOptions trace;
  // Structured event journal: ring size, optional JSONL sink (+ rotation
  // budget), stderr mirroring of warnings. Always on — events are rare
  // control-plane transitions, never per-request.
  obs::EventLogOptions events;
  // Health collector cadence + watermark rules (the STATS health
  // section). interval_s <= 0 disables the collector thread; the health
  // section is still answered (with an empty rate series) so fleet polls
  // never fail.
  obs::HealthOptions health;
  // Plan profiling: optional JSONL sink for merged profile snapshots
  // (one line at every drain), with the same byte-budget rotation rule as
  // the trace/journal sinks. Empty = no sink. Sampling itself lives on
  // FlowServerOptions::profile_sample_period.
  std::string profile_jsonl_path;
  uint64_t profile_jsonl_max_bytes = 0;
};

// The network front door of the flow-serving runtime: a net::FrontDoor (a
// TCP listener whose acceptor hands each connection to a fixed pool of
// epoll threads) speaking the length-prefixed wire protocol, with submit
// frames mapped onto FlowServer admission. A
// connection costs one fd and a few hundred bytes of state — not two
// threads — which is what lets one server hold 10k+ concurrent clients.
//
// Flow of one submit: the owning loop thread decodes the frame, registers
// a pending entry under a fresh ticket (FlowRequest::ticket), and admits
// the request. Completions arrive on shard worker threads via the
// FlowServer result callback, which looks the ticket up, builds the
// response (summary + fingerprint, plus the full terminal snapshot when
// requested), and enqueues it on the owning conn's outbox; the outbox wake
// doorbell schedules a drain on the loop thread that owns the socket.
// Responses therefore interleave across a connection's in-flight requests
// in *completion* order — the client matches them by request_id. A
// BATCH_SUBMIT frame (wire v7) admits its items in order under a
// contiguous ticket run and answers with ordinary per-item SubmitResult
// frames, byte-identical to the same requests submitted one frame each.
//
// Backpressure contract: a blocking submit against a full shard queue
// parks as a deferred retry on the loop — the conn stops reading, its
// kernel receive buffer fills, and TCP flow control pushes the stall back
// to the client (no loop thread blocks; other conns on the same thread
// keep being served). A non-blocking submit never stalls: queue-full comes
// back as a REJECTED_BUSY error frame (and a post-drain submit as
// SHUTTING_DOWN), making shedding explicit instead of silent. Outboxes
// need no bound of their own: a response exists only for an admitted
// request, so the bounded shard queues already cap what any connection can
// have in flight.
//
// Shutdown (Stop, also run by the destructor): FrontDoor::Stop stops
// accepting and gracefully closes every conn — buffered frames finish
// dispatching, in-flight requests complete into the outbox, the backlog
// flushes, then the socket closes — and only then FlowServer::Drain(). No
// accepted request is dropped without an answer.
class IngressServer : private FrontDoor::Handler {
 public:
  IngressServer(const core::Schema* schema,
                runtime::FlowServerOptions server_options,
                IngressOptions ingress_options);
  ~IngressServer();
  IngressServer(const IngressServer&) = delete;
  IngressServer& operator=(const IngressServer&) = delete;

  // Binds, listens, starts the event loop and the acceptor. Returns false
  // and fills *error on failure (e.g. the port is taken). Call at most
  // once.
  bool Start(std::string* error);

  // Graceful shutdown as described above. Idempotent.
  void Stop();

  // The bound port (meaningful after a successful Start).
  uint16_t port() const { return front_.port(); }

  // The backing FlowServer's report with the ingress counters filled in.
  runtime::FlowServerReport Report() const;
  runtime::IngressStats ingress_stats() const;

  // Prometheus-style text exposition of every registered metric family —
  // the metrics section of a STATS answer and what --metrics-dump prints.
  std::string MetricsText() const { return metrics_.RenderText(); }
  const obs::TraceRecorder& recorder() const { return recorder_; }
  const obs::EventLog& journal() const { return journal_; }
  const obs::HealthCollector& health() const { return health_; }

  const runtime::FlowServer& flow_server() const { return server_; }

 private:
  using Session = FrontDoor::Session;

  struct Pending {
    std::shared_ptr<EventConn> conn;
    uint64_t request_id = 0;
    bool want_snapshot = false;
    // Admission timestamp (the trace's begin when traced): the wall-clock
    // latency histogram and TraceRecorder::Finish measure from here.
    uint64_t start_ns = 0;
    std::shared_ptr<obs::RequestTrace> trace;  // null = untraced
  };

  // One request's admission state, registered (pending entry + in-flight
  // Begin) before the first offer so a deferred retry can re-offer it
  // without re-registering. Copyable: each offer rebuilds the FlowRequest
  // from these fields (a refused offer consumes its argument).
  struct Admission {
    std::shared_ptr<EventConn> conn;
    std::shared_ptr<Session> session;
    uint64_t ticket = 0;
    uint64_t request_id = 0;
    uint64_t seed = 0;
    core::SourceBinding sources;
    std::shared_ptr<obs::RequestTrace> trace;
    uint64_t start_ns = 0;
  };

  // A BATCH_SUBMIT mid-admission: the decoded frame plus how far the item
  // cursor got, kept alive by the deferred-retry closure across stalls.
  struct BatchState {
    std::shared_ptr<EventConn> conn;
    std::shared_ptr<Session> session;
    BatchSubmitRequest request;
    size_t next = 0;                  // next item to register
    std::optional<Admission> parked;  // registered, not yet admitted
  };

  // FrontDoor::Handler: a SUBMIT is decoded and admitted, a STATS_REQUEST
  // answered inline.
  EventConn::FrameAction HandleSubmit(EventConn* conn,
                                      const std::shared_ptr<Session>& session,
                                      Frame& frame) override;
  EventConn::FrameAction HandleBatchSubmit(
      EventConn* conn, const std::shared_ptr<Session>& session,
      BatchSubmitRequest request) override;
  EventConn::FrameAction HandleStats(EventConn* conn,
                                     const StatsRequest& request) override;
  ServerInfo BuildInfo() const override;
  // Whether a strategy override (empty = none) names what this server
  // runs.
  bool StrategyAllowed(const std::string& strategy) const;
  // Validates a strategy override (empty = none). On mismatch, counts the
  // protocol error and answers BAD_STRATEGY; returns false.
  bool CheckStrategy(EventConn* conn, uint64_t request_id,
                     const std::string& strategy);
  // Registers one request (trace, ticket, pending entry, in-flight Begin)
  // so its answer — result or refusal — is owed from this moment on.
  Admission PrepareAdmission(const std::shared_ptr<EventConn>& conn,
                             const std::shared_ptr<Session>& session,
                             uint64_t request_id, bool want_snapshot,
                             uint64_t seed, core::SourceBinding sources,
                             bool force_trace, uint64_t trace_id);
  // One non-counting admission offer (see FlowServer::OfferSubmit).
  runtime::TryPushResult Offer(const Admission& admission);
  // Books the offer's outcome: accepted counters on kOk, refusal unwind +
  // typed error frame otherwise. kFull only reaches here non-blocking.
  void Resolve(const Admission& admission, runtime::TryPushResult result);
  // Drives a batch forward: registers and offers items in order. Returns
  // true when every item is resolved; false on a blocking stall (the
  // parked item stays registered; call again to continue).
  bool AdvanceBatch(const std::shared_ptr<BatchState>& state);
  // Result callback, invoked on shard worker threads.
  void OnResult(int shard_index, const runtime::FlowRequest& request,
                const core::InstanceResult& result,
                const core::Strategy& executed);
  // Identity reported in Info and STATS: options_.node_id or "serve:<port>".
  std::string NodeId() const;
  // This node's STATS entry with the requested sections: the metrics
  // exposition, the health section, and the merged plan profile with its
  // annotated plan view (EXPLAIN-style dot with measured work/selectivity).
  NodeStats BuildStats(uint8_t sections) const;
  // One merged-profile JSONL line into the profile sink + a
  // profile_snapshot journal event; no-op when the sink is closed or
  // profiling is off.
  void WriteProfileSnapshot();
  obs::HealthSources MakeHealthSources();

  const IngressOptions options_;
  runtime::FlowServer server_;
  obs::TraceRecorder recorder_;
  obs::EventLog journal_;
  obs::MetricsRegistry metrics_;
  // Declared after journal_ and the registry sources it differences; the
  // collector thread runs Start() -> Stop().
  obs::HealthCollector health_;
  // Profile snapshot sink (size-capped JSONL), written at drain.
  obs::JsonlSink profile_sink_;
  // Registry-owned latency histograms, observed on the completion path:
  // real wall-clock microseconds (submit decoded -> response built)
  // alongside the paper's work-unit latency, so the two views stay
  // side-by-side in one scrape.
  obs::Histogram* wall_latency_us_ = nullptr;
  obs::Histogram* latency_units_ = nullptr;
  // Declared after server_ so it stops (destructor) before the shards do:
  // graceful closes may be waiting on shard completions.
  FrontDoor front_;
  std::mutex stop_mu_;  // serializes Stop()
  bool stopped_ = false;

  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Pending> pending_;
  std::atomic<uint64_t> next_ticket_{1};

  // Admission counters (see runtime::IngressStats); the connection, byte
  // and error counters live in front_.
  std::atomic<int64_t> requests_accepted_{0};
  std::atomic<int64_t> requests_rejected_busy_{0};
  std::atomic<int64_t> requests_rejected_shutdown_{0};
};

}  // namespace dflow::net

#endif  // DFLOW_NET_INGRESS_SERVER_H_
