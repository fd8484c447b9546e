#include "net/ingress_server.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "core/dot_export.h"
#include "core/strategy.h"
#include "net/stats_wire.h"

namespace dflow::net {
namespace {

// One merged-profile snapshot as a JSONL line (the --profile-jsonl sink
// format). Zero rows are skipped exactly as on the wire: a row that never
// fired carries no signal.
std::string ProfileJson(const std::string& node_id,
                        const obs::ProfileSnapshot& p) {
  std::ostringstream os;
  os << "{\"kind\":\"profile_snapshot\",\"node\":\""
     << obs::JsonEscape(node_id) << "\""
     << ",\"sample_period\":" << p.sample_period
     << ",\"profiled_requests\":" << p.profiled_requests
     << ",\"total_requests\":" << p.total_requests << ",\"attrs\":[";
  bool first = true;
  for (size_t i = 0; i < p.attrs.size(); ++i) {
    const obs::AttrProfile& a = p.attrs[i];
    if (a.launches == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"attr\":" << i << ",\"name\":\""
       << obs::JsonEscape(i < p.attr_names.size() ? p.attr_names[i] : "")
       << "\",\"launches\":" << a.launches
       << ",\"work_units\":" << a.work_units
       << ",\"speculative\":" << a.speculative_launches
       << ",\"wasted_work\":" << a.wasted_work << "}";
  }
  os << "],\"conds\":[";
  first = true;
  for (size_t i = 0; i < p.conds.size(); ++i) {
    const obs::CondProfile& c = p.conds[i];
    if (c.evals == 0 && c.true_outcomes == 0 && c.false_outcomes == 0) {
      continue;
    }
    if (!first) os << ",";
    first = false;
    os << "{\"attr\":" << i << ",\"evals\":" << c.evals
       << ",\"true\":" << c.true_outcomes
       << ",\"false\":" << c.false_outcomes
       << ",\"unknown\":" << c.unknown_outcomes
       << ",\"eager_disables\":" << c.eager_disables << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace

IngressServer::IngressServer(const core::Schema* schema,
                             runtime::FlowServerOptions server_options,
                             IngressOptions ingress_options)
    : options_(ingress_options),
      server_(schema, server_options),
      recorder_(ingress_options.trace,
                ingress_options.node_id.empty() ? "serve"
                                                : ingress_options.node_id),
      journal_(ingress_options.events, ingress_options.node_id.empty()
                                           ? "serve"
                                           : ingress_options.node_id),
      health_(ingress_options.health, MakeHealthSources(), &journal_),
      front_(options_, "ingress", this, &journal_, &metrics_) {
  // Installed before the listener exists, so it observes every request the
  // ingress will ever admit.
  server_.SetResultCallback(
      [this](int shard_index, const runtime::FlowRequest& request,
             const core::InstanceResult& result,
             const core::Strategy& executed) {
        OnResult(shard_index, request, result, executed);
      });
  // Counters and gauges are callbacks over state the server maintains
  // anyway, so registering them costs the request path nothing.
  const auto counter = [this](const char* name, std::atomic<int64_t>* src) {
    metrics_.AddCounter(name, {}, [src] { return src->load(); });
  };
  counter("dflow_requests_accepted_total", &requests_accepted_);
  counter("dflow_requests_rejected_busy_total", &requests_rejected_busy_);
  counter("dflow_requests_rejected_shutdown_total",
          &requests_rejected_shutdown_);
  metrics_.AddCounter("dflow_completed_total", {},
                      [this] { return server_.total_processed(); });
  metrics_.AddCounter("dflow_cache_hits_total", {},
                      [this] { return server_.cache_totals().hits; });
  metrics_.AddCounter("dflow_cache_misses_total", {},
                      [this] { return server_.cache_totals().misses; });
  metrics_.AddCounter("dflow_traces_started_total", {},
                      [this] { return recorder_.started(); });
  metrics_.AddCounter("dflow_traces_finished_total", {},
                      [this] { return recorder_.finished(); });
  for (int i = 0; i < server_.num_shards(); ++i) {
    metrics_.AddGauge(
        "dflow_queue_depth", {{"shard", std::to_string(i)}}, [this, i] {
          return static_cast<double>(server_.queue_depths()[static_cast<
              size_t>(i)]);
        });
  }
  wall_latency_us_ = metrics_.AddHistogram(
      "dflow_wall_latency_us", {}, obs::DefaultWallLatencyBucketsUs());
  latency_units_ = metrics_.AddHistogram("dflow_latency_units", {},
                                         obs::DefaultWorkUnitBuckets());
  journal_.RegisterCounters(&metrics_);
  health_.RegisterMetrics(&metrics_);
  // Profiling families: measured per-attribute work and per-condition
  // selectivity, labeled by attribute name. Registered only when the
  // profilers exist — a profiling-off server scrapes no empty families.
  if (server_.profiling_enabled()) {
    const core::Schema& schema = server_.schema();
    for (AttributeId a = 0; a < schema.num_attributes(); ++a) {
      metrics_.AddCounter("dflow_attr_work_units_total",
                          {{"attr", schema.attribute(a).name}},
                          [this, a] { return server_.ProfiledAttrWork(a); });
      if (!schema.is_source(a) &&
          !schema.enabling_condition(a).IsLiteralTrue()) {
        metrics_.AddGauge("dflow_cond_selectivity",
                          {{"attr", schema.attribute(a).name}}, [this, a] {
                            return server_.ProfiledCondSelectivity(a);
                          });
      }
    }
  }
  if (!options_.profile_jsonl_path.empty()) {
    profile_sink_.Open(options_.profile_jsonl_path,
                       options_.profile_jsonl_max_bytes);
  }
}

obs::HealthSources IngressServer::MakeHealthSources() {
  // Closures over state the server maintains anyway, resolved at sample
  // time (wall_latency_us_ is assigned later in the constructor; the
  // closure reads it lazily).
  obs::HealthSources sources;
  sources.requests_total = [this] { return server_.total_processed(); };
  sources.cache_hits_total = [this] { return server_.cache_totals().hits; };
  sources.cache_misses_total = [this] {
    return server_.cache_totals().misses;
  };
  sources.advisor_explores_total = [this] {
    return server_.advisor() != nullptr
               ? server_.Report().stats.advisor_explores
               : 0;
  };
  sources.wall_latency = [this] {
    return wall_latency_us_ != nullptr ? wall_latency_us_->Snap()
                                       : obs::Histogram::Snapshot{};
  };
  sources.queue_depths = [this] {
    const std::vector<size_t> depths = server_.queue_depths();
    return std::vector<uint64_t>(depths.begin(), depths.end());
  };
  sources.queue_capacity = server_.options().queue_capacity_per_shard;
  return sources;
}

IngressServer::~IngressServer() { Stop(); }

bool IngressServer::Start(std::string* error) {
  if (!front_.Start(error)) return false;
  health_.Start();
  return true;
}

void IngressServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  // 1. Stop accepting, then gracefully close every conn: buffered frames
  // may still admit requests (the shards are still running, so stalled
  // admissions unwedge), and every in-flight answer is flushed.
  front_.Stop();
  // 2. Only now quiesce the execution layer: every accepted request was
  // answered, so the drain has nothing the wire still owes a client.
  server_.Drain();
  // Profile epilogue: the drained server's merged profile is final, so this
  // one snapshot covers everything the process ever served.
  WriteProfileSnapshot();
  // 3. Health plane teardown: journal the drain, stop the collector, and
  // flush both JSONL sinks so a SIGTERM-driven exit loses no tail.
  journal_.Emit(obs::EventKind::kDrain, obs::Severity::kInfo,
                "completed=" + std::to_string(server_.total_processed()));
  health_.Stop();
  journal_.Flush();
  recorder_.Flush();
  profile_sink_.Flush();
}

runtime::IngressStats IngressServer::ingress_stats() const {
  runtime::IngressStats stats = front_.Stats();
  stats.requests_accepted = requests_accepted_.load();
  stats.requests_rejected_busy = requests_rejected_busy_.load();
  stats.requests_rejected_shutdown = requests_rejected_shutdown_.load();
  return stats;
}

runtime::FlowServerReport IngressServer::Report() const {
  runtime::FlowServerReport report = server_.Report();
  report.ingress = ingress_stats();
  return report;
}

EventConn::FrameAction IngressServer::HandleStats(
    EventConn* conn, const StatsRequest& request) {
  StatsInfo stats;
  stats.request_id = request.request_id;
  stats.sections = request.sections;
  stats.self = BuildStats(request.sections);
  std::vector<uint8_t> out;
  EncodeStats(stats, &out);
  conn->outbox().Push(std::move(out));
  return EventConn::FrameAction::kContinue;
}

bool IngressServer::StrategyAllowed(const std::string& strategy) const {
  if (strategy.empty()) return true;
  const std::optional<core::Strategy> parsed = core::Strategy::Parse(strategy);
  // An override may only name what this server already runs: its fixed
  // strategy, or the AUTO sentinel on an advisor-driven server (the
  // advisor still picks the concrete strategy — per-request pinning on
  // an AUTO server is a ROADMAP item, as are multi-strategy shard
  // pools).
  return parsed.has_value() &&
         parsed->ToString() == server_.strategy().ToString();
}

bool IngressServer::CheckStrategy(EventConn* conn, uint64_t request_id,
                                  const std::string& strategy) {
  if (StrategyAllowed(strategy)) return true;
  front_.CountProtocolError();
  SendError(conn, request_id, WireError::kBadStrategy,
            "server runs " + server_.strategy().ToString());
  return false;
}

IngressServer::Admission IngressServer::PrepareAdmission(
    const std::shared_ptr<EventConn>& conn,
    const std::shared_ptr<Session>& session, uint64_t request_id,
    bool want_snapshot, uint64_t seed, core::SourceBinding sources,
    bool force_trace, uint64_t trace_id) {
  // Trace when the client (or an upstream router) asked for one via the
  // wire extension, or when this recorder's own sampling picks the seed.
  // The id travels: a propagated nonzero id is adopted verbatim.
  std::shared_ptr<obs::RequestTrace> trace;
  if (force_trace || recorder_.ShouldTrace(seed)) {
    trace = recorder_.Begin(seed, trace_id);
  }
  const uint64_t start_ns =
      trace != nullptr ? trace->begin_ns() : obs::MonotonicNs();
  const uint64_t ticket =
      next_ticket_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.emplace(ticket, Pending{conn, request_id, want_snapshot,
                                     start_ns, trace});
  }
  conn->outbox().BeginRequest();
  // Stamped before the first admission offer so both are visible to the
  // shard worker no matter how quickly the pop lands — the worker may
  // snapshot the trace for the reply while this loop thread is still
  // returning. ingress.queue therefore covers decode -> admission attempt;
  // a blocking submit stalled on a full queue shows the wait in
  // shard.queue_wait, which measures from this same instant.
  if (trace != nullptr) {
    const uint64_t enqueue_ns = obs::MonotonicNs();
    trace->AddSpan(obs::SpanKind::kIngressQueue, start_ns, enqueue_ns);
    trace->SetEnqueue(enqueue_ns);
  }
  return Admission{conn,  session, ticket, request_id,
                   seed,  std::move(sources), trace,  start_ns};
}

runtime::TryPushResult IngressServer::Offer(const Admission& admission) {
  runtime::FlowRequest flow_request{admission.sources, admission.seed,
                                    admission.ticket, admission.trace};
  return server_.OfferSubmit(std::move(flow_request));
}

void IngressServer::Resolve(const Admission& admission,
                            runtime::TryPushResult result) {
  if (result == runtime::TryPushResult::kOk) {
    admission.session->accepted.fetch_add(1, std::memory_order_relaxed);
    requests_accepted_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Refused: unwind the pending entry and answer with the typed reason.
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.erase(admission.ticket);
  }
  admission.conn->outbox().FinishRequest();
  // A refused traced request still finishes its trace (with only the
  // admission attempt in it): refusals are exactly what a latency
  // investigation wants to see.
  if (admission.trace != nullptr) {
    recorder_.Finish(admission.trace,
                     obs::MonotonicNs() - admission.start_ns);
  }
  if (result == runtime::TryPushResult::kFull) {
    requests_rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    // Parity with the counted TrySubmitEx path this refusal used to take.
    SendError(admission.conn.get(), admission.request_id,
              WireError::kRejectedBusy, "shard queue full");
  } else {
    requests_rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    SendError(admission.conn.get(), admission.request_id,
              WireError::kShuttingDown, "server draining");
  }
}

EventConn::FrameAction IngressServer::HandleSubmit(
    EventConn* conn, const std::shared_ptr<Session>& session, Frame& frame) {
  SubmitRequest request;
  if (!DecodeSubmit(frame.payload, &request)) {
    // The payload was bad but framing held: report and keep serving.
    front_.CountDecodeError();
    SendError(conn, PeekRequestId(frame.payload), WireError::kMalformedFrame,
              "undecodable submit payload");
    return EventConn::FrameAction::kContinue;
  }
  if (!CheckStrategy(conn, request.request_id, request.strategy)) {
    return EventConn::FrameAction::kContinue;
  }
  Admission admission = PrepareAdmission(
      conn->shared_from_this(), session, request.request_id,
      request.want_snapshot, request.seed, std::move(request.sources),
      request.has_trace, request.trace_id);
  if (!request.blocking) {
    // Non-blocking refusals are shed load and count as rejections
    // server-side, exactly like the old TrySubmitEx path.
    runtime::FlowRequest flow_request{admission.sources, admission.seed,
                                      admission.ticket, admission.trace};
    Resolve(admission, server_.TrySubmitEx(std::move(flow_request)));
    return EventConn::FrameAction::kContinue;
  }
  const runtime::TryPushResult result = Offer(admission);
  if (result != runtime::TryPushResult::kFull) {
    Resolve(admission, result);
    return EventConn::FrameAction::kContinue;
  }
  // Blocking submit against a full queue: park the admission as a deferred
  // retry. The loop pauses reads (kStall), so TCP pushes the stall back to
  // the client while other conns on this thread keep being served.
  conn->DeferRetry([this, admission = std::move(admission)] {
    const runtime::TryPushResult retry = Offer(admission);
    if (retry == runtime::TryPushResult::kFull) return false;
    Resolve(admission, retry);
    return true;
  });
  return EventConn::FrameAction::kStall;
}

EventConn::FrameAction IngressServer::HandleBatchSubmit(
    EventConn* conn, const std::shared_ptr<Session>& session,
    BatchSubmitRequest request) {
  if (!StrategyAllowed(request.strategy)) {
    // A refused batch still owes exactly one completion per item: answer
    // ids base..base+count-1 individually, exactly as `count` singleton
    // submits carrying the same override would have (count BAD_STRATEGY
    // errors), so the client's TicketRange settles instead of a drain
    // waiting forever on completions that never come.
    for (size_t i = 0; i < request.items.size(); ++i) {
      front_.CountProtocolError();
      SendError(conn, request.request_id_base + i, WireError::kBadStrategy,
                "server runs " + server_.strategy().ToString());
    }
    return EventConn::FrameAction::kContinue;
  }
  auto state = std::make_shared<BatchState>();
  state->conn = conn->shared_from_this();
  state->session = session;
  state->request = std::move(request);
  if (AdvanceBatch(state)) return EventConn::FrameAction::kContinue;
  conn->DeferRetry([this, state] { return AdvanceBatch(state); });
  return EventConn::FrameAction::kStall;
}

bool IngressServer::AdvanceBatch(const std::shared_ptr<BatchState>& state) {
  while (true) {
    if (!state->parked.has_value()) {
      if (state->next >= state->request.items.size()) return true;
      BatchItem& item = state->request.items[state->next];
      // Item i answers under request_id_base + i — the contiguous ticket
      // range the client was promised. Per-item admission, refusals and
      // responses are then exactly the singleton path's, which is what
      // makes a batch byte-identical to its unbatched equivalent.
      const uint64_t request_id =
          state->request.request_id_base + state->next;
      ++state->next;
      state->parked = PrepareAdmission(
          state->conn, state->session, request_id,
          state->request.want_snapshot, item.seed, std::move(item.sources),
          /*force_trace=*/false, /*trace_id=*/0);
    }
    if (state->request.blocking) {
      const runtime::TryPushResult result = Offer(*state->parked);
      if (result == runtime::TryPushResult::kFull) return false;  // stall
      Resolve(*state->parked, result);
    } else {
      runtime::FlowRequest flow_request{
          state->parked->sources, state->parked->seed, state->parked->ticket,
          state->parked->trace};
      Resolve(*state->parked, server_.TrySubmitEx(std::move(flow_request)));
    }
    state->parked.reset();
  }
}

void IngressServer::OnResult(int shard_index,
                             const runtime::FlowRequest& request,
                             const core::InstanceResult& result,
                             const core::Strategy& executed) {
  if (request.ticket == 0) return;  // not one of ours
  const uint64_t completion_ns = obs::MonotonicNs();
  Pending pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    const auto it = pending_.find(request.ticket);
    if (it == pending_.end()) return;
    pending = std::move(it->second);
    pending_.erase(it);
  }
  // Real wall-clock latency (submit decoded -> completion) next to the
  // paper's work-unit latency, for every request — traced or not.
  wall_latency_us_->Observe(
      static_cast<double>(completion_ns - pending.start_ns) / 1e3);
  latency_units_->Observe(result.metrics.ResponseTime());
  SubmitResult reply;
  reply.request_id = pending.request_id;
  reply.shard = shard_index;
  reply.work = result.metrics.work;
  reply.wasted_work = result.metrics.wasted_work;
  reply.response_time = result.metrics.ResponseTime();
  reply.queries_launched = result.metrics.queries_launched;
  reply.speculative_launches = result.metrics.speculative_launches;
  reply.fingerprint = FingerprintResult(result);
  reply.strategy = executed.ToString();
  if (pending.want_snapshot) {
    reply.has_snapshot = true;
    const int n = result.snapshot.schema().num_attributes();
    reply.snapshot.reserve(static_cast<size_t>(n));
    for (int a = 0; a < n; ++a) {
      const auto attr = static_cast<AttributeId>(a);
      reply.snapshot.push_back(SnapshotEntry{
          attr, result.snapshot.state(attr), result.snapshot.value(attr)});
    }
  }
  if (pending.trace != nullptr) {
    // outbox.write covers the response assembly above; it cannot extend
    // into the encode below because the span must land inside the very
    // trailer that encode serializes.
    pending.trace->AddSpan(obs::SpanKind::kOutboxWrite, completion_ns,
                           obs::MonotonicNs());
    const obs::RequestTrace::View view = pending.trace->Snapshot();
    reply.trace_id = pending.trace->trace_id();
    reply.spans.reserve(view.spans.size());
    for (const obs::Span& span : view.spans) {
      reply.spans.push_back(WireSpan{static_cast<uint8_t>(span.kind),
                                     span.start_ns, span.duration_ns});
    }
  }
  std::vector<uint8_t> out;
  EncodeSubmitResult(reply, &out);
  // Push before Finish: once the in-flight count hits zero during a
  // graceful close, every answer is already in the outbox.
  pending.conn->outbox().Push(std::move(out));
  pending.conn->outbox().FinishRequest();
  if (pending.trace != nullptr) {
    recorder_.Finish(pending.trace,
                     obs::MonotonicNs() - pending.start_ns);
  }
}

std::string IngressServer::NodeId() const {
  return options_.node_id.empty() ? "serve:" + std::to_string(front_.port())
                                  : options_.node_id;
}

ServerInfo IngressServer::BuildInfo() const {
  const runtime::FlowServerReport report = server_.Report();
  ServerInfo info;
  info.num_shards = report.num_shards;
  info.strategy = server_.strategy().ToString();
  info.backend = static_cast<uint8_t>(server_.options().backend);
  info.queue_capacity_per_shard = server_.options().queue_capacity_per_shard;
  info.completed = report.stats.completed;
  info.rejected = report.stats.rejected;
  info.cache_hits = report.cache.hits;
  info.cache_misses = report.cache.misses;
  info.node_id = NodeId();
  info.fleet_epoch = options_.fleet_epoch;
  info.ingress = ingress_stats();
  if (server_.advisor() != nullptr) {
    info.advisor.enabled = 1;
    info.advisor.fingerprint = server_.advisor()->Fingerprint();
    info.advisor.selections = report.stats.advisor_selections;
    info.advisor.explores = report.stats.advisor_explores;
    info.advisor.by_strategy.reserve(report.stats.strategy_selections.size());
    for (const auto& [strategy, count] : report.stats.strategy_selections) {
      info.advisor.by_strategy.push_back({strategy, count});
    }
  }
  return info;
}

NodeStats IngressServer::BuildStats(uint8_t sections) const {
  NodeStats node;
  node.node_id = NodeId();
  if (sections & kStatsMetrics) node.metrics = metrics_.RenderText();
  if (sections & kStatsHealth) {
    node.health.completed = server_.total_processed();
    FillNodeHealthPlane(journal_, &health_, &node.health);
  }
  if (sections & kStatsProfile) {
    const obs::ProfileSnapshot merged = server_.MergedProfile();
    FillNodeProfile(merged, &node.profile);
    // EXPLAIN-style plan view: the schema's dependency graph with measured
    // work and selectivity as extra label lines on every observed
    // attribute.
    node.profile.plan_dot =
        core::ToDot(server_.schema(), [&merged](AttributeId a) {
          std::string note;
          const auto i = static_cast<size_t>(a);
          if (i < merged.attrs.size() && merged.attrs[i].launches > 0) {
            note += "work=" + std::to_string(merged.attrs[i].work_units) +
                    " runs=" + std::to_string(merged.attrs[i].launches);
          }
          const double sel = merged.Selectivity(a);
          if (sel >= 0) {
            char text[32];
            std::snprintf(text, sizeof(text), "sel=%.2f", sel);
            if (!note.empty()) note += "\n";
            note += text;
          }
          return note;
        });
  }
  return node;
}

void IngressServer::WriteProfileSnapshot() {
  if (!server_.profiling_enabled()) return;
  const obs::ProfileSnapshot merged = server_.MergedProfile();
  if (profile_sink_.open()) {
    profile_sink_.Append(ProfileJson(NodeId(), merged));
  }
  journal_.Emit(obs::EventKind::kProfileSnapshot, obs::Severity::kInfo,
                "profiled=" + std::to_string(merged.profiled_requests) + "/" +
                    std::to_string(merged.total_requests) +
                    " sink_lines=" +
                    std::to_string(profile_sink_.lines_written()));
}

}  // namespace dflow::net
