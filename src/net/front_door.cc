#include "net/front_door.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

namespace dflow::net {

FrontDoor::FrontDoor(const FrontDoorOptions& options, const char* tag,
                     Handler* handler, obs::EventLog* journal,
                     obs::MetricsRegistry* metrics)
    : options_(options),
      tag_(tag),
      handler_(handler),
      journal_(journal),
      loop_(EventLoop::Options{options.event_threads}) {
  // Callbacks over counters the front door maintains anyway, so
  // registering them costs the request path nothing. The byte counters
  // fold across live conns + the closed-session accumulator (scrape-time
  // work, so the per-read hot path stays a single atomic add on the conn).
  const auto counter = [metrics](const char* name,
                                 const std::atomic<int64_t>* src) {
    metrics->AddCounter(name, {}, [src] { return src->load(); });
  };
  counter("dflow_connections_opened_total", &connections_opened_);
  counter("dflow_connections_closed_total", &connections_closed_);
  counter("dflow_decode_errors_total", &decode_errors_);
  counter("dflow_protocol_errors_total", &protocol_errors_);
  metrics->AddCounter("dflow_bytes_in_total", {},
                      [this] { return Stats().bytes_in; });
  metrics->AddCounter("dflow_bytes_out_total", {},
                      [this] { return Stats().bytes_out; });
  metrics->AddCounter("dflow_outbox_sends_total", {}, [this] {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    return OutboxTotalsLocked().sends;
  });
}

FrontDoor::~FrontDoor() { Stop(); }

bool FrontDoor::Start(std::string* error) {
  if (started_.exchange(true)) {
    if (error != nullptr) *error = "Start() called twice";
    return false;
  }
  if (!listener_.Listen(options_.port, error)) return false;
  if (!loop_.Start(error)) {
    listener_.Close();
    return false;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void FrontDoor::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  // 1. Stop accepting; retire the acceptor.
  listener_.Shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  // 2. Gracefully close every conn: already-buffered frames finish
  // dispatching, every in-flight answer lands in its outbox, and the
  // backlogs flush before the sockets close.
  loop_.Stop();
}

runtime::IngressStats FrontDoor::Stats() const {
  runtime::IngressStats stats;
  stats.connections_opened = connections_opened_.load();
  stats.connections_closed = connections_closed_.load();
  stats.decode_errors = decode_errors_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.info_requests = info_requests_.load();
  // Byte and outbox stats: the closed-session accumulators plus a
  // live-conn scan, all under sessions_mu_ so a conn retiring concurrently
  // is counted exactly once (on_close folds and unindexes under the same
  // lock). bytes_out IS the outbox flush count — the outbox is the only
  // writer a conn has.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  stats.bytes_in = closed_bytes_in_;
  for (const auto& [id, conn] : conns_) stats.bytes_in += conn->bytes_in();
  const SessionOutbox::Stats outbox = OutboxTotalsLocked();
  stats.outbox_inflight_hwm = outbox.inflight_hwm;
  stats.outbox_bytes_written = outbox.bytes_written;
  stats.outbox_write_stalls = outbox.write_stalls;
  stats.bytes_out = stats.outbox_bytes_written;
  return stats;
}

SessionOutbox::Stats FrontDoor::OutboxTotalsLocked() const {
  SessionOutbox::Stats total = closed_outbox_;
  for (const auto& [id, conn] : conns_) {
    const SessionOutbox::Stats live = conn->outbox().GetStats();
    total.inflight_hwm = std::max(total.inflight_hwm, live.inflight_hwm);
    total.bytes_written += live.bytes_written;
    total.sends += live.sends;
    total.write_stalls += live.write_stalls;
  }
  return total;
}

void FrontDoor::AcceptLoop() {
  int backoff_ms = 10;
  while (true) {
    ListenSocket::AcceptStatus status = ListenSocket::AcceptStatus::kShutdown;
    Socket socket = listener_.Accept(&status);
    if (status == ListenSocket::AcceptStatus::kTransient) {
      // Out of fds (or kernel buffers): survive it instead of exiting.
      // Pausing the accept path sheds politely — unaccepted peers wait in
      // the listen backlog — and the journal entry names the ceiling so an
      // operator raises ulimit instead of chasing drops.
      journal_->Emit(obs::EventKind::kWatermark, obs::Severity::kWarn,
                     "accept: fd/buffer exhaustion; backing off " +
                         std::to_string(backoff_ms) + "ms");
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, 100);
      continue;
    }
    backoff_ms = 10;
    if (status != ListenSocket::AcceptStatus::kOk) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    auto session = std::make_shared<Session>();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session->id = next_session_id_++;
    }
    EventConn::Handlers handlers;
    handlers.on_frame = [this, session](EventConn* conn, Frame& frame) {
      return HandleFrame(conn, session, frame);
    };
    handlers.on_protocol_error = [this](EventConn* conn, WireError error) {
      // Framing is lost: answer with the reason, then hang up (the loop
      // begins the graceful close) — there is no way to find the next
      // frame boundary in the stream.
      CountDecodeError();
      SendError(conn, 0, error, "unrecoverable frame stream");
    };
    handlers.on_close = [this, session](EventConn* conn) {
      OnConnClosed(conn, session.get());
    };
    const std::shared_ptr<EventConn> conn =
        loop_.Add(std::move(socket), std::move(handlers), session);
    if (conn == nullptr) continue;  // loop stopped under us; socket dropped
    connections_opened_.fetch_add(1, std::memory_order_relaxed);
    if (options_.verbose) {
      std::fprintf(stderr, "[%s] connection %llu open\n", tag_,
                   static_cast<unsigned long long>(session->id));
    }
    {
      // Index for the stats live-scan — unless the conn already retired
      // (a connect-and-vanish client can close before this line runs).
      std::lock_guard<std::mutex> lock(sessions_mu_);
      if (!session->retired) conns_.emplace(session->id, conn);
    }
  }
}

void FrontDoor::OnConnClosed(EventConn* conn, Session* session) {
  const SessionOutbox::Stats outbox = conn->outbox().GetStats();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session->retired = true;
    conns_.erase(session->id);
    closed_bytes_in_ += conn->bytes_in();
    closed_outbox_.inflight_hwm =
        std::max(closed_outbox_.inflight_hwm, outbox.inflight_hwm);
    closed_outbox_.bytes_written += outbox.bytes_written;
    closed_outbox_.sends += outbox.sends;
    closed_outbox_.write_stalls += outbox.write_stalls;
  }
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  if (options_.verbose) {
    std::fprintf(stderr,
                 "[%s] connection %llu closed: accepted=%lld bytes_in=%lld "
                 "bytes_out=%lld sends=%lld\n",
                 tag_, static_cast<unsigned long long>(session->id),
                 static_cast<long long>(session->accepted.load()),
                 static_cast<long long>(conn->bytes_in()),
                 static_cast<long long>(outbox.bytes_written),
                 static_cast<long long>(outbox.sends));
  }
}

EventConn::FrameAction FrontDoor::HandleFrame(
    EventConn* conn, const std::shared_ptr<Session>& session, Frame& frame) {
  switch (static_cast<MsgType>(frame.type)) {
    case MsgType::kSubmit:
      return handler_->HandleSubmit(conn, session, frame);
    case MsgType::kBatchSubmit: {
      BatchSubmitRequest request;
      if (!DecodeBatchSubmit(frame.payload, &request)) {
        CountDecodeError();
        // How many completions this frame owes is unknowable (the item
        // count is part of what failed to decode), so per-item errors are
        // impossible and the connection's completion accounting is broken.
        // Answer the typed error, then close: a client blocked draining
        // the batch's ticket range unblocks on EOF instead of hanging.
        SendError(conn, PeekRequestId(frame.payload),
                  WireError::kMalformedFrame, "undecodable batch payload");
        conn->BeginGracefulClose();
        return EventConn::FrameAction::kClose;
      }
      return handler_->HandleBatchSubmit(conn, session, std::move(request));
    }
    case MsgType::kInfoRequest: {
      info_requests_.fetch_add(1, std::memory_order_relaxed);
      std::vector<uint8_t> out;
      EncodeInfo(handler_->BuildInfo(), &out);
      conn->outbox().Push(std::move(out));
      return EventConn::FrameAction::kContinue;
    }
    case MsgType::kStatsRequest: {
      StatsRequest request;
      if (!DecodeStatsRequest(frame.payload, &request)) {
        CountDecodeError();
        SendError(conn, PeekRequestId(frame.payload),
                  WireError::kMalformedFrame, "undecodable stats request");
        return EventConn::FrameAction::kContinue;
      }
      return handler_->HandleStats(conn, request);
    }
    case MsgType::kGoodbye: {
      // Flush-then-ack, without parking the loop thread: the ack rides as
      // the graceful close's final frame, which the loop pushes only after
      // every accepted submit on this connection has its answer in the
      // outbox — a client that waits for the ack has seen all its results.
      std::vector<uint8_t> ack;
      EncodeGoodbyeAck(&ack);
      conn->BeginGracefulClose(std::move(ack));
      return EventConn::FrameAction::kClose;
    }
    default:
      CountProtocolError();
      SendError(conn, 0, WireError::kUnsupportedType,
                "unknown frame type " + std::to_string(frame.type));
      return EventConn::FrameAction::kContinue;
  }
}

}  // namespace dflow::net
