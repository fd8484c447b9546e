#ifndef DFLOW_NET_FRONT_DOOR_H_
#define DFLOW_NET_FRONT_DOOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/event_loop.h"
#include "net/session_outbox.h"
#include "net/socket.h"
#include "net/wire_protocol.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "runtime/server_stats.h"

namespace dflow::net {

// The socket settings every front door shares. IngressOptions and
// RouterOptions derive from it, so a binary sets them the same way on both.
struct FrontDoorOptions {
  // TCP port to listen on; 0 asks the kernel for an ephemeral port (read
  // the result from port() after Start). The listener binds 127.0.0.1 only
  // — exposing a front door beyond the host is a deliberate non-goal until
  // there is authentication in front of it.
  uint16_t port = 0;
  // Event-loop threads owning the sockets; 0 picks
  // min(4, hardware_concurrency). See EventLoop::Options::num_threads.
  int event_threads = 0;
  // Per-connection open/close log lines on stderr.
  bool verbose = false;
};

// The part of a wire server that does not depend on what it serves: the
// listener and its acceptor thread, the shared net::EventLoop owning every
// accepted socket, the session index with the closed-session stats fold,
// and the frames every front door answers the same way (INFO, GOODBYE,
// STATS_REQUEST and BATCH_SUBMIT decoding, unknown types, framing errors).
// IngressServer and Router each hold one and plug in only what differs
// through Handler: what a submit, a batch and a stats poll do, and what
// INFO reports.
//
// The accept path survives fd exhaustion (EMFILE/ENFILE): it backs off
// 10ms doubling to 100ms and journals a watermark event naming the
// ceiling, while unaccepted peers wait in the listen backlog.
//
// Stop (also run by the destructor) is the "stop accepting, then gracefully
// close every conn" half of an owner's shutdown: buffered frames finish
// dispatching, every in-flight answer lands in its outbox, the backlogs
// flush, then the sockets close. What the owner quiesces afterwards (the
// shards, the backend connections) is its own business.
class FrontDoor {
 public:
  // Per-connection session state (EventConn::user). Byte counts come from
  // the conn itself (bytes_in) and its outbox (bytes_written).
  struct Session {
    uint64_t id = 0;
    // Requests this conn got admitted; the owner counts them, the verbose
    // close line prints them.
    std::atomic<int64_t> accepted{0};
    // True once on_close folded this session's stats (or, for a conn that
    // retired before the acceptor could index it, suppresses the index
    // insert). Guarded by sessions_mu_.
    bool retired = false;
  };

  // What differs between front doors. Every call runs on the conn's owning
  // loop thread and returns what the loop does next (see
  // EventConn::FrameAction).
  class Handler {
   public:
    // A SUBMIT frame, undecoded: the router relays it without a decode.
    virtual EventConn::FrameAction HandleSubmit(
        EventConn* conn, const std::shared_ptr<Session>& session,
        Frame& frame) = 0;
    virtual EventConn::FrameAction HandleBatchSubmit(
        EventConn* conn, const std::shared_ptr<Session>& session,
        BatchSubmitRequest request) = 0;
    virtual EventConn::FrameAction HandleStats(
        EventConn* conn, const StatsRequest& request) = 0;
    // The body of an INFO answer.
    virtual ServerInfo BuildInfo() const = 0;

   protected:
    ~Handler() = default;  // owners are never deleted through a Handler
  };

  // `tag` prefixes the verbose log lines ("[ingress] connection 3 open").
  // The handler and journal must outlive the front door. The shared metric
  // families are registered in `metrics` and read this object, so the
  // registry must not be rendered once the front door is gone.
  FrontDoor(const FrontDoorOptions& options, const char* tag,
            Handler* handler, obs::EventLog* journal,
            obs::MetricsRegistry* metrics);
  ~FrontDoor();
  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  // Binds, listens, starts the event loop and the acceptor. Returns false
  // and fills *error on failure (e.g. the port is taken). Call at most
  // once.
  bool Start(std::string* error);
  // Stops accepting, then gracefully closes every conn. Idempotent.
  void Stop();

  // The bound port (meaningful after a successful Start).
  uint16_t port() const { return listener_.port(); }

  // The connection, byte, outbox, decode-error, protocol-error and info
  // fields of the owner's IngressStats; the request fields stay zero.
  runtime::IngressStats Stats() const;

  // Owner-side refusals the shared error counters also cover.
  void CountDecodeError() {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountProtocolError() {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  EventConn::FrameAction HandleFrame(EventConn* conn,
                                     const std::shared_ptr<Session>& session,
                                     Frame& frame);
  // EventConn on_close hook: folds the conn's byte/outbox stats into the
  // closed-session accumulators exactly once.
  void OnConnClosed(EventConn* conn, Session* session);
  // The outbox stats of every conn ever accepted: the closed-session
  // accumulator plus a live-conn scan (HWM by max, the rest by sum).
  // Callers hold sessions_mu_.
  SessionOutbox::Stats OutboxTotalsLocked() const;

  const FrontDoorOptions options_;
  const char* const tag_;
  Handler* const handler_;
  obs::EventLog* const journal_;
  ListenSocket listener_;
  EventLoop loop_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  // serializes Stop()
  bool stopped_ = false;

  // Live conns indexed by session id, for the stats live-scan; closed
  // conns fold into the accumulators below under the same lock (exactly
  // once, see Session::retired). The HWM folds by max, the totals by sum.
  mutable std::mutex sessions_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<EventConn>> conns_;
  uint64_t next_session_id_ = 1;
  SessionOutbox::Stats closed_outbox_;
  int64_t closed_bytes_in_ = 0;

  std::atomic<int64_t> connections_opened_{0};
  std::atomic<int64_t> connections_closed_{0};
  std::atomic<int64_t> decode_errors_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> info_requests_{0};
  // Last: the acceptor uses every member above.
  std::thread acceptor_;
};

}  // namespace dflow::net

#endif  // DFLOW_NET_FRONT_DOOR_H_
