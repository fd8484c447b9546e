#ifndef DFLOW_NET_EVENT_LOOP_H_
#define DFLOW_NET_EVENT_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/session_outbox.h"
#include "net/socket.h"
#include "net/wire_protocol.h"

namespace dflow::net {

class EventLoop;
struct LoopThread;

// One socket owned by an event-loop thread: the non-blocking Socket, its
// FrameAssembler, and its SessionOutbox, advanced entirely by the owning
// thread's epoll loop. This replaces the reader-thread + writer-thread
// pair of the session-per-connection model: a fixed pool of loop threads
// owns every connection, so 10k connections cost 10k fds, not 20k stacks.
//
// Threading contract: every method below is loop-thread only (call them
// from the Handlers callbacks, which the owning thread invokes) — EXCEPT
// outbox(), whose Push/Begin/Finish side is any-thread (shard workers and
// the router's other loop answer through it; its wake callback is the
// doorbell that schedules a drain on the owning thread), and the const
// counters.
class EventConn : public std::enable_shared_from_this<EventConn> {
 public:
  // What a frame handler tells the loop to do next.
  //   kContinue — frame fully handled; keep dispatching.
  //   kStall    — the handler could not finish (e.g. blocking admission
  //               against a full shard queue, or a router's fleet STATS
  //               poll awaiting backends). It has called DeferRetry()
  //               with a continuation; the loop pauses reads, retries the
  //               continuation on 1ms ticks, and resumes dispatching the
  //               already-buffered frames once it reports done. The unread
  //               socket backlog then fills the kernel buffer and TCP
  //               pushes the stall back to the client — backpressure
  //               without parking a thread.
  //   kClose    — the handler began teardown (BeginGracefulClose);
  //               dispatching stops.
  enum class FrameAction : uint8_t { kContinue, kStall, kClose };

  struct Handlers {
    // One complete frame, on the owning loop thread.
    std::function<FrameAction(EventConn*, Frame&)> on_frame;
    // Framing-level stream error (bad magic/version/oversized frame). The
    // stream is unrecoverable; the handler may Push a final typed error
    // frame, after which the loop flushes and closes. Optional.
    std::function<void(EventConn*, WireError)> on_protocol_error;
    // Called exactly once, on the owning loop thread, after the socket is
    // closed and the conn is about to be destroyed — the stats-folding
    // hook. Optional.
    std::function<void(EventConn*)> on_close;
  };

  SessionOutbox& outbox() { return outbox_; }
  uint64_t id() const { return id_; }
  int64_t bytes_in() const {
    return bytes_in_.load(std::memory_order_relaxed);
  }

  // Arbitrary per-connection session state, destroyed with the conn.
  std::shared_ptr<void> user;

  // Disarms EPOLLIN: no further bytes are read (already-buffered frames
  // still dispatch). The kernel receive buffer then fills and TCP stalls
  // the sender — this is how a stalled handler propagates backpressure.
  void PauseReads();
  void ResumeReads();

  // Arms a continuation retried on ~1ms loop ticks until it returns true.
  // The kStall contract: a handler that cannot finish synchronously parks
  // its remaining work here instead of blocking the loop thread. At most
  // one may be armed.
  void DeferRetry(std::function<bool()> retry);

  // Begins teardown: reads stop; once any armed retry completes and the
  // in-flight count (outbox Begin/Finish) reaches zero — i.e. every
  // admitted request's answer is in the outbox — `final_frame` (if
  // non-empty; the goodbye-ack hook) is pushed as the last frame, the
  // outbox closes, the backlog flushes, and the socket closes. Safe to
  // call more than once; later calls are ignored.
  void BeginGracefulClose(std::vector<uint8_t> final_frame = {});

  bool closing() const { return closing_; }

 private:
  friend class EventLoop;
  friend struct LoopThread;

  EventConn(uint64_t id, Socket socket, Handlers handlers);

  LoopThread* owner_ = nullptr;
  const uint64_t id_;
  Socket socket_;
  // A frame above kDefaultMaxPayloadBytes kills the conn with
  // FRAME_TOO_LARGE: framing cannot be trusted past an oversized length.
  FrameAssembler assembler_;
  SessionOutbox outbox_;
  Handlers handlers_;
  std::atomic<int64_t> bytes_in_{0};

  // Loop-thread-only state machine.
  bool reading_ = true;        // EPOLLIN armed
  bool want_write_ = false;    // EPOLLOUT armed
  bool closing_ = false;       // BeginGracefulClose seen
  bool finalized_ = false;     // final frame pushed + outbox closed
  bool hangup_ = false;        // EPOLLHUP/EPOLLERR seen; fd left epoll
  bool saw_protocol_error_ = false;
  std::vector<uint8_t> final_frame_;
  std::function<bool()> retry_;
  bool in_attention_ = false;  // on the owner's 1ms-tick list
};

// Pushes a typed ERROR frame on `conn`'s outbox (any-thread, like
// outbox().Push) — how both front doors refuse a frame.
void SendError(EventConn* conn, uint64_t request_id, WireError code,
               const std::string& message);

// A fixed pool of epoll threads (level-triggered, EINTR-safe) owning all
// of a server's accepted sockets. Connections are assigned round-robin at
// Add() and never migrate; each loop thread blocks in epoll_wait on its
// own fds plus an eventfd doorbell (new conns, outbox wakes, stop), and
// switches to 1ms ticks only while some conn on it has a deferred retry
// or a graceful close in progress.
class EventLoop {
 public:
  struct Options {
    // Loop threads in the pool; 0 picks min(4, hardware_concurrency).
    // Socket work is not free: on a cache-hit workload the loop thread,
    // not the shards, is the busy one, mostly in send/recv syscalls. It
    // is bounded per drain pass, though (one doorbell and one gathered
    // send, see SessionOutbox), so a handful of loop threads carries 10k+
    // connections.
    int num_threads = 0;
  };

  // How long Stop() waits for graceful closes to flush before
  // force-closing stragglers (a peer that never drains its socket must not
  // wedge shutdown).
  static constexpr int kDrainTimeoutMs = 10000;

  EventLoop();
  explicit EventLoop(Options options);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  bool Start(std::string* error);

  // Gracefully closes every conn (in-flight answers flushed, see
  // EventConn::BeginGracefulClose), waits for them to retire (up to
  // kDrainTimeoutMs, then force-closes in a bounded re-posted loop — a
  // straggler or late registration cannot wedge shutdown), and joins the
  // threads. Idempotent.
  void Stop();

  // Hands a connected socket to the pool (round-robin). The socket is
  // switched to non-blocking here. Thread-safe against other Add()s and
  // the loop threads, but must NOT race Stop(): the caller must stop
  // producing sockets before stopping the loop (IngressServer/Router join
  // their acceptor first). A conn whose Add slipped in just before Stop is
  // destroyed, not served. Returns null when the loop is not running. The
  // returned handle shares ownership: after the loop destroys the conn
  // (socket closed, on_close delivered) the handle only keeps the
  // any-thread surface alive — outbox() drops further Pushes, the counters
  // stay readable. The loop-thread-only methods remain loop-thread-only; a
  // caller may not invoke them through this handle.
  std::shared_ptr<EventConn> Add(Socket socket, EventConn::Handlers handlers,
                                 std::shared_ptr<void> user);

  size_t num_conns() const;
  int num_threads() const { return static_cast<int>(threads_.size()); }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  friend struct LoopThread;

  void Run(LoopThread* lt);
  void OnConnRegistered();
  void OnConnRetired();

  Options options_;
  std::vector<std::unique_ptr<LoopThread>> threads_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_thread_{0};
  std::atomic<size_t> num_conns_{0};
  mutable std::mutex retire_mu_;
  std::condition_variable retire_cv_;  // signaled as conns retire
};

}  // namespace dflow::net

#endif  // DFLOW_NET_EVENT_LOOP_H_
