#ifndef DFLOW_NET_SESSION_OUTBOX_H_
#define DFLOW_NET_SESSION_OUTBOX_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "net/socket.h"

namespace dflow::net {

// The write side of one front-door connection, shared by IngressServer and
// Router through net::EventLoop: the queue of encoded answer frames, which
// any thread may fill and only the conn's owning loop thread drains, and
// the in-flight request accounting behind the drain-answers-everything
// close. The invariants:
//
//   - Push() after Close() drops the frame (the conn is tearing down;
//     nothing may be appended once the stream was declared complete);
//   - a failed send marks the session dead, and the drain then *discards
//     instead of sending* — teardown never wedges on an unreachable peer;
//   - the loop closes gracefully only once Inflight() is zero (every
//     admitted request answered into the outbox), then Close()s and
//     flushes, so a client that waits for its responses sees all of them
//     before the FIN.
//
// The write path spends one doorbell and one syscall per drain pass, not
// one per frame: Push rings the wake callback only when no drain is
// already pending, and TryDrain hands up to kMaxGather queued frames to a
// single gathered send.
//
// Threading: Push/Begin/Finish/Close from any thread (the loop threads,
// shard workers); TryDrain from the owning loop thread only.
class SessionOutbox {
 public:
  // The most frames one TryDrain send gathers (well under IOV_MAX).
  static constexpr size_t kMaxGather = 64;

  SessionOutbox() = default;
  SessionOutbox(const SessionOutbox&) = delete;
  SessionOutbox& operator=(const SessionOutbox&) = delete;

  // Enqueues one encoded frame for the drain, unless the outbox is closed
  // (then the frame is dropped — the peer already got everything it was
  // owed). Rings the wake callback only if no drain is pending since the
  // last TryDrain began.
  void Push(std::vector<uint8_t> frame);

  // Marks the stream complete: TryDrain reports kComplete once the backlog
  // is flushed, and further Push()es are dropped. Always rings the wake
  // callback.
  void Close();

  // Outcome of one TryDrain pass.
  enum class DrainStatus : uint8_t {
    kDrained,   // outbox empty; the stream is still open
    kBlocked,   // the socket buffer filled — arm EPOLLOUT
    kComplete,  // Close() seen and every frame flushed (or discarded)
  };

  // One gathered send attempt: `send` gets up to kMaxGather iovecs (the
  // front frame's unsent tail, then whole frames) and reports how many
  // bytes it took. Socket::SendSomeV is the production sender.
  using GatherSend = std::function<IoResult(const iovec*, size_t)>;

  // Non-blocking drain: sends as much of the backlog as `send` takes right
  // now, popping every fully sent frame and keeping the offset into a
  // frame cut mid-way across calls. Clears the pending-wake flag before it
  // looks at the queue, so a Push that lands after that point rings again
  // and no wake is lost. A failed send marks the session dead (the rest is
  // discarded; the status converges to kDrained/kComplete so teardown
  // never wedges). Single-drainer: only the conn's owning loop thread may
  // call this.
  DrainStatus TryDrain(const GatherSend& send);

  // Installs the callback Push (coalesced) and Close (always) invoke
  // outside the lock — the event loop's cross-thread "this conn has bytes
  // to write" doorbell. Install before the conn starts handling frames;
  // not synchronized against in-flight Pushes.
  void SetWakeCallback(std::function<void()> wake);

  // In-flight accounting: one Begin per admitted request, one Finish per
  // answer enqueued (or per unwound refusal). The event loop polls
  // Inflight() during graceful close and finalizes once it reaches zero.
  void BeginRequest();
  void FinishRequest();
  int64_t Inflight() const;

  // Bytes pushed but not yet handed to a successful send (the unsent tail
  // of a frame cut mid-way included). The router reads its backend conns'
  // backlog here to decide when a front conn must stall.
  size_t QueuedBytes() const;

  // Write-side health counters for this session. inflight_hwm is the peak
  // Begin/Finish imbalance (how deep the session ever ran); bytes_written
  // counts bytes actually handed to a *successful* send; sends counts
  // those successful send calls (bytes_written / sends is the gather
  // depth); write_stalls counts Pushes that queued behind unsent frames
  // (the drain was not keeping up at that instant — a per-event signal,
  // not a duration).
  struct Stats {
    int64_t inflight_hwm = 0;
    int64_t bytes_written = 0;
    int64_t sends = 0;
    int64_t write_stalls = 0;
  };
  Stats GetStats() const;

 private:
  mutable std::mutex out_mu_;
  std::deque<std::vector<uint8_t>> outbox_;
  bool out_closed_ = false;
  bool dead_ = false;          // a send failed; drain without sending
  bool wake_pending_ = false;  // rung since the last TryDrain began
  int64_t bytes_written_ = 0;  // under out_mu_
  int64_t sends_ = 0;          // under out_mu_
  int64_t write_stalls_ = 0;   // under out_mu_
  size_t write_offset_ = 0;  // bytes of outbox_.front() already sent
  size_t queued_bytes_ = 0;  // unsent bytes in outbox_, under out_mu_
  std::function<void()> wake_;  // under out_mu_ (copied out to invoke)

  mutable std::mutex inflight_mu_;
  int64_t inflight_ = 0;
  int64_t inflight_hwm_ = 0;  // under inflight_mu_
};

}  // namespace dflow::net

#endif  // DFLOW_NET_SESSION_OUTBOX_H_
