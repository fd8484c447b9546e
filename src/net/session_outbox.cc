#include "net/session_outbox.h"

#include <utility>

namespace dflow::net {

void SessionOutbox::Push(std::vector<uint8_t> frame) {
  std::function<void()> wake;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    if (out_closed_) return;  // session tearing down; drop
    if (!outbox_.empty()) ++write_stalls_;  // queued behind unsent frames
    queued_bytes_ += frame.size();
    outbox_.push_back(std::move(frame));
    // A drain is already scheduled and has not begun: it will see this
    // frame, so the doorbell stays quiet.
    if (wake_pending_) return;
    wake_pending_ = true;
    wake = wake_;
  }
  if (wake) wake();
}

void SessionOutbox::Close() {
  std::function<void()> wake;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_closed_ = true;
    wake = wake_;
  }
  if (wake) wake();
}

void SessionOutbox::SetWakeCallback(std::function<void()> wake) {
  std::lock_guard<std::mutex> lock(out_mu_);
  wake_ = std::move(wake);
}

SessionOutbox::DrainStatus SessionOutbox::TryDrain(const GatherSend& send) {
  std::unique_lock<std::mutex> lock(out_mu_);
  wake_pending_ = false;
  iovec iov[kMaxGather];
  while (true) {
    if (dead_ && !outbox_.empty()) {
      // Peer unreachable: discard, so Close() still converges to
      // kComplete and teardown never wedges.
      outbox_.clear();
      write_offset_ = 0;
      queued_bytes_ = 0;
    }
    if (outbox_.empty()) {
      return out_closed_ ? DrainStatus::kComplete : DrainStatus::kDrained;
    }
    // Send outside the lock so shard workers can keep Pushing. Safe: only
    // this (single-drainer) thread pops, and push_back on a deque does not
    // invalidate references to the frames already queued.
    size_t count = 0;
    size_t offset = write_offset_;
    for (auto it = outbox_.begin();
         it != outbox_.end() && count < kMaxGather; ++it, ++count) {
      iov[count].iov_base = it->data() + offset;
      iov[count].iov_len = it->size() - offset;
      offset = 0;
    }
    lock.unlock();
    const IoResult result = send(iov, count);
    lock.lock();
    switch (result.status) {
      case IoStatus::kOk: {
        bytes_written_ += static_cast<int64_t>(result.bytes);
        ++sends_;
        queued_bytes_ -= result.bytes;
        size_t left = result.bytes;
        while (!outbox_.empty() &&
               outbox_.front().size() - write_offset_ <= left) {
          left -= outbox_.front().size() - write_offset_;
          outbox_.pop_front();
          write_offset_ = 0;
        }
        write_offset_ += left;  // the frame cut mid-way, if any
        break;
      }
      case IoStatus::kWouldBlock:
        return DrainStatus::kBlocked;
      case IoStatus::kEof:
      case IoStatus::kError:
        dead_ = true;
        break;
    }
  }
}

void SessionOutbox::BeginRequest() {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  ++inflight_;
  if (inflight_ > inflight_hwm_) inflight_hwm_ = inflight_;
}

void SessionOutbox::FinishRequest() {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  --inflight_;
}

int64_t SessionOutbox::Inflight() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_;
}

size_t SessionOutbox::QueuedBytes() const {
  std::lock_guard<std::mutex> lock(out_mu_);
  return queued_bytes_;
}

SessionOutbox::Stats SessionOutbox::GetStats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    stats.bytes_written = bytes_written_;
    stats.sends = sends_;
    stats.write_stalls = write_stalls_;
  }
  std::lock_guard<std::mutex> lock(inflight_mu_);
  stats.inflight_hwm = inflight_hwm_;
  return stats;
}

}  // namespace dflow::net
