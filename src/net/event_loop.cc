#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace dflow::net {

// Per-thread loop state. Cross-thread communication goes through the
// inbox (mu + eventfd doorbell); everything else is loop-thread only.
struct LoopThread {
  EventLoop* loop = nullptr;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;

  std::mutex mu;
  std::vector<std::shared_ptr<EventConn>> to_add;
  std::vector<std::weak_ptr<EventConn>> to_drain;
  bool close_all = false;
  bool force_close = false;
  bool stop = false;

  // Loop-thread only: live conns by fd, and the fds that need 1ms ticks
  // (deferred retries and graceful closes in progress).
  std::unordered_map<int, std::shared_ptr<EventConn>> conns;
  std::vector<int> attention;

  void Wake() {
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd, &one, sizeof(one));
  }

  void UpdateEvents(EventConn* conn) {
    if (conn->hangup_) return;  // fd already left the interest set
    epoll_event ev{};
    ev.events = (conn->reading_ ? EPOLLIN : 0u) |
                (conn->want_write_ ? EPOLLOUT : 0u);
    ev.data.fd = conn->socket_.fd();
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->socket_.fd(), &ev);
  }

  void EnsureAttention(EventConn* conn) {
    if (conn->in_attention_) return;
    conn->in_attention_ = true;
    attention.push_back(conn->socket_.fd());
  }

  void LeaveAttention(EventConn* conn) {
    if (!conn->in_attention_) return;
    conn->in_attention_ = false;
    attention.erase(std::find(attention.begin(), attention.end(),
                              conn->socket_.fd()));
  }

  void Register(const std::shared_ptr<EventConn>& conn) {
    const int fd = conn->socket_.fd();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      conn->socket_.Close();
      if (conn->handlers_.on_close) conn->handlers_.on_close(conn.get());
      return;
    }
    conns.emplace(fd, conn);
    loop->OnConnRegistered();
    // An Add() that raced Stop() may land here after the close_all (or
    // even force_close) pass was already processed, so nothing would ever
    // close it again. It was never read and owes nothing — destroy it
    // outright so Stop()'s retirement wait converges.
    if (!loop->running()) Destroy(conn);
  }

  // Tears the conn down NOW: epoll deregistration, socket close, the
  // on_close hook, map removal. The graceful path only reaches this once
  // the outbox reports kComplete; force_close reaches it directly.
  void Destroy(const std::shared_ptr<EventConn>& conn) {
    const int fd = conn->socket_.fd();
    LeaveAttention(conn.get());
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    conn->socket_.Close();
    // Late answers from shard workers or another loop (arriving through
    // a still-held shared_ptr) must drop, not accumulate.
    conn->outbox_.Close();
    if (conn->handlers_.on_close) conn->handlers_.on_close(conn.get());
    conns.erase(fd);
    loop->OnConnRetired();
  }

  // The conn for an fd, guarded against stale doorbells referencing a
  // conn already destroyed (its fd is -1 or recycled by a newer conn).
  std::shared_ptr<EventConn> Live(const std::shared_ptr<EventConn>& conn) {
    const auto it = conns.find(conn->socket_.fd());
    if (it == conns.end() || it->second != conn) return nullptr;
    return conn;
  }

  // Drains the outbox as far as the socket allows; arms/disarms EPOLLOUT
  // around the blocked edge. Returns false when the conn was destroyed
  // (outbox complete — closed and fully flushed or discarded).
  bool ServiceWrites(const std::shared_ptr<EventConn>& conn) {
    EventConn* c = conn.get();
    const SessionOutbox::DrainStatus status = c->outbox_.TryDrain(
        [c](const iovec* iov, size_t count) {
          return c->socket_.SendSomeV(iov, count);
        });
    switch (status) {
      case SessionOutbox::DrainStatus::kBlocked:
        if (!c->want_write_) {
          c->want_write_ = true;
          UpdateEvents(c);
        }
        return true;
      case SessionOutbox::DrainStatus::kDrained:
        if (c->want_write_) {
          c->want_write_ = false;
          UpdateEvents(c);
        }
        return true;
      case SessionOutbox::DrainStatus::kComplete:
        Destroy(conn);
        return false;
    }
    return true;
  }

  void DispatchFrames(EventConn* conn) {
    while (!conn->closing_ && !conn->retry_) {
      std::optional<Frame> frame = conn->assembler_.Next();
      if (!frame.has_value()) {
        if (conn->assembler_.error() != WireError::kNone &&
            !conn->saw_protocol_error_) {
          conn->saw_protocol_error_ = true;
          if (conn->handlers_.on_protocol_error) {
            conn->handlers_.on_protocol_error(conn,
                                              conn->assembler_.error());
          }
          conn->BeginGracefulClose();
        }
        return;
      }
      const EventConn::FrameAction action =
          conn->handlers_.on_frame(conn, *frame);
      if (action == EventConn::FrameAction::kContinue) continue;
      // kStall: stop consuming bytes until the armed retry finishes (the
      // already-buffered frames keep their place in the assembler).
      if (action == EventConn::FrameAction::kStall) conn->PauseReads();
      return;
    }
  }

  void HandleReadable(const std::shared_ptr<EventConn>& conn) {
    if (!conn->reading_ || conn->closing_) return;  // stale LT event
    uint8_t chunk[64 * 1024];
    const IoResult result = conn->socket_.RecvSome(chunk, sizeof(chunk));
    switch (result.status) {
      case IoStatus::kOk:
        conn->bytes_in_.fetch_add(static_cast<int64_t>(result.bytes),
                                  std::memory_order_relaxed);
        conn->assembler_.Feed(chunk, result.bytes);
        DispatchFrames(conn.get());
        break;
      case IoStatus::kWouldBlock:
        break;
      case IoStatus::kEof:
      case IoStatus::kError:
        // Peer gone (or half-closed): stop reading, flush what it is
        // still owed, retire. A truly dead peer fails the first send,
        // which marks the outbox dead and turns the flush into a
        // discard — teardown never wedges either way.
        conn->BeginGracefulClose();
        break;
    }
  }

  // EPOLLHUP/EPOLLERR arrive even with an empty interest mask. While the
  // read path can still make progress it observes the EOF/error itself and
  // begins the close; but a conn whose reads are paused (stalled
  // admission) or that is already closing would leave the dead fd in the
  // interest set, and level-triggered epoll_wait would redeliver the event
  // every iteration — a busy spin pinning the loop thread at 100% CPU
  // until the close completes. Pull the fd out of epoll and let the 1ms
  // attention ticks finish whatever the conn still owes (sends to the dead
  // peer fail, which turns the flush into a discard and retires it).
  void HandleHangup(const std::shared_ptr<EventConn>& conn) {
    if (conn->reading_ && !conn->closing_) return;  // read path owns it
    conn->BeginGracefulClose();
    if (!conn->hangup_) {
      conn->hangup_ = true;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->socket_.fd(), nullptr);
    }
  }

  // Graceful-close progress: once the armed retry (if any) finished and
  // every admitted request's answer landed in the outbox, push the final
  // frame, close the outbox, and flush until kComplete destroys the conn.
  void TickClose(const std::shared_ptr<EventConn>& conn) {
    if (!conn->finalized_) {
      if (conn->outbox_.Inflight() != 0) return;  // answers still landing
      if (!conn->final_frame_.empty()) {
        conn->outbox_.Push(std::move(conn->final_frame_));
        conn->final_frame_.clear();
      }
      conn->outbox_.Close();
      conn->finalized_ = true;
    }
    ServiceWrites(conn);
  }

  void TickAttention() {
    const std::vector<int> fds = attention;  // ticks mutate the list
    for (const int fd : fds) {
      const auto it = conns.find(fd);
      if (it == conns.end()) continue;
      const std::shared_ptr<EventConn> conn = it->second;
      if (conn->retry_) {
        if (!conn->retry_()) continue;  // not done; tick again in ~1ms
        conn->retry_ = nullptr;
        if (!conn->closing_) {
          // The stalled frame finished: dispatch what was already
          // buffered, then reopen the read side.
          DispatchFrames(conn.get());
          if (!conn->closing_ && !conn->retry_) conn->ResumeReads();
        }
      }
      if (conn->closing_) {
        TickClose(conn);
      } else if (!conn->retry_) {
        LeaveAttention(conn.get());
      }
    }
  }

  // Returns true once the thread should exit.
  bool ProcessInbox() {
    std::vector<std::shared_ptr<EventConn>> add;
    std::vector<std::weak_ptr<EventConn>> drain;
    bool do_close_all = false;
    bool do_force = false;
    bool do_stop = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      add.swap(to_add);
      drain.swap(to_drain);
      do_close_all = close_all;
      close_all = false;
      do_force = force_close;
      force_close = false;
      do_stop = stop;
    }
    for (const std::shared_ptr<EventConn>& conn : add) Register(conn);
    for (const std::weak_ptr<EventConn>& weak : drain) {
      const std::shared_ptr<EventConn> conn = weak.lock();
      if (conn == nullptr) continue;
      const std::shared_ptr<EventConn> live = Live(conn);
      if (live != nullptr) ServiceWrites(live);
    }
    if (do_close_all) {
      std::vector<std::shared_ptr<EventConn>> all;
      all.reserve(conns.size());
      for (const auto& [fd, conn] : conns) all.push_back(conn);
      for (const std::shared_ptr<EventConn>& conn : all) {
        conn->BeginGracefulClose();
        TickClose(conn);
      }
    }
    if (do_force) {
      std::vector<std::shared_ptr<EventConn>> all;
      all.reserve(conns.size());
      for (const auto& [fd, conn] : conns) all.push_back(conn);
      for (const std::shared_ptr<EventConn>& conn : all) Destroy(conn);
    }
    return do_stop;
  }
};

EventConn::EventConn(uint64_t id, Socket socket, Handlers handlers)
    : id_(id), socket_(std::move(socket)), handlers_(std::move(handlers)) {}

void SendError(EventConn* conn, uint64_t request_id, WireError code,
               const std::string& message) {
  std::vector<uint8_t> out;
  EncodeError(ErrorReply{request_id, code, message}, &out);
  conn->outbox().Push(std::move(out));
}

void EventConn::PauseReads() {
  if (!reading_) return;
  reading_ = false;
  owner_->UpdateEvents(this);
}

void EventConn::ResumeReads() {
  if (reading_ || closing_) return;
  reading_ = true;
  owner_->UpdateEvents(this);
}

void EventConn::DeferRetry(std::function<bool()> retry) {
  retry_ = std::move(retry);
  owner_->EnsureAttention(this);
}

void EventConn::BeginGracefulClose(std::vector<uint8_t> final_frame) {
  if (closing_) return;
  closing_ = true;
  final_frame_ = std::move(final_frame);
  if (reading_) {
    reading_ = false;
    owner_->UpdateEvents(this);
  }
  owner_->EnsureAttention(this);
}

EventLoop::EventLoop() : EventLoop(Options{}) {}

EventLoop::EventLoop(Options options) : options_(options) {}

EventLoop::~EventLoop() { Stop(); }

bool EventLoop::Start(std::string* error) {
  int num_threads = options_.num_threads;
  if (num_threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = static_cast<int>(std::min(4u, hw > 0 ? hw : 1u));
  }
  for (int i = 0; i < num_threads; ++i) {
    auto lt = std::make_unique<LoopThread>();
    lt->loop = this;
    lt->epoll_fd = ::epoll_create1(0);
    lt->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (lt->epoll_fd < 0 || lt->wake_fd < 0) {
      if (error != nullptr) *error = "event loop: epoll/eventfd failed";
      if (lt->epoll_fd >= 0) ::close(lt->epoll_fd);
      if (lt->wake_fd >= 0) ::close(lt->wake_fd);
      threads_.clear();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = lt->wake_fd;
    ::epoll_ctl(lt->epoll_fd, EPOLL_CTL_ADD, lt->wake_fd, &ev);
    threads_.push_back(std::move(lt));
  }
  running_.store(true, std::memory_order_release);
  for (auto& lt : threads_) {
    lt->thread = std::thread([this, raw = lt.get()] { Run(raw); });
  }
  return true;
}

void EventLoop::Stop() {
  if (threads_.empty()) return;
  running_.store(false, std::memory_order_release);
  for (auto& lt : threads_) {
    std::lock_guard<std::mutex> lock(lt->mu);
    lt->close_all = true;
  }
  for (auto& lt : threads_) lt->Wake();
  {
    std::unique_lock<std::mutex> lock(retire_mu_);
    retire_cv_.wait_for(
        lock, std::chrono::milliseconds(kDrainTimeoutMs),
        [this] { return num_conns_.load(std::memory_order_acquire) == 0; });
  }
  // A peer that never drains its socket does not get to wedge shutdown.
  // The force pass is re-posted in a bounded wait loop rather than awaited
  // once: each pass destroys everything registered at that moment, and a
  // registration that slips in after a pass self-destroys (see Register),
  // so the count reaches zero in at most a few rounds.
  while (num_conns_.load(std::memory_order_acquire) != 0) {
    for (auto& lt : threads_) {
      std::lock_guard<std::mutex> lock(lt->mu);
      lt->force_close = true;
    }
    for (auto& lt : threads_) lt->Wake();
    std::unique_lock<std::mutex> lock(retire_mu_);
    retire_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
      return num_conns_.load(std::memory_order_acquire) == 0;
    });
  }
  for (auto& lt : threads_) {
    std::lock_guard<std::mutex> lock(lt->mu);
    lt->stop = true;
  }
  for (auto& lt : threads_) lt->Wake();
  for (auto& lt : threads_) {
    if (lt->thread.joinable()) lt->thread.join();
    ::close(lt->epoll_fd);
    ::close(lt->wake_fd);
  }
  threads_.clear();
}

std::shared_ptr<EventConn> EventLoop::Add(Socket socket,
                                          EventConn::Handlers handlers,
                                          std::shared_ptr<void> user) {
  if (!running_.load(std::memory_order_acquire) || !socket.valid()) {
    return nullptr;
  }
  if (!socket.SetNonBlocking()) return nullptr;
  LoopThread* lt =
      threads_[next_thread_.fetch_add(1, std::memory_order_relaxed) %
               threads_.size()]
          .get();
  std::shared_ptr<EventConn> conn(
      new EventConn(next_conn_id_.fetch_add(1, std::memory_order_relaxed),
                    std::move(socket), std::move(handlers)));
  conn->owner_ = lt;
  conn->user = std::move(user);
  // The outbox doorbell: any thread Pushing an answer posts the conn to
  // its owner's drain inbox. A weak_ptr, so late answers after the conn
  // retired degrade to a no-op wake.
  conn->outbox_.SetWakeCallback(
      [lt, weak = std::weak_ptr<EventConn>(conn)] {
        {
          std::lock_guard<std::mutex> lock(lt->mu);
          lt->to_drain.push_back(weak);
        }
        lt->Wake();
      });
  {
    std::lock_guard<std::mutex> lock(lt->mu);
    lt->to_add.push_back(conn);
  }
  lt->Wake();
  return conn;
}

size_t EventLoop::num_conns() const {
  return num_conns_.load(std::memory_order_acquire);
}

void EventLoop::OnConnRegistered() {
  num_conns_.fetch_add(1, std::memory_order_acq_rel);
}

void EventLoop::OnConnRetired() {
  if (num_conns_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(retire_mu_);
    retire_cv_.notify_all();
  }
}

void EventLoop::Run(LoopThread* lt) {
  std::vector<epoll_event> events(128);
  while (true) {
    const int timeout_ms = lt->attention.empty() ? -1 : 1;
    const int n = ::epoll_wait(lt->epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: unrecoverable, retire the thread
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == lt->wake_fd) {
        // One read resets a (non-semaphore) eventfd to zero, however many
        // writes rang it.
        uint64_t rings;
        [[maybe_unused]] const ssize_t r =
            ::read(lt->wake_fd, &rings, sizeof(rings));
        continue;
      }
      const auto it = lt->conns.find(fd);
      if (it == lt->conns.end()) continue;  // destroyed earlier this batch
      const std::shared_ptr<EventConn> conn = it->second;
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        lt->HandleReadable(conn);
      }
      if ((events[i].events & EPOLLOUT) != 0 &&
          lt->Live(conn) != nullptr) {
        lt->ServiceWrites(conn);
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          lt->Live(conn) != nullptr) {
        lt->HandleHangup(conn);
      }
    }
    const bool should_stop = lt->ProcessInbox();
    lt->TickAttention();
    if (should_stop) return;
  }
}

}  // namespace dflow::net
