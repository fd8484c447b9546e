// SessionOutbox: the event-loop write path. One drain pass hands up to
// kMaxGather queued frames to one gathered send and keeps the offset into
// a frame cut mid-way; one doorbell rings per drain pass, not per Push.
// Fake senders pin the reassembly and the counters byte for byte; a
// socketpair with a tiny send buffer drives real EAGAIN partial writes
// through Socket::SendSomeV (sendmsg).

#include "net/session_outbox.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace dflow::net {
namespace {

using DrainStatus = SessionOutbox::DrainStatus;

// Frame `i` of `size` bytes with contents unique to (i, position).
std::vector<uint8_t> MakeFrame(size_t i, size_t size) {
  std::vector<uint8_t> frame(size);
  for (size_t j = 0; j < size; ++j) {
    frame[j] = static_cast<uint8_t>(i * 31 + j * 7 + 1);
  }
  return frame;
}

// Frames of mixed sizes; the first is 10 bytes, so k = 9/10/11 straddles
// its boundary.
std::vector<std::vector<uint8_t>> MixedFrames() {
  const size_t sizes[] = {10, 3, 17, 1, 10, 25, 2, 64, 9, 11, 5, 40};
  std::vector<std::vector<uint8_t>> frames;
  for (size_t i = 0; i < std::size(sizes); ++i) {
    frames.push_back(MakeFrame(i, sizes[i]));
  }
  return frames;
}

std::vector<uint8_t> Concat(const std::vector<std::vector<uint8_t>>& frames) {
  std::vector<uint8_t> all;
  for (const std::vector<uint8_t>& frame : frames) {
    all.insert(all.end(), frame.begin(), frame.end());
  }
  return all;
}

// Accepts at most `per_call` bytes per send, appending them to `stream`
// in iovec order; records each call's iovec count.
struct FakeSender {
  size_t per_call = 0;
  std::vector<uint8_t> stream;
  std::vector<size_t> iov_counts;

  SessionOutbox::GatherSend Fn() {
    return [this](const iovec* iov, size_t count) {
      iov_counts.push_back(count);
      size_t left = per_call;
      for (size_t i = 0; i < count && left > 0; ++i) {
        const size_t take = std::min(left, iov[i].iov_len);
        const uint8_t* base = static_cast<const uint8_t*>(iov[i].iov_base);
        stream.insert(stream.end(), base, base + take);
        left -= take;
      }
      return IoResult{IoStatus::kOk, per_call - left};
    };
  }
};

class SessionOutboxChunkTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SessionOutboxChunkTest, ReassembledStreamEqualsPushedFrames) {
  const std::vector<std::vector<uint8_t>> frames = MixedFrames();
  const std::vector<uint8_t> expected = Concat(frames);
  SessionOutbox outbox;
  for (const std::vector<uint8_t>& frame : frames) outbox.Push(frame);

  FakeSender sender;
  sender.per_call = std::min(GetParam(), expected.size());
  EXPECT_EQ(outbox.TryDrain(sender.Fn()), DrainStatus::kDrained);
  EXPECT_EQ(sender.stream, expected);

  const SessionOutbox::Stats stats = outbox.GetStats();
  EXPECT_EQ(stats.bytes_written, static_cast<int64_t>(expected.size()));
  EXPECT_EQ(stats.sends, static_cast<int64_t>(sender.iov_counts.size()));
  const size_t calls =
      (expected.size() + sender.per_call - 1) / sender.per_call;
  EXPECT_EQ(sender.iov_counts.size(), calls);
}

INSTANTIATE_TEST_SUITE_P(BytesPerCall, SessionOutboxChunkTest,
                         ::testing::Values(1, 7, 9, 10, 11, 1u << 20));

TEST(SessionOutboxTest, GathersAtMostTheCapPerSend) {
  constexpr size_t kFrames = 2 * SessionOutbox::kMaxGather + 5;
  std::vector<std::vector<uint8_t>> frames;
  SessionOutbox outbox;
  for (size_t i = 0; i < kFrames; ++i) {
    frames.push_back(MakeFrame(i, 1 + i % 13));
    outbox.Push(frames.back());
  }
  FakeSender sender;
  sender.per_call = 1u << 20;
  EXPECT_EQ(outbox.TryDrain(sender.Fn()), DrainStatus::kDrained);
  EXPECT_EQ(sender.stream, Concat(frames));
  EXPECT_EQ(sender.iov_counts,
            (std::vector<size_t>{SessionOutbox::kMaxGather,
                                 SessionOutbox::kMaxGather, 5}));
  EXPECT_EQ(outbox.GetStats().sends, 3);
}

TEST(SessionOutboxTest, BlockedThenResumesMidFrame) {
  const std::vector<std::vector<uint8_t>> frames = MixedFrames();
  SessionOutbox outbox;
  for (const std::vector<uint8_t>& frame : frames) outbox.Push(frame);

  // The socket takes 13 bytes (cutting the second frame), then fills.
  FakeSender sender;
  sender.per_call = 13;
  int calls = 0;
  const SessionOutbox::GatherSend fills =
      [&, inner = sender.Fn()](const iovec* iov, size_t count) {
        if (++calls > 1) return IoResult{IoStatus::kWouldBlock, 0};
        return inner(iov, count);
      };
  EXPECT_EQ(outbox.TryDrain(fills), DrainStatus::kBlocked);
  EXPECT_EQ(sender.stream.size(), 13u);
  EXPECT_EQ(outbox.GetStats().sends, 1);

  sender.per_call = 1u << 20;
  EXPECT_EQ(outbox.TryDrain(sender.Fn()), DrainStatus::kDrained);
  EXPECT_EQ(sender.stream, Concat(frames));
  EXPECT_EQ(outbox.GetStats().sends, 2);
}

// QueuedBytes is the unsent backlog: every pushed byte until a send takes
// it, the unsent tail of a frame cut mid-way included, and zero once a
// failed send discarded the rest.
TEST(SessionOutboxTest, QueuedBytesCountsTheUnsentBacklog) {
  const std::vector<std::vector<uint8_t>> frames = MixedFrames();
  const size_t total = Concat(frames).size();
  SessionOutbox outbox;
  EXPECT_EQ(outbox.QueuedBytes(), 0u);
  for (const std::vector<uint8_t>& frame : frames) outbox.Push(frame);
  EXPECT_EQ(outbox.QueuedBytes(), total);

  FakeSender sender;
  sender.per_call = 13;  // cuts the second frame
  int calls = 0;
  const SessionOutbox::GatherSend fills =
      [&, inner = sender.Fn()](const iovec* iov, size_t count) {
        if (++calls > 1) return IoResult{IoStatus::kWouldBlock, 0};
        return inner(iov, count);
      };
  EXPECT_EQ(outbox.TryDrain(fills), DrainStatus::kBlocked);
  EXPECT_EQ(outbox.QueuedBytes(), total - 13);

  const SessionOutbox::GatherSend fails = [](const iovec*, size_t) {
    return IoResult{IoStatus::kError, 0};
  };
  EXPECT_EQ(outbox.TryDrain(fails), DrainStatus::kDrained);
  EXPECT_EQ(outbox.QueuedBytes(), 0u);
}

TEST(SessionOutboxTest, FailedSendDiscardsTheRestAndCompletes) {
  SessionOutbox outbox;
  for (size_t i = 0; i < 5; ++i) outbox.Push(MakeFrame(i, 20));
  int calls = 0;
  const SessionOutbox::GatherSend fails = [&](const iovec*, size_t) {
    ++calls;
    return IoResult{IoStatus::kError, 0};
  };
  EXPECT_EQ(outbox.TryDrain(fails), DrainStatus::kDrained);
  outbox.Push(MakeFrame(5, 20));  // queued, then discarded unsent
  outbox.Close();
  EXPECT_EQ(outbox.TryDrain(fails), DrainStatus::kComplete);
  EXPECT_EQ(calls, 1);
  const SessionOutbox::Stats stats = outbox.GetStats();
  EXPECT_EQ(stats.bytes_written, 0);
  EXPECT_EQ(stats.sends, 0);
}

TEST(SessionOutboxTest, PushAfterCloseIsDropped) {
  SessionOutbox outbox;
  outbox.Push(MakeFrame(0, 8));
  outbox.Close();
  outbox.Push(MakeFrame(1, 8));
  FakeSender sender;
  sender.per_call = 1u << 20;
  EXPECT_EQ(outbox.TryDrain(sender.Fn()), DrainStatus::kComplete);
  EXPECT_EQ(sender.stream, MakeFrame(0, 8));
  EXPECT_EQ(outbox.GetStats().bytes_written, 8);
}

TEST(SessionOutboxTest, DoorbellRingsOncePerDrainPass) {
  SessionOutbox outbox;
  int rings = 0;
  outbox.SetWakeCallback([&] { ++rings; });
  for (size_t i = 0; i < 16; ++i) outbox.Push(MakeFrame(i, 4));
  EXPECT_EQ(rings, 1);

  // A Push landing while the drain is sending (after it cleared the
  // pending flag) rings again, so no wake is lost.
  FakeSender sender;
  sender.per_call = 1u << 20;
  bool pushed = false;
  const SessionOutbox::GatherSend pushes_inside =
      [&, inner = sender.Fn()](const iovec* iov, size_t count) {
        if (!pushed) {
          pushed = true;
          outbox.Push(MakeFrame(99, 4));
        }
        return inner(iov, count);
      };
  EXPECT_EQ(outbox.TryDrain(pushes_inside), DrainStatus::kDrained);
  EXPECT_EQ(rings, 2);
  EXPECT_EQ(sender.stream.size(), 17u * 4);

  // The pending flag is still set by the mid-send Push; the next drain
  // pass clears it and the next burst rings exactly once more.
  EXPECT_EQ(outbox.TryDrain(sender.Fn()), DrainStatus::kDrained);
  for (size_t i = 0; i < 3; ++i) outbox.Push(MakeFrame(i, 4));
  EXPECT_EQ(rings, 3);

  // Close always rings.
  outbox.Close();
  EXPECT_EQ(rings, 4);
}

TEST(SessionOutboxTest, BytesWrittenIsTheSumOfFrameSizes) {
  SessionOutbox outbox;
  int64_t total = 0;
  for (size_t i = 0; i < 300; ++i) {
    const size_t size = 1 + (i * 37) % 200;
    total += static_cast<int64_t>(size);
    outbox.Push(MakeFrame(i, size));
  }
  FakeSender sender;
  sender.per_call = 333;
  EXPECT_EQ(outbox.TryDrain(sender.Fn()), DrainStatus::kDrained);
  EXPECT_EQ(outbox.GetStats().bytes_written, total);
  EXPECT_EQ(static_cast<int64_t>(sender.stream.size()), total);
}

// Producers Push from several threads while one drainer thread runs a
// TryDrain per doorbell ring, as the event loop does. Every frame must
// arrive, in per-producer order, BEFORE Close() — Close always rings, so
// a wake lost by the pending-flag protocol shows up only as a backlog
// that waits for it.
TEST(SessionOutboxTest, ConcurrentPushersNeverLoseAWake) {
  constexpr int kProducers = 4;
  constexpr uint32_t kPerProducer = 2000;
  constexpr size_t kFrameBytes = 8;  // [producer u8][seq u32][pad]
  constexpr int64_t kTotal = int64_t{kProducers} * kPerProducer * kFrameBytes;

  SessionOutbox outbox;
  std::mutex mu;
  std::condition_variable rung;
  int64_t rings = 0;  // under mu
  outbox.SetWakeCallback([&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++rings;
    }
    rung.notify_one();
  });

  FakeSender sender;
  sender.per_call = 100;  // cuts frames mid-way
  std::atomic<int64_t> received{0};
  const SessionOutbox::GatherSend send =
      [&, inner = sender.Fn()](const iovec* iov, size_t count) {
        const IoResult result = inner(iov, count);
        received.fetch_add(static_cast<int64_t>(result.bytes));
        return result;
      };
  std::thread drainer([&] {
    int64_t seen = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu);
        rung.wait(lock, [&] { return rings != seen; });
        seen = rings;
      }
      if (outbox.TryDrain(send) == DrainStatus::kComplete) return;
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&outbox, p] {
      for (uint32_t seq = 0; seq < kPerProducer; ++seq) {
        std::vector<uint8_t> frame(kFrameBytes, 0);
        frame[0] = static_cast<uint8_t>(p);
        std::memcpy(frame.data() + 1, &seq, sizeof(seq));
        outbox.Push(std::move(frame));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.load() < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int64_t before_close = received.load();
  outbox.Close();
  drainer.join();

  EXPECT_EQ(before_close, kTotal);
  ASSERT_EQ(static_cast<int64_t>(sender.stream.size()), kTotal);
  uint32_t next[kProducers] = {};
  for (size_t at = 0; at < sender.stream.size(); at += kFrameBytes) {
    const uint8_t p = sender.stream[at];
    ASSERT_LT(p, kProducers);
    uint32_t seq;
    std::memcpy(&seq, sender.stream.data() + at + 1, sizeof(seq));
    ASSERT_EQ(seq, next[p]++);
  }
  EXPECT_EQ(outbox.GetStats().bytes_written, kTotal);
}

// A real socket with a tiny send buffer and a reader that sleeps before
// reading: the first drain must hit EAGAIN from sendmsg part-way through
// the backlog, and the resumed drains must deliver every byte in order.
TEST(SessionOutboxTest, RealSocketPartialWritesThroughSendmsg) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket writer(fds[0]);
  Socket reader(fds[1]);
  const int sndbuf = 4096;
  ASSERT_EQ(::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  ASSERT_TRUE(writer.SetNonBlocking());

  std::vector<std::vector<uint8_t>> frames;
  SessionOutbox outbox;
  for (size_t i = 0; i < 400; ++i) {
    frames.push_back(MakeFrame(i, 100 + (i * 53) % 900));
    outbox.Push(frames.back());
  }
  const std::vector<uint8_t> expected = Concat(frames);
  const SessionOutbox::GatherSend send = [&](const iovec* iov, size_t n) {
    return writer.SendSomeV(iov, n);
  };

  // Nothing reads yet: the buffer fills and the drain reports kBlocked.
  ASSERT_EQ(outbox.TryDrain(send), DrainStatus::kBlocked);
  const SessionOutbox::Stats blocked = outbox.GetStats();
  EXPECT_GT(blocked.bytes_written, 0);
  EXPECT_LT(blocked.bytes_written, static_cast<int64_t>(expected.size()));

  std::vector<uint8_t> received;
  std::thread drainer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    uint8_t chunk[1024];
    while (true) {
      const ssize_t n = reader.Recv(chunk, sizeof(chunk));
      if (n <= 0) return;
      received.insert(received.end(), chunk, chunk + n);
    }
  });

  // Closed, so each pass ends kBlocked (wait for POLLOUT) or kComplete.
  // No ASSERT inside the loop: the reader thread must be joined first.
  outbox.Close();
  DrainStatus status = DrainStatus::kBlocked;
  while (status == DrainStatus::kBlocked) {
    pollfd pfd{writer.fd(), POLLOUT, 0};
    if (::poll(&pfd, 1, 5000) < 1) break;
    status = outbox.TryDrain(send);
  }
  writer.ShutdownWrite();
  drainer.join();

  ASSERT_EQ(status, DrainStatus::kComplete);
  EXPECT_EQ(received, expected);
  const SessionOutbox::Stats stats = outbox.GetStats();
  EXPECT_EQ(stats.bytes_written, static_cast<int64_t>(expected.size()));
  // 400 frames need at least 7 gathered sends even with no EAGAIN.
  EXPECT_GE(stats.sends, 7);
}

}  // namespace
}  // namespace dflow::net
