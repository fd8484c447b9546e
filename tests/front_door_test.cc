// The front-door contract, run against both front doors: a net::
// IngressServer, and a net::Router in front of one IngressServer backend.
// Both answer INFO, GOODBYE, unknown types, undecodable batches and
// framing errors through the same net::FrontDoor, so every case here must
// hold byte-for-byte on either one.

#include <gtest/gtest.h>

#include <dirent.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/schema_generator.h"
#include "net/ingress_server.h"
#include "net/router.h"
#include "net/socket.h"
#include "net/wire_protocol.h"
#include "runtime/flow_server.h"

namespace dflow::net {
namespace {

enum class Door { kIngress, kRouter };

std::string DoorName(const testing::TestParamInfo<Door>& info) {
  return info.param == Door::kIngress ? "Ingress" : "Router";
}

gen::GeneratedSchema MakePattern() {
  gen::PatternParams params;
  params.nb_nodes = 32;
  params.nb_rows = 4;
  params.seed = 73;
  return gen::GeneratePattern(params);
}

// The server under test: an ingress alone, or a router over one ingress.
class FrontDoorContractTest : public testing::TestWithParam<Door> {
 protected:
  void SetUp() override {
    runtime::FlowServerOptions server_options;
    server_options.num_shards = 2;
    server_options.strategy = *core::Strategy::Parse("PSE100");
    ingress_ = std::make_unique<IngressServer>(&pattern_.schema,
                                               server_options,
                                               IngressOptions{});
    std::string error;
    ASSERT_TRUE(ingress_->Start(&error)) << error;
    if (GetParam() == Door::kRouter) {
      RouterOptions options;
      options.backends.push_back({"127.0.0.1", ingress_->port()});
      router_ = std::make_unique<Router>(options);
      ASSERT_TRUE(router_->Start(&error)) << error;
    }
  }

  void TearDown() override {
    if (router_ != nullptr) router_->Stop();
    ingress_->Stop();
  }

  uint16_t port() const {
    return router_ != nullptr ? router_->port() : ingress_->port();
  }
  runtime::IngressStats stats() const {
    return router_ != nullptr ? router_->front_stats()
                              : ingress_->ingress_stats();
  }

  // Waits until `connections` conns were accepted and all of them retired
  // (accept and close are both asynchronous to the client).
  runtime::IngressStats SettledStats(int64_t connections) const {
    runtime::IngressStats now = stats();
    for (int spin = 0;
         spin < 10000 && (now.connections_opened < connections ||
                          now.connections_closed != now.connections_opened);
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      now = stats();
    }
    return now;
  }

  SubmitRequest MakeSubmit(uint64_t request_id, int index) const {
    SubmitRequest submit;
    submit.request_id = request_id;
    submit.seed = gen::InstanceSeed(pattern_.params, index);
    submit.sources = gen::MakeSourceBinding(pattern_, submit.seed);
    return submit;
  }

  const gen::GeneratedSchema pattern_ = MakePattern();
  std::unique_ptr<IngressServer> ingress_;
  std::unique_ptr<Router> router_;
};

// A raw loopback connection that reads whole frames.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    std::string error;
    socket_ = Socket::ConnectTcp("127.0.0.1", port, &error);
    EXPECT_TRUE(socket_.valid()) << error;
    socket_.SetRecvTimeout(5000);
  }

  bool Send(const std::vector<uint8_t>& bytes) {
    return socket_.SendAll(bytes.data(), bytes.size());
  }
  // The next frame, or nullopt on EOF / error.
  std::optional<Frame> Read() {
    uint8_t chunk[4096];
    while (true) {
      if (std::optional<Frame> frame = assembler_.Next()) return frame;
      if (assembler_.error() != WireError::kNone) return std::nullopt;
      const ssize_t n = socket_.Recv(chunk, sizeof(chunk));
      if (n <= 0) return std::nullopt;
      assembler_.Feed(chunk, static_cast<size_t>(n));
    }
  }
  // The next frame must be an ERROR; returns it decoded.
  ErrorReply ReadError() {
    ErrorReply reply;
    const std::optional<Frame> frame = Read();
    EXPECT_TRUE(frame.has_value());
    if (!frame.has_value()) return reply;
    EXPECT_EQ(frame->type, static_cast<uint8_t>(MsgType::kError));
    EXPECT_TRUE(DecodeError(frame->payload, &reply));
    return reply;
  }
  // True when the peer closed in order with nothing left unread.
  bool AtEof() {
    uint8_t byte;
    return assembler_.Next() == std::nullopt &&
           socket_.Recv(&byte, 1) == 0;
  }

 private:
  Socket socket_;
  FrameAssembler assembler_;
};

TEST_P(FrontDoorContractTest, UnknownTypeIsRefusedAndTheConnKeepsServing) {
  RawConn conn(port());
  std::vector<uint8_t> unknown;
  EncodeRawFrame(200, {1, 2, 3}, &unknown);
  ASSERT_TRUE(conn.Send(unknown));
  EXPECT_EQ(conn.ReadError().code, WireError::kUnsupportedType);

  std::vector<uint8_t> info_request;
  EncodeInfoRequest(&info_request);
  ASSERT_TRUE(conn.Send(info_request));
  const std::optional<Frame> reply = conn.Read();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MsgType::kInfo));
  ServerInfo info;
  ASSERT_TRUE(DecodeInfo(reply->payload, &info));
  EXPECT_EQ(info.strategy, "PSE100");
  EXPECT_EQ(info.router.is_router, GetParam() == Door::kRouter ? 1 : 0);
  // The INFO body carries the front door's own counters.
  EXPECT_EQ(info.ingress.protocol_errors, 1);
  EXPECT_EQ(info.ingress.info_requests, 1);
  EXPECT_EQ(info.ingress.decode_errors, 0);
}

TEST_P(FrontDoorContractTest, UndecodableBatchIsAnsweredThenClosed) {
  RawConn conn(port());
  // A well-framed batch whose payload is truncated garbage: the
  // request_id_base peeks out, nothing else decodes.
  std::vector<uint8_t> payload(12, 0);
  WriteLe64(99, payload.data());
  std::vector<uint8_t> frame;
  EncodeRawFrame(static_cast<uint8_t>(MsgType::kBatchSubmit), payload,
                 &frame);
  ASSERT_TRUE(conn.Send(frame));
  const ErrorReply reply = conn.ReadError();
  EXPECT_EQ(reply.code, WireError::kMalformedFrame);
  EXPECT_EQ(reply.request_id, 99u);
  EXPECT_TRUE(conn.AtEof());
  const runtime::IngressStats settled = SettledStats(1);
  EXPECT_EQ(settled.decode_errors, 1);
  EXPECT_EQ(settled.requests_accepted, 0);
}

TEST_P(FrontDoorContractTest, GarbageStreamGetsATypedErrorThenClose) {
  RawConn conn(port());
  const std::vector<uint8_t> garbage = {'X', 'X', 'X', 'X',
                                        'X', 'X', 'X', 'X'};
  ASSERT_TRUE(conn.Send(garbage));
  EXPECT_EQ(conn.ReadError().code, WireError::kMalformedFrame);
  EXPECT_TRUE(conn.AtEof());
  const runtime::IngressStats settled = SettledStats(1);
  EXPECT_EQ(settled.decode_errors, 1);
  EXPECT_EQ(settled.protocol_errors, 0);
  EXPECT_EQ(settled.connections_opened, 1);
  EXPECT_EQ(settled.connections_closed, 1);
}

TEST_P(FrontDoorContractTest, GoodbyeAcksOnlyAfterEveryInFlightResult) {
  constexpr int kInFlight = 24;
  RawConn conn(port());
  std::vector<uint8_t> bytes;
  for (int i = 0; i < kInFlight; ++i) {
    std::vector<uint8_t> submit;
    EncodeSubmit(MakeSubmit(static_cast<uint64_t>(i) + 1, i), &submit);
    bytes.insert(bytes.end(), submit.begin(), submit.end());
  }
  std::vector<uint8_t> goodbye;
  EncodeGoodbye(&goodbye);
  bytes.insert(bytes.end(), goodbye.begin(), goodbye.end());
  ASSERT_TRUE(conn.Send(bytes));  // one write: every submit in flight

  std::vector<bool> answered(kInFlight + 1, false);
  for (int i = 0; i < kInFlight; ++i) {
    const std::optional<Frame> frame = conn.Read();
    ASSERT_TRUE(frame.has_value()) << "result " << i;
    ASSERT_EQ(frame->type, static_cast<uint8_t>(MsgType::kSubmitResult))
        << "result " << i;
    const uint64_t id = PeekRequestId(frame->payload);
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, static_cast<uint64_t>(kInFlight));
    EXPECT_FALSE(answered[id]) << "request " << id << " answered twice";
    answered[id] = true;
  }
  const std::optional<Frame> ack = conn.Read();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, static_cast<uint8_t>(MsgType::kGoodbyeAck));
  EXPECT_TRUE(conn.AtEof());
  const runtime::IngressStats settled = SettledStats(1);
  EXPECT_EQ(settled.requests_accepted, kInFlight);
  EXPECT_EQ(settled.decode_errors, 0);
  EXPECT_EQ(settled.bytes_in, static_cast<int64_t>(bytes.size()));
}

int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

TEST_P(FrontDoorContractTest, ConnectDisconnectCyclesLeakNothing) {
  constexpr int kCycles = 200;
  constexpr int kWarmup = 20;  // let lazy allocations settle first
  int baseline_fds = -1;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    {
      RawConn conn(port());
      if (cycle % 2 == 0) {
        // Orderly: GOODBYE, ack, EOF.
        std::vector<uint8_t> goodbye;
        EncodeGoodbye(&goodbye);
        ASSERT_TRUE(conn.Send(goodbye));
        const std::optional<Frame> ack = conn.Read();
        ASSERT_TRUE(ack.has_value()) << "cycle " << cycle;
        EXPECT_EQ(ack->type, static_cast<uint8_t>(MsgType::kGoodbyeAck));
      }
      // Odd cycles vanish without a word.
    }
    if (cycle == kWarmup - 1) {
      SettledStats(kWarmup);
      baseline_fds = CountOpenFds();
    }
  }
  const runtime::IngressStats settled = SettledStats(kCycles);
  const int final_fds = CountOpenFds();
  EXPECT_EQ(settled.connections_opened, kCycles);
  EXPECT_EQ(settled.connections_closed, kCycles);
  EXPECT_EQ(settled.decode_errors, 0);
  ASSERT_GT(baseline_fds, 0);
  // Identical idle state before and after: upward drift is a leak. Small
  // slack absorbs unrelated runtime descriptors.
  EXPECT_LE(final_fds, baseline_fds + 4);
}

INSTANTIATE_TEST_SUITE_P(BothDoors, FrontDoorContractTest,
                         testing::Values(Door::kIngress, Door::kRouter),
                         DoorName);

}  // namespace
}  // namespace dflow::net
