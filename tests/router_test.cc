// End-to-end tests of the multi-node routing tier: a real net::Router on
// an ephemeral port in front of real net::IngressServer backends, driven
// by net::Client over loopback. The centerpiece is the fleet-determinism
// contract: results served through the router are byte-identical to
// in-process FlowServer execution of the same request set, for any
// backend count — plus the failure-path contracts (backend down ->
// BACKEND_UNAVAILABLE + reconnect with backoff; Stop() answers every
// admitted request).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/schema_generator.h"
#include "net/client.h"
#include "net/ingress_server.h"
#include "net/router.h"
#include "net/socket.h"
#include "net/wire_protocol.h"
#include "obs/event_log.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/flow_server.h"

namespace dflow::net {
namespace {

core::Strategy S(const char* text) { return *core::Strategy::Parse(text); }

gen::GeneratedSchema MakePattern(uint64_t seed = 31, int nb_nodes = 32,
                                 int nb_rows = 4) {
  gen::PatternParams params;
  params.nb_nodes = nb_nodes;
  params.nb_rows = nb_rows;
  params.seed = seed;
  return gen::GeneratePattern(params);
}

std::vector<runtime::FlowRequest> MakeWorkload(
    const gen::GeneratedSchema& pattern, int count) {
  std::vector<runtime::FlowRequest> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = gen::InstanceSeed(pattern.params, i);
    requests.push_back({gen::MakeSourceBinding(pattern, seed), seed});
  }
  return requests;
}

// Everything a wire response carries, keyed for byte-identity comparison.
struct WireOutcome {
  int64_t work = 0;
  int64_t wasted_work = 0;
  double response_time = 0;
  int32_t queries_launched = 0;
  int32_t speculative_launches = 0;
  uint64_t fingerprint = 0;
  std::vector<SnapshotEntry> snapshot;

  friend bool operator==(const WireOutcome&, const WireOutcome&) = default;
};

WireOutcome FromWire(const SubmitResult& result) {
  WireOutcome outcome;
  outcome.work = result.work;
  outcome.wasted_work = result.wasted_work;
  outcome.response_time = result.response_time;
  outcome.queries_launched = result.queries_launched;
  outcome.speculative_launches = result.speculative_launches;
  outcome.fingerprint = result.fingerprint;
  outcome.snapshot = result.snapshot;
  return outcome;
}

WireOutcome FromInstanceResult(const core::InstanceResult& result) {
  WireOutcome outcome;
  outcome.work = result.metrics.work;
  outcome.wasted_work = result.metrics.wasted_work;
  outcome.response_time = result.metrics.ResponseTime();
  outcome.queries_launched = result.metrics.queries_launched;
  outcome.speculative_launches = result.metrics.speculative_launches;
  outcome.fingerprint = FingerprintResult(result);
  const int n = result.snapshot.schema().num_attributes();
  outcome.snapshot.reserve(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) {
    const auto attr = static_cast<AttributeId>(a);
    outcome.snapshot.push_back(SnapshotEntry{
        attr, result.snapshot.state(attr), result.snapshot.value(attr)});
  }
  return outcome;
}

// A fleet of real ingress servers plus a router in front, torn down in
// the right order by the destructor. `pattern` must outlive the fleet.
struct Fleet {
  const gen::GeneratedSchema* pattern = nullptr;
  std::vector<std::unique_ptr<IngressServer>> backends;
  std::unique_ptr<Router> router;

  ~Fleet() {
    if (router != nullptr) router->Stop();
    for (const std::unique_ptr<IngressServer>& backend : backends) {
      backend->Stop();
    }
  }
};

runtime::FlowServerOptions BackendOptions(int shards,
                                          const char* strategy = "PSE100") {
  runtime::FlowServerOptions options;
  options.num_shards = shards;
  options.strategy = S(strategy);
  return options;
}

// Starts `shard_counts.size()` backends (backend i with the given shard
// count) and a router over all of them.
std::unique_ptr<Fleet> MakeFleet(const gen::GeneratedSchema& pattern,
                                 const std::vector<int>& shard_counts,
                                 RouterOptions router_options = {}) {
  auto fleet = std::make_unique<Fleet>();
  fleet->pattern = &pattern;
  for (const int shards : shard_counts) {
    auto backend = std::make_unique<IngressServer>(
        &pattern.schema, BackendOptions(shards), IngressOptions{});
    std::string error;
    EXPECT_TRUE(backend->Start(&error)) << error;
    router_options.backends.push_back(
        BackendAddress{"127.0.0.1", backend->port()});
    fleet->backends.push_back(std::move(backend));
  }
  // Fast backoff so the reconnect tests do not wait out production delays.
  router_options.backoff_initial_ms = 10;
  router_options.backoff_max_ms = 100;
  fleet->router = std::make_unique<Router>(router_options);
  std::string error;
  EXPECT_TRUE(fleet->router->Start(&error)) << error;
  return fleet;
}

// Serves the workload through the router (pipelined on one connection,
// full snapshots requested) and returns seed -> outcome.
std::map<uint64_t, WireOutcome> ServeThroughRouter(
    const Fleet& fleet, const std::vector<runtime::FlowRequest>& requests) {
  Client client;
  std::string error;
  EXPECT_TRUE(client.Connect("127.0.0.1", fleet.router->port(), &error))
      << error;
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.want_snapshot = true;
    submit.sources = requests[i].sources;
    EXPECT_TRUE(client.SendSubmit(submit));
  }
  std::map<uint64_t, WireOutcome> by_seed;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::optional<ServerMessage> message = client.ReadMessage();
    if (!message.has_value() || message->type != MsgType::kSubmitResult) {
      ADD_FAILURE() << "missing or non-result reply " << i;
      break;
    }
    const size_t index = static_cast<size_t>(message->result.request_id) - 1;
    if (index >= requests.size()) {
      ADD_FAILURE() << "response names unknown request_id "
                    << message->result.request_id;
      break;
    }
    by_seed.emplace(requests[index].seed, FromWire(message->result));
  }
  EXPECT_TRUE(client.Goodbye());
  return by_seed;
}

// --- The acceptance-criteria test: routing through 1, 2, and 3 backends
// serves bytes identical to in-process FlowServer execution.
TEST(RouterTest, RoutedResultsMatchDirectExecutionAcrossFleetSizes) {
  const gen::GeneratedSchema pattern = MakePattern();
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 45);

  // In-process reference: a FlowServer driven directly, no network.
  runtime::FlowServerOptions options = BackendOptions(2);
  runtime::FlowServer reference(&pattern.schema, options);
  std::mutex mu;
  std::map<uint64_t, WireOutcome> expected;
  reference.SetResultCallback([&](int, const runtime::FlowRequest& request,
                                  const core::InstanceResult& result,
                                  const core::Strategy&) {
    std::lock_guard<std::mutex> lock(mu);
    expected.emplace(request.seed, FromInstanceResult(result));
  });
  for (const runtime::FlowRequest& request : requests) {
    ASSERT_TRUE(reference.Submit(request));
  }
  reference.Drain();
  ASSERT_EQ(expected.size(), requests.size());

  // Deliberately heterogeneous shard counts: node placement AND shard
  // placement both move as the fleet grows, and the bytes must not.
  const std::vector<std::vector<int>> fleets = {{2}, {1, 3}, {2, 1, 2}};
  for (const std::vector<int>& shard_counts : fleets) {
    const std::unique_ptr<Fleet> fleet = MakeFleet(pattern, shard_counts);
    const std::map<uint64_t, WireOutcome> served =
        ServeThroughRouter(*fleet, requests);
    ASSERT_EQ(served.size(), requests.size())
        << shard_counts.size() << " backends";
    EXPECT_EQ(served, expected) << shard_counts.size() << " backends";
  }
}

// Placement is ShardFor(seed, num_backends), observable per backend in
// RouterStats: the router and a local recomputation must agree exactly,
// and a re-run must land every request on the same backend.
TEST(RouterTest, SeedRoutingIsStableAndMatchesShardFor) {
  const gen::GeneratedSchema pattern = MakePattern(33);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 60);
  std::vector<int64_t> expected_per_backend(3, 0);
  for (const runtime::FlowRequest& request : requests) {
    ++expected_per_backend[static_cast<size_t>(
        runtime::FlowServer::ShardFor(request.seed, 3))];
  }
  // The hash must actually spread this workload (not a degenerate split).
  for (const int64_t count : expected_per_backend) EXPECT_GT(count, 0);

  for (int run = 0; run < 2; ++run) {
    const std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {1, 1, 1});
    const std::map<uint64_t, WireOutcome> served =
        ServeThroughRouter(*fleet, requests);
    EXPECT_EQ(served.size(), requests.size());
    const RouterStats stats = fleet->router->router_stats();
    ASSERT_EQ(stats.backends.size(), 3u);
    for (size_t b = 0; b < 3; ++b) {
      EXPECT_EQ(stats.backends[b].forwarded, expected_per_backend[b])
          << "backend " << b << " run " << run;
      EXPECT_EQ(stats.backends[b].answered, expected_per_backend[b]);
    }
  }
}

TEST(RouterTest, InfoAggregatesTheFleet) {
  const gen::GeneratedSchema pattern = MakePattern(35);
  const std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {1, 3});
  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet->router->port(), &error))
      << error;
  const std::optional<ServerInfo> info = client.Info();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->router.is_router, 1);
  ASSERT_EQ(info->router.backends.size(), 2u);
  EXPECT_EQ(info->num_shards, 4);  // 1 + 3, summed over the fleet
  EXPECT_EQ(info->strategy, "PSE100");
  EXPECT_EQ(info->router.backends[0].node_id,
            "serve:" + std::to_string(fleet->backends[0]->port()));
  EXPECT_EQ(info->router.backends[0].connected, 1);
  EXPECT_EQ(info->router.backends[1].shards, 3);
  EXPECT_EQ(info->node_id,
            "router:" + std::to_string(fleet->router->port()));
  EXPECT_TRUE(client.Goodbye());
}

// A mismatched fleet (different strategies) must be refused at Start:
// routing by seed assumes any node serves the same bytes.
TEST(RouterTest, StartRefusesAHeterogeneousFleet) {
  gen::GeneratedSchema pattern = MakePattern(37);
  IngressServer pse(&pattern.schema, BackendOptions(1, "PSE100"),
                    IngressOptions{});
  IngressServer ncc(&pattern.schema, BackendOptions(1, "NCC0"),
                    IngressOptions{});
  std::string error;
  ASSERT_TRUE(pse.Start(&error)) << error;
  ASSERT_TRUE(ncc.Start(&error)) << error;
  RouterOptions options;
  options.backends = {BackendAddress{"127.0.0.1", pse.port()},
                      BackendAddress{"127.0.0.1", ncc.port()}};
  Router router(options);
  EXPECT_FALSE(router.Start(&error));
  EXPECT_NE(error.find("NCC0"), std::string::npos) << error;
  router.Stop();
  pse.Stop();
  ncc.Stop();
}

TEST(RouterTest, StartFailsWhenABackendIsUnreachable) {
  RouterOptions options;
  // Reserve a port, then close it so nothing listens there.
  uint16_t dead_port;
  {
    ListenSocket probe;
    std::string error;
    ASSERT_TRUE(probe.Listen(0, &error)) << error;
    dead_port = probe.port();
  }
  options.backends = {BackendAddress{"127.0.0.1", dead_port}};
  options.connect_timeout_s = 0.3;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 50;
  Router router(options);
  std::string error;
  EXPECT_FALSE(router.Start(&error));
  EXPECT_NE(error.find("unreachable"), std::string::npos) << error;
}

// The reconnect/backoff path: a backend dies mid-run (its seeds fail fast
// with BACKEND_UNAVAILABLE while the sibling keeps serving), then a new
// server takes over the same port and the router must re-attach and serve
// those seeds again — counting the reconnect.
TEST(RouterTest, BackendDownSurfacesUnavailableThenReconnects) {
  const gen::GeneratedSchema pattern = MakePattern(39);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 40);
  std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {1, 1});

  // One request routed to each backend.
  const runtime::FlowRequest* to_backend0 = nullptr;
  const runtime::FlowRequest* to_backend1 = nullptr;
  for (const runtime::FlowRequest& request : requests) {
    (runtime::FlowServer::ShardFor(request.seed, 2) == 0 ? to_backend0
                                                         : to_backend1) =
        &request;
  }
  ASSERT_NE(to_backend0, nullptr);
  ASSERT_NE(to_backend1, nullptr);

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet->router->port(), &error))
      << error;
  auto submit = [&](const runtime::FlowRequest& request,
                    uint64_t request_id) -> std::optional<ServerMessage> {
    SubmitRequest message;
    message.request_id = request_id;
    message.seed = request.seed;
    message.sources = request.sources;
    return client.Call(message);
  };

  // Healthy fleet: both seeds serve.
  std::optional<ServerMessage> reply = submit(*to_backend1, 1);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kSubmitResult);

  // Kill backend 1 (keep its port). Its seeds fail fast with the typed
  // error; backend 0's seeds are unaffected.
  const uint16_t backend1_port = fleet->backends[1]->port();
  fleet->backends[1]->Stop();
  bool saw_unavailable = false;
  for (int attempt = 0; attempt < 200 && !saw_unavailable; ++attempt) {
    reply = submit(*to_backend1, 100 + static_cast<uint64_t>(attempt));
    ASSERT_TRUE(reply.has_value());
    if (reply->type == MsgType::kError) {
      EXPECT_EQ(reply->error.code, WireError::kBackendUnavailable);
      EXPECT_EQ(reply->error.request_id, 100 + static_cast<uint64_t>(attempt));
      saw_unavailable = true;
    } else {
      // The router has not noticed the EOF yet; results already in flight
      // may still arrive. Brief pause, try again.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_unavailable);
  reply = submit(*to_backend0, 500);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kSubmitResult);

  // Resurrect a server on the same port; the router's backoff loop must
  // re-attach and serve backend-1 seeds again.
  IngressOptions revived_options;
  revived_options.port = backend1_port;
  auto revived = std::make_unique<IngressServer>(
      &pattern.schema, BackendOptions(1), revived_options);
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (revived->Start(&error)) break;
    // The old listener's port may take a moment to free.
    revived = std::make_unique<IngressServer>(&pattern.schema,
                                              BackendOptions(1),
                                              revived_options);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(revived->port() == backend1_port) << error;
  bool recovered = false;
  for (int attempt = 0; attempt < 500 && !recovered; ++attempt) {
    reply = submit(*to_backend1, 1000 + static_cast<uint64_t>(attempt));
    ASSERT_TRUE(reply.has_value());
    if (reply->type == MsgType::kSubmitResult) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(recovered);
  const RouterStats stats = fleet->router->router_stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  EXPECT_GE(stats.backends[1].reconnects, 1);
  EXPECT_GE(stats.backends[1].unavailable, 1);
  EXPECT_TRUE(client.Goodbye());
  fleet->router->Stop();
  revived->Stop();
}

// A well-framed submit that peeks (>= 20 bytes) but does not decode is
// forwarded, answered MALFORMED_FRAME by the backend, and relayed back
// with the client's correlation id restored — the backend peeks the id
// out of the undecodable payload precisely so the router's ticket does
// not leak. The goodbye ack proves the session drained to zero in-flight.
TEST(RouterTest, MalformedForwardedSubmitIsAnsweredAndDoesNotLeakTickets) {
  const gen::GeneratedSchema pattern = MakePattern(43);
  const std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {1, 1});
  std::string error;
  Socket raw = Socket::ConnectTcp("127.0.0.1", fleet->router->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;

  // request_id=77, seed=5, flags=blocking, then a truncated strategy
  // length: long enough for the router to route, undecodable downstream.
  std::vector<uint8_t> payload(21, 0);
  payload[0] = 77;
  payload[8] = 5;
  payload[16] = 1;
  payload[20] = 0xff;
  std::vector<uint8_t> stream;
  EncodeRawFrame(static_cast<uint8_t>(MsgType::kSubmit), payload, &stream);
  EncodeGoodbye(&stream);
  ASSERT_TRUE(raw.SendAll(stream.data(), stream.size()));

  FrameAssembler assembler;
  auto read_frame = [&]() -> std::optional<Frame> {
    uint8_t chunk[4096];
    while (true) {
      if (std::optional<Frame> frame = assembler.Next()) return frame;
      if (assembler.error() != WireError::kNone) return std::nullopt;
      const ssize_t n = raw.Recv(chunk, sizeof(chunk));
      if (n <= 0) return std::nullopt;
      assembler.Feed(chunk, static_cast<size_t>(n));
    }
  };
  std::optional<Frame> frame = read_frame();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, static_cast<uint8_t>(MsgType::kError));
  ErrorReply reply;
  ASSERT_TRUE(DecodeError(frame->payload, &reply));
  EXPECT_EQ(reply.code, WireError::kMalformedFrame);
  EXPECT_EQ(reply.request_id, 77u);
  // The ack only comes once the session's in-flight count hit zero.
  frame = read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MsgType::kGoodbyeAck));
}

// A submit too short even to peek a seed (but long enough to carry the
// correlation id) is answered by the router itself — with the id echoed,
// so the error stays attributable.
TEST(RouterTest, TooShortSubmitIsAnsweredAttributablyByTheRouter) {
  const gen::GeneratedSchema pattern = MakePattern(44);
  const std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {1});
  std::string error;
  Socket raw = Socket::ConnectTcp("127.0.0.1", fleet->router->port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  std::vector<uint8_t> payload(10, 0);  // request_id=55, then 2 stray bytes
  payload[0] = 55;
  std::vector<uint8_t> stream;
  EncodeRawFrame(static_cast<uint8_t>(MsgType::kSubmit), payload, &stream);
  ASSERT_TRUE(raw.SendAll(stream.data(), stream.size()));
  FrameAssembler assembler;
  uint8_t chunk[4096];
  std::optional<Frame> frame;
  while (!(frame = assembler.Next()).has_value()) {
    ASSERT_EQ(assembler.error(), WireError::kNone);
    const ssize_t n = raw.Recv(chunk, sizeof(chunk));
    ASSERT_GT(n, 0);
    assembler.Feed(chunk, static_cast<size_t>(n));
  }
  ASSERT_EQ(frame->type, static_cast<uint8_t>(MsgType::kError));
  ErrorReply reply;
  ASSERT_TRUE(DecodeError(frame->payload, &reply));
  EXPECT_EQ(reply.code, WireError::kMalformedFrame);
  EXPECT_EQ(reply.request_id, 55u);
}

// A backend restarted under a different strategy must be REFUSED at
// re-handshake (its seeds keep failing fast) — re-attaching it would
// silently serve different bytes. Restoring the right strategy recovers.
TEST(RouterTest, RestartedBackendWithDifferentStrategyIsRefused) {
  const gen::GeneratedSchema pattern = MakePattern(45);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 40);
  std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {1, 1});
  const runtime::FlowRequest* to_backend1 = nullptr;
  for (const runtime::FlowRequest& request : requests) {
    if (runtime::FlowServer::ShardFor(request.seed, 2) == 1) {
      to_backend1 = &request;
      break;
    }
  }
  ASSERT_NE(to_backend1, nullptr);

  const uint16_t backend1_port = fleet->backends[1]->port();
  fleet->backends[1]->Stop();

  IngressOptions takeover_options;
  takeover_options.port = backend1_port;
  auto start_on_port = [&](const char* strategy) {
    auto server = std::make_unique<IngressServer>(
        &pattern.schema, BackendOptions(1, strategy), takeover_options);
    std::string error;
    for (int attempt = 0; attempt < 100; ++attempt) {
      if (server->Start(&error)) return server;
      server = std::make_unique<IngressServer>(
          &pattern.schema, BackendOptions(1, strategy), takeover_options);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "cannot rebind " << backend1_port << ": " << error;
    return server;
  };
  std::unique_ptr<IngressServer> wrong = start_on_port("NCC0");

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet->router->port(), &error))
      << error;
  // Give the router many backoff cycles (10..100ms in test config) to
  // wrongly re-attach: every answer for this seed must stay the typed
  // unavailable error, never a result computed under NCC0.
  for (int attempt = 0; attempt < 40; ++attempt) {
    SubmitRequest submit;
    submit.request_id = static_cast<uint64_t>(attempt) + 1;
    submit.seed = to_backend1->seed;
    submit.sources = to_backend1->sources;
    const std::optional<ServerMessage> reply = client.Call(submit);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kError) << "attempt " << attempt;
    EXPECT_EQ(reply->error.code, WireError::kBackendUnavailable);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fleet->router->router_stats().backends[1].connected, 0);

  // Swap in a matching server: the router must re-attach and serve again.
  wrong->Stop();
  std::unique_ptr<IngressServer> right = start_on_port("PSE100");
  bool recovered = false;
  for (int attempt = 0; attempt < 500 && !recovered; ++attempt) {
    SubmitRequest submit;
    submit.request_id = 1000 + static_cast<uint64_t>(attempt);
    submit.seed = to_backend1->seed;
    submit.sources = to_backend1->sources;
    const std::optional<ServerMessage> reply = client.Call(submit);
    ASSERT_TRUE(reply.has_value());
    if (reply->type == MsgType::kSubmitResult) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_TRUE(client.Goodbye());
  fleet->router->Stop();
  wrong->Stop();
  right->Stop();
}

// Stop() with a burst still executing downstream: every request the
// router admitted (forwarded) is answered before the front door dies.
TEST(RouterTest, StopAnswersEveryAdmittedRequest) {
  const gen::GeneratedSchema pattern = MakePattern(41);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 30);
  // Bounded-DB backends execute slowly enough that the burst is still in
  // flight when Stop lands.
  auto fleet = std::make_unique<Fleet>();
  fleet->pattern = &pattern;
  RouterOptions router_options;
  for (int b = 0; b < 2; ++b) {
    runtime::FlowServerOptions options = BackendOptions(1);
    options.backend = core::BackendKind::kBoundedDb;
    auto backend = std::make_unique<IngressServer>(
        &pattern.schema, options, IngressOptions{});
    std::string error;
    ASSERT_TRUE(backend->Start(&error)) << error;
    router_options.backends.push_back(
        BackendAddress{"127.0.0.1", backend->port()});
    fleet->backends.push_back(std::move(backend));
  }
  fleet->router = std::make_unique<Router>(router_options);
  std::string error;
  ASSERT_TRUE(fleet->router->Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet->router->port(), &error))
      << error;
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.sources = requests[i].sources;
    ASSERT_TRUE(client.SendSubmit(submit));
  }
  // Admission (forwarding), not transmission, obligates an answer: wait
  // until the router's loop consumed the whole burst.
  for (int spin = 0; spin < 10000; ++spin) {
    if (fleet->router->front_stats().requests_accepted ==
        static_cast<int64_t>(requests.size())) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fleet->router->front_stats().requests_accepted,
            static_cast<int64_t>(requests.size()));

  // Read concurrently with Stop(): the drain flushes into this reader.
  std::thread reader([&] {
    size_t answered = 0;
    while (answered < requests.size()) {
      const std::optional<ServerMessage> message = client.ReadMessage();
      if (!message.has_value()) break;
      if (message->type == MsgType::kSubmitResult ||
          message->type == MsgType::kError) {
        ++answered;
      }
    }
    EXPECT_EQ(answered, requests.size());
  });
  fleet->router->Stop();
  reader.join();
  const runtime::IngressStats front = fleet->router->front_stats();
  EXPECT_EQ(front.requests_accepted, static_cast<int64_t>(requests.size()));
}

// --- Observability: the router is the fleet's trace entry point. With
// --trace-sample=1 on the router and NO tracing configured on the
// backends, every routed reply must still carry a full cross-node trace:
// the backend adopts the router-minted id via the forwarded v4 extension
// and the router appends its router.forward span to the relayed result.
TEST(RouterTest, RoutedTraceCoversRouterAndBackendStages) {
  const gen::GeneratedSchema pattern = MakePattern(43);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 24);
  const std::unique_ptr<Fleet> untraced_fleet = MakeFleet(pattern, {1, 2});
  const std::map<uint64_t, WireOutcome> untraced =
      ServeThroughRouter(*untraced_fleet, requests);
  ASSERT_EQ(untraced.size(), requests.size());

  RouterOptions router_options;
  router_options.trace.sample_period = 1;
  const std::unique_ptr<Fleet> fleet =
      MakeFleet(pattern, {1, 2}, router_options);
  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet->router->port(), &error))
      << error;
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.want_snapshot = true;
    submit.sources = requests[i].sources;
    ASSERT_TRUE(client.SendSubmit(submit));
  }
  std::map<uint64_t, WireOutcome> traced;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::optional<ServerMessage> message = client.ReadMessage();
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->type, MsgType::kSubmitResult);
    const SubmitResult& result = message->result;
    const size_t index = static_cast<size_t>(result.request_id) - 1;
    ASSERT_LT(index, requests.size());
    traced.emplace(requests[index].seed, FromWire(result));

    EXPECT_NE(result.trace_id, 0u);
    std::map<uint8_t, int> kinds;
    for (const WireSpan& span : result.spans) ++kinds[span.kind];
    // Backend stages, recorded under the router-minted id.
    EXPECT_EQ(kinds.count(
                  static_cast<uint8_t>(obs::SpanKind::kIngressQueue)), 1u);
    EXPECT_EQ(kinds.count(
                  static_cast<uint8_t>(obs::SpanKind::kShardQueueWait)), 1u);
    EXPECT_EQ(kinds.count(
                  static_cast<uint8_t>(obs::SpanKind::kCacheLookup)), 1u);
    EXPECT_EQ(kinds.count(
                  static_cast<uint8_t>(obs::SpanKind::kOutboxWrite)), 1u);
    // The router's own stage, appended to the relayed payload. Its start
    // travels as 0: cross-node monotonic clocks are not comparable.
    const auto forward = static_cast<uint8_t>(obs::SpanKind::kRouterForward);
    ASSERT_EQ(kinds.count(forward), 1u);
    for (const WireSpan& span : result.spans) {
      if (span.kind != forward) continue;
      EXPECT_EQ(span.start_ns, 0u);
      EXPECT_GT(span.duration_ns, 0u);
    }
  }

  // An upstream id supplied by the client is adopted by the whole chain.
  SubmitRequest flagged;
  flagged.request_id = requests.size() + 1;
  flagged.seed = requests[0].seed;
  flagged.sources = requests[0].sources;
  flagged.has_trace = true;
  flagged.trace_id = 0xfeedface;
  const std::optional<ServerMessage> reply = client.Call(flagged);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kSubmitResult);
  EXPECT_EQ(reply->result.trace_id, 0xfeedfaceu);
  EXPECT_TRUE(client.Goodbye());

  // Tracing does not perturb routed bytes.
  EXPECT_EQ(traced, untraced);
  EXPECT_EQ(fleet->router->recorder().finished(),
            static_cast<int64_t>(requests.size()) + 1);
}

// The router front door accounts its outboxes and serves its registry as
// the metrics section of the same STATS frame the backends answer.
TEST(RouterTest, FrontStatsAndMetricsScrapeExposeTheRoutingTier) {
  const gen::GeneratedSchema pattern = MakePattern(47);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 20);
  const std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {2, 1});
  const std::map<uint64_t, WireOutcome> served =
      ServeThroughRouter(*fleet, requests);
  ASSERT_EQ(served.size(), requests.size());

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet->router->port(), &error))
      << error;
  const std::optional<StatsInfo> stats = client.Stats(kStatsMetrics);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->self.is_router, 1);
  ASSERT_EQ(stats->backends.size(), 2u);
  for (const NodeStats& backend : stats->backends) {
    EXPECT_NE(backend.metrics.find("dflow_completed_total"),
              std::string::npos);
  }
  const std::string* text = &stats->self.metrics;
  for (const char* needle :
       {"# TYPE dflow_requests_routed_total counter",
        "dflow_requests_routed_total 20", "dflow_relayed_results_total 20",
        "# TYPE dflow_backend_forwarded_total counter",
        "dflow_backend_connected{backend=", "dflow_wall_latency_us_count 20"}) {
    EXPECT_NE(text->find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n"
        << *text;
  }
  // Per-backend forwarded counters carry address labels and sum to the
  // routed total.
  EXPECT_TRUE(client.Goodbye());
  fleet->router->Stop();

  const runtime::IngressStats front = fleet->router->front_stats();
  EXPECT_GT(front.outbox_bytes_written, 0);
  EXPECT_GE(front.outbox_inflight_hwm, 1);
  EXPECT_EQ(front.outbox_bytes_written, front.bytes_out);
  // Exactly-once folding of closed sessions: a second read is identical.
  const runtime::IngressStats again = fleet->router->front_stats();
  EXPECT_EQ(again.outbox_bytes_written, front.outbox_bytes_written);
  EXPECT_EQ(again.outbox_inflight_hwm, front.outbox_inflight_hwm);
}

// --- The replicated fleet -------------------------------------------------

// A byte-pumping TCP proxy in front of one backend that can die abruptly:
// Kill() hard-shuts every proxied connection mid-stream, which is exactly
// what a kill -9'd backend looks like to the router (no goodbye, no
// drain). StallResponses() additionally swallows backend->router bytes, so
// a test can pin a whole burst in the in-flight state before the kill, and
// StallRequests() stops reading router->backend bytes, so the router's
// socket to the backend fills as if the backend stopped reading.
class TcpProxy {
 public:
  TcpProxy(std::string target_host, uint16_t target_port)
      : target_host_(std::move(target_host)), target_port_(target_port) {}
  ~TcpProxy() { Kill(); }

  bool Start(std::string* error) {
    if (!listener_.Listen(0, error)) return false;
    acceptor_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  uint16_t port() const { return listener_.port(); }

  // From now on, bytes flowing backend -> router are dropped (the
  // connection stays up, answers just never arrive). Only meaningful on a
  // proxy that is about to be killed.
  void StallResponses() { stall_responses_ = true; }

  // While held, backend -> router bytes are buffered instead of relayed.
  // After ReleaseResponses() the buffer goes out just ahead of the next
  // bytes the backend sends: late answers arrive right before fresh ones.
  void HoldResponses() { hold_responses_ = true; }
  void ReleaseResponses() { hold_responses_ = false; }

  // While held, router -> backend bytes are left unread: the kernel
  // buffers fill and TCP stalls the router's sends, exactly like a backend
  // with a full window. ReleaseRequests() resumes pumping.
  void StallRequests() { stall_requests_ = true; }
  void ReleaseRequests() { stall_requests_ = false; }

  // Abrupt death. Idempotent.
  void Kill() {
    killed_ = true;
    listener_.Shutdown();
    std::vector<std::thread> pumps;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const std::shared_ptr<Pair>& pair : pairs_) {
        pair->client.ShutdownBoth();
        pair->upstream.ShutdownBoth();
      }
      pumps.swap(pumps_);
    }
    if (acceptor_.joinable()) acceptor_.join();
    for (std::thread& pump : pumps) pump.join();
  }

 private:
  struct Pair {
    Socket client;
    Socket upstream;
  };

  void AcceptLoop() {
    while (true) {
      Socket client = listener_.Accept();
      if (!client.valid()) return;
      std::string error;
      Socket upstream =
          Socket::ConnectTcp(target_host_, target_port_, &error);
      if (!upstream.valid()) continue;  // backend gone; drop this client
      auto pair = std::make_shared<Pair>();
      pair->client = std::move(client);
      pair->upstream = std::move(upstream);
      std::lock_guard<std::mutex> lock(mu_);
      if (killed_) return;
      pairs_.push_back(pair);
      pumps_.emplace_back([this, pair] {
        PumpLoop(&pair->client, &pair->upstream, /*is_response=*/false);
      });
      pumps_.emplace_back([this, pair] {
        PumpLoop(&pair->upstream, &pair->client, /*is_response=*/true);
      });
    }
  }

  void PumpLoop(Socket* from, Socket* to, bool is_response) {
    uint8_t buffer[4096];
    while (true) {
      while (!is_response && stall_requests_ && !killed_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const ssize_t n = from->Recv(buffer, sizeof(buffer));
      if (n <= 0) break;
      if (is_response && stall_responses_) continue;  // swallow
      if (is_response && hold_responses_) {
        held_.insert(held_.end(), buffer, buffer + n);
        continue;
      }
      if (is_response && !held_.empty()) {
        if (!to->SendAll(held_.data(), held_.size())) break;
        held_.clear();
      }
      if (!to->SendAll(buffer, static_cast<size_t>(n))) break;
    }
    to->ShutdownWrite();
  }

  const std::string target_host_;
  const uint16_t target_port_;
  ListenSocket listener_;
  std::thread acceptor_;
  std::atomic<bool> killed_{false};
  std::atomic<bool> stall_responses_{false};
  std::atomic<bool> hold_responses_{false};
  std::atomic<bool> stall_requests_{false};
  std::vector<uint8_t> held_;  // response pump only (one proxied pair)
  std::mutex mu_;
  std::vector<std::shared_ptr<Pair>> pairs_;
  std::vector<std::thread> pumps_;
};

// A replicated fleet serves the exact bytes of direct in-process
// execution, slot/replica placement is observable in RouterStats, and the
// sampled divergence cross-check stays clean on a healthy homogeneous
// fleet.
TEST(RouterTest, ReplicatedFleetServesIdenticalBytesWithCleanDivergence) {
  const gen::GeneratedSchema pattern = MakePattern(51);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 45);

  runtime::FlowServerOptions options = BackendOptions(2);
  runtime::FlowServer reference(&pattern.schema, options);
  std::mutex mu;
  std::map<uint64_t, WireOutcome> expected;
  reference.SetResultCallback([&](int, const runtime::FlowRequest& request,
                                  const core::InstanceResult& result,
                                  const core::Strategy&) {
    std::lock_guard<std::mutex> lock(mu);
    expected.emplace(request.seed, FromInstanceResult(result));
  });
  for (const runtime::FlowRequest& request : requests) {
    ASSERT_TRUE(reference.Submit(request));
  }
  reference.Drain();
  ASSERT_EQ(expected.size(), requests.size());

  // Four backends, two replicas -> two slots. Shard counts deliberately
  // differ ACROSS slots and WITHIN a slot: replica byte-identity must not
  // depend on internal sharding.
  RouterOptions router_options;
  router_options.replicas = 2;
  router_options.divergence_sample_period = 2;
  const std::unique_ptr<Fleet> fleet =
      MakeFleet(pattern, {1, 2, 3, 1}, router_options);
  const std::map<uint64_t, WireOutcome> served =
      ServeThroughRouter(*fleet, requests);
  ASSERT_EQ(served.size(), requests.size());
  EXPECT_EQ(served, expected);

  const RouterStats stats = fleet->router->router_stats();
  EXPECT_EQ(stats.replicas, 2);
  ASSERT_EQ(stats.backends.size(), 4u);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(stats.backends[b].slot, static_cast<int32_t>(b) / 2);
    EXPECT_EQ(stats.backends[b].replica, static_cast<int32_t>(b) % 2);
  }
  // Healthy fleet: checks ran, none diverged, nothing failed over.
  EXPECT_GT(stats.divergence_checks, 0);
  EXPECT_EQ(stats.divergence_mismatches, 0);
  EXPECT_EQ(stats.failovers, 0);
  // Only slot primaries serve client traffic; shadows are the only load
  // on replica 1 of each slot.
  EXPECT_EQ(stats.backends[0].forwarded + stats.backends[2].forwarded,
            static_cast<int64_t>(requests.size()));
}

// The headline failover contract: a replica dies abruptly (hard RST, no
// drain) with a whole burst un-answered, and every request is still
// answered with bytes identical to direct execution — the client never
// sees an error frame.
TEST(RouterTest, AbruptPrimaryDeathReissuesInflightBurstWithoutErrors) {
  const gen::GeneratedSchema pattern = MakePattern(53);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 30);

  runtime::FlowServerOptions backend_options = BackendOptions(1);
  runtime::FlowServer reference(&pattern.schema, backend_options);
  std::mutex mu;
  std::map<uint64_t, WireOutcome> expected;
  reference.SetResultCallback([&](int, const runtime::FlowRequest& request,
                                  const core::InstanceResult& result,
                                  const core::Strategy&) {
    std::lock_guard<std::mutex> lock(mu);
    expected.emplace(request.seed, FromInstanceResult(result));
  });
  for (const runtime::FlowRequest& request : requests) {
    ASSERT_TRUE(reference.Submit(request));
  }
  reference.Drain();

  // One slot of two replicas; the primary sits behind the kill-able proxy.
  Fleet fleet;
  fleet.pattern = &pattern;
  for (int b = 0; b < 2; ++b) {
    auto backend = std::make_unique<IngressServer>(
        &pattern.schema, backend_options, IngressOptions{});
    std::string error;
    ASSERT_TRUE(backend->Start(&error)) << error;
    fleet.backends.push_back(std::move(backend));
  }
  TcpProxy proxy("127.0.0.1", fleet.backends[0]->port());
  std::string error;
  ASSERT_TRUE(proxy.Start(&error)) << error;
  RouterOptions router_options;
  router_options.replicas = 2;
  router_options.backoff_initial_ms = 10;
  router_options.backoff_max_ms = 100;
  router_options.backends = {
      BackendAddress{"127.0.0.1", proxy.port()},
      BackendAddress{"127.0.0.1", fleet.backends[1]->port()}};
  fleet.router = std::make_unique<Router>(router_options);
  ASSERT_TRUE(fleet.router->Start(&error)) << error;

  // From here on the primary's answers are swallowed: the burst below is
  // guaranteed to be fully in flight when the proxy dies.
  proxy.StallResponses();

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet.router->port(), &error))
      << error;
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.want_snapshot = true;
    submit.sources = requests[i].sources;
    ASSERT_TRUE(client.SendSubmit(submit));
  }
  // Wait until the router forwarded the whole burst to the (stalled)
  // primary, then kill it mid-flight.
  for (int spin = 0; spin < 10000; ++spin) {
    if (fleet.router->front_stats().requests_accepted ==
        static_cast<int64_t>(requests.size())) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fleet.router->front_stats().requests_accepted,
            static_cast<int64_t>(requests.size()));
  proxy.Kill();

  std::map<uint64_t, WireOutcome> served;
  int error_frames = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::optional<ServerMessage> message = client.ReadMessage();
    ASSERT_TRUE(message.has_value()) << "reply " << i << " never arrived";
    if (message->type != MsgType::kSubmitResult) {
      ++error_frames;
      continue;
    }
    const size_t index = static_cast<size_t>(message->result.request_id) - 1;
    ASSERT_LT(index, requests.size());
    served.emplace(requests[index].seed, FromWire(message->result));
  }
  EXPECT_EQ(error_frames, 0);
  ASSERT_EQ(served.size(), requests.size());
  EXPECT_EQ(served, expected);

  const RouterStats stats = fleet.router->router_stats();
  EXPECT_GE(stats.failovers, 1);
  ASSERT_EQ(stats.backends.size(), 2u);
  EXPECT_GE(stats.backends[0].failovers, 1);
  // PR 8: the journal tells the same story as the counters — the abrupt
  // death was recorded and so was the failover sweep that re-issued the
  // orphaned burst.
  EXPECT_GE(fleet.router->journal().CountFor(obs::EventKind::kBackendDeath),
            1);
  EXPECT_GE(fleet.router->journal().CountFor(obs::EventKind::kFailover), 1);
  bool failover_in_tail = false;
  for (const obs::Event& event : fleet.router->journal().Tail(64)) {
    if (event.kind == obs::EventKind::kFailover &&
        event.detail.find("tickets=") != std::string::npos) {
      failover_in_tail = true;
    }
  }
  EXPECT_TRUE(failover_in_tail);
  EXPECT_TRUE(client.Goodbye());
}

// PR 8 end to end over the wire: a live health collector on the router, a
// backend that dies and comes back, and a Client::Stats() poller seeing
// the status walk ok -> (not ok) -> ok with the death and reconnect in the
// shipped journal tail — exactly what dflow_top and the CI chaos stage
// consume.
TEST(RouterTest, HealthPlaneTracksBackendDeathAndRecoveryOverTheWire) {
  const gen::GeneratedSchema pattern = MakePattern(59);
  RouterOptions router_options;
  router_options.health.interval_s = 0.02;  // 50x test-speed cadence
  router_options.health.sustain_samples = 2;
  std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {1, 1}, router_options);

  Client client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet->router->port(), &error))
      << error;

  // Healthy fleet: the router's health section covers itself plus both
  // backends, all ok, and the collector is actually sampling.
  std::optional<StatsInfo> health;
  for (int attempt = 0; attempt < 500; ++attempt) {
    health = client.Stats(kStatsHealth);
    ASSERT_TRUE(health.has_value());
    if (!health->self.health.series.empty() &&
        health->self.health.status ==
            static_cast<uint8_t>(obs::HealthStatus::kOk)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->self.is_router, 1);
  EXPECT_EQ(health->self.health.status,
            static_cast<uint8_t>(obs::HealthStatus::kOk));
  ASSERT_EQ(health->backends.size(), 2u);
  for (const NodeStats& backend : health->backends) {
    EXPECT_EQ(backend.is_router, 0);
    EXPECT_EQ(backend.health.status,
              static_cast<uint8_t>(obs::HealthStatus::kOk));
  }

  // Kill backend 1. Its slot has no other replica, so the router's own
  // plane must leave ok (the dead-slot rule makes it critical) and the
  // dead backend's entry must be synthesized as critical.
  const uint16_t backend1_port = fleet->backends[1]->port();
  fleet->backends[1]->Stop();
  bool saw_not_ok = false;
  for (int attempt = 0; attempt < 500 && !saw_not_ok; ++attempt) {
    health = client.Stats(kStatsHealth);
    ASSERT_TRUE(health.has_value());
    if (health->self.health.status !=
        static_cast<uint8_t>(obs::HealthStatus::kOk)) {
      saw_not_ok = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(saw_not_ok);
  ASSERT_EQ(health->backends.size(), 2u);
  EXPECT_EQ(health->backends[1].health.status,
            static_cast<uint8_t>(obs::HealthStatus::kCritical));
  // The journal tail shipped in the frame carries the death.
  bool death_in_tail = false;
  for (const WireEvent& event : health->self.health.events) {
    if (event.kind == static_cast<uint8_t>(obs::EventKind::kBackendDeath)) {
      death_in_tail = true;
    }
  }
  EXPECT_TRUE(death_in_tail);
  EXPECT_GE(fleet->router->journal().CountFor(obs::EventKind::kBackendDeath),
            1);

  // Resurrect on the same port: reconnect, then the sustained-clean rule
  // walks the status back to ok — the degraded->ok transition CI gates on.
  IngressOptions revived_options;
  revived_options.port = backend1_port;
  auto revived = std::make_unique<IngressServer>(
      &pattern.schema, BackendOptions(1), revived_options);
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (revived->Start(&error)) break;
    revived = std::make_unique<IngressServer>(&pattern.schema,
                                              BackendOptions(1),
                                              revived_options);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(revived->port(), backend1_port) << error;
  bool recovered = false;
  for (int attempt = 0; attempt < 1000 && !recovered; ++attempt) {
    health = client.Stats(kStatsHealth);
    ASSERT_TRUE(health.has_value());
    if (health->self.health.status ==
        static_cast<uint8_t>(obs::HealthStatus::kOk)) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(
      fleet->router->journal().CountFor(obs::EventKind::kBackendReconnect),
      1);
  // Two transitions at least: away from ok at the death, back to ok after
  // the sustained clean streak.
  EXPECT_GE(
      fleet->router->journal().CountFor(obs::EventKind::kHealthTransition),
      2);
  EXPECT_TRUE(client.Goodbye());
  fleet->router->Stop();
  revived->Stop();
}

// A fleet STATS poll never parks the router's loop thread. Two of three
// backends sit behind proxies that swallow every answer; on a router with
// ONE loop thread the poll still replies at its single deadline (not one
// timeout per silent backend, one after another) with both silent members
// synthesized, and an INFO on a second connection is answered while the
// poll is pending.
TEST(RouterTest, StatsPollFansOutWithoutBlockingTheLoop) {
  const gen::GeneratedSchema pattern = MakePattern(61);
  Fleet fleet;
  fleet.pattern = &pattern;
  for (int b = 0; b < 3; ++b) {
    auto backend = std::make_unique<IngressServer>(
        &pattern.schema, BackendOptions(1), IngressOptions{});
    std::string error;
    ASSERT_TRUE(backend->Start(&error)) << error;
    fleet.backends.push_back(std::move(backend));
  }
  // Declared after the fleet, so they die first: the router then stops
  // over dead backend connections instead of silent live ones.
  TcpProxy silent_a("127.0.0.1", fleet.backends[0]->port());
  TcpProxy silent_b("127.0.0.1", fleet.backends[1]->port());
  std::string error;
  ASSERT_TRUE(silent_a.Start(&error)) << error;
  ASSERT_TRUE(silent_b.Start(&error)) << error;
  RouterOptions router_options;
  router_options.event_threads = 1;
  router_options.backends = {
      BackendAddress{"127.0.0.1", silent_a.port()},
      BackendAddress{"127.0.0.1", silent_b.port()},
      BackendAddress{"127.0.0.1", fleet.backends[2]->port()}};
  fleet.router = std::make_unique<Router>(router_options);
  ASSERT_TRUE(fleet.router->Start(&error)) << error;
  silent_a.StallResponses();
  silent_b.StallResponses();

  Client poller;
  Client prober;
  ASSERT_TRUE(poller.Connect("127.0.0.1", fleet.router->port(), &error))
      << error;
  ASSERT_TRUE(prober.Connect("127.0.0.1", fleet.router->port(), &error))
      << error;
  using Clock = std::chrono::steady_clock;
  std::optional<StatsInfo> stats;
  Clock::duration poll_time{};
  std::atomic<bool> poll_done{false};
  std::thread poll_thread([&] {
    const Clock::time_point start = Clock::now();
    stats = poller.Stats(kStatsHealth | kStatsProfile);
    poll_time = Clock::now() - start;
    poll_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const Clock::time_point info_start = Clock::now();
  const std::optional<ServerInfo> info = prober.Info();
  const Clock::duration info_time = Clock::now() - info_start;
  const bool answered_during_poll = !poll_done;
  poll_thread.join();

  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(answered_during_poll);
  EXPECT_LT(info_time, std::chrono::milliseconds(100));
  ASSERT_TRUE(stats.has_value());
  EXPECT_LT(poll_time, std::chrono::milliseconds(1500));
  EXPECT_EQ(stats->sections, kStatsHealth | kStatsProfile);
  EXPECT_EQ(stats->self.is_router, 1);
  ASSERT_EQ(stats->backends.size(), 3u);
  for (size_t b = 0; b < 3; ++b) {
    const NodeStats& node = stats->backends[b];
    EXPECT_EQ(node.node_id,
              "serve:" + std::to_string(fleet.backends[b]->port()));
    EXPECT_EQ(node.is_router, 0);
  }
  // The silent pair: synthesized critical health, identity-only profile.
  for (size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(stats->backends[b].health.status,
              static_cast<uint8_t>(obs::HealthStatus::kCritical));
    EXPECT_EQ(stats->backends[b].profile, NodeProfile{});
  }
  // The healthy backend's entry is its own answer.
  const NodeStats& live = stats->backends[2];
  EXPECT_EQ(live.health.status, static_cast<uint8_t>(obs::HealthStatus::kOk));
  EXPECT_NE(live.profile.plan_dot.find("digraph"), std::string::npos);
  EXPECT_TRUE(poller.Goodbye());
  EXPECT_TRUE(prober.Goodbye());
}

// A STATS answer that misses its poll's deadline never fills a later
// poll. The backend's answer to poll 1 is held past the deadline and
// reaches the router just ahead of its answer to poll 2; poll 2 must report
// the backend's fresh counters, not the stale ones.
TEST(RouterTest, LateStatsAnswerNeverFillsTheNextPoll) {
  const gen::GeneratedSchema pattern = MakePattern(63);
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 3);
  Fleet fleet;
  fleet.pattern = &pattern;
  fleet.backends.push_back(std::make_unique<IngressServer>(
      &pattern.schema, BackendOptions(1), IngressOptions{}));
  std::string error;
  ASSERT_TRUE(fleet.backends[0]->Start(&error)) << error;
  TcpProxy proxy("127.0.0.1", fleet.backends[0]->port());
  ASSERT_TRUE(proxy.Start(&error)) << error;
  RouterOptions router_options;
  router_options.backends = {BackendAddress{"127.0.0.1", proxy.port()}};
  fleet.router = std::make_unique<Router>(router_options);
  ASSERT_TRUE(fleet.router->Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet.router->port(), &error))
      << error;
  proxy.HoldResponses();
  const std::optional<StatsInfo> first = client.Stats(kStatsHealth);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->backends.size(), 1u);
  EXPECT_EQ(first->backends[0].health.status,
            static_cast<uint8_t>(obs::HealthStatus::kCritical));

  // Move the backend's counters past what the held answer reports.
  Client direct;
  ASSERT_TRUE(direct.Connect("127.0.0.1", fleet.backends[0]->port(), &error))
      << error;
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.sources = requests[i].sources;
    const std::optional<ServerMessage> reply = direct.Call(submit);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kSubmitResult);
  }
  EXPECT_TRUE(direct.Goodbye());
  const auto served = static_cast<int64_t>(requests.size());
  for (int spin = 0; spin < 10000 &&
                     fleet.backends[0]->flow_server().total_processed() <
                         served;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  proxy.ReleaseResponses();
  const std::optional<StatsInfo> second = client.Stats(kStatsHealth);
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->backends.size(), 1u);
  EXPECT_EQ(second->backends[0].health.status,
            static_cast<uint8_t>(obs::HealthStatus::kOk));
  EXPECT_EQ(second->backends[0].health.completed, served);
  EXPECT_TRUE(client.Goodbye());
}

// One wire version at both front doors (ingress and router): the retired
// scrape type bytes (the old METRICS, HEALTH and PROFILE pairs) are
// answered UNSUPPORTED_TYPE like any unknown type on a connection that
// stays usable, and a frame stamped kWireVersion - 1 gets the final
// UNSUPPORTED_VERSION error before the connection closes.
TEST(RouterTest, BothFrontDoorsSpeakExactlyOneWireVersion) {
  const gen::GeneratedSchema pattern = MakePattern(67);
  const std::unique_ptr<Fleet> fleet = MakeFleet(pattern, {1});
  for (const uint16_t port :
       {fleet->backends[0]->port(), fleet->router->port()}) {
    SCOPED_TRACE("port " + std::to_string(port));
    std::string error;
    Socket raw = Socket::ConnectTcp("127.0.0.1", port, &error);
    ASSERT_TRUE(raw.valid()) << error;
    raw.SetRecvTimeout(5000);
    FrameAssembler assembler;
    const auto read_frame = [&]() -> std::optional<Frame> {
      uint8_t chunk[4096];
      while (true) {
        if (std::optional<Frame> frame = assembler.Next()) return frame;
        const ssize_t n = raw.Recv(chunk, sizeof(chunk));
        if (n <= 0) return std::nullopt;
        assembler.Feed(chunk, static_cast<size_t>(n));
      }
    };
    const auto send_and_read_error =
        [&](const std::vector<uint8_t>& frame) -> WireError {
      EXPECT_TRUE(raw.SendAll(frame.data(), frame.size()));
      const std::optional<Frame> reply = read_frame();
      ErrorReply decoded;
      if (!reply.has_value() ||
          reply->type != static_cast<uint8_t>(MsgType::kError) ||
          !DecodeError(reply->payload, &decoded)) {
        return WireError::kNone;
      }
      return decoded.code;
    };
    for (const uint8_t retired : {8, 9, 10, 11, 13, 14}) {
      std::vector<uint8_t> frame;
      EncodeRawFrame(retired, {}, &frame);
      EXPECT_EQ(send_and_read_error(frame), WireError::kUnsupportedType)
          << "type " << int{retired};
    }
    std::vector<uint8_t> info;
    EncodeInfoRequest(&info);
    ASSERT_TRUE(raw.SendAll(info.data(), info.size()));
    const std::optional<Frame> info_reply = read_frame();
    ASSERT_TRUE(info_reply.has_value());
    EXPECT_EQ(info_reply->type, static_cast<uint8_t>(MsgType::kInfo));

    info[2] = kWireVersion - 1;
    EXPECT_EQ(send_and_read_error(info), WireError::kUnsupportedVersion);
    uint8_t byte;
    EXPECT_EQ(raw.Recv(&byte, 1), 0);  // orderly close
  }
}

// A mis-seeded replica — same schema, same strategy, but configured so it
// computes different bytes — must be caught by the sampled cross-check,
// not trusted silently.
TEST(RouterTest, MisconfiguredReplicaTripsTheDivergenceCheck) {
  const gen::GeneratedSchema pattern = MakePattern(55);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 12);

  Fleet fleet;
  fleet.pattern = &pattern;
  for (int b = 0; b < 2; ++b) {
    runtime::FlowServerOptions options = BackendOptions(1);
    options.backend = core::BackendKind::kBoundedDb;
    // Replica 1's database "hardware" is twice as slow: response times —
    // and therefore result fingerprints — differ from the primary's for
    // the same seeds. Handshake identity (pattern, strategy, epoch) is
    // identical, so only the cross-check can see it.
    if (b == 1) options.db.unit_cpu_ms = 2.0;
    auto backend = std::make_unique<IngressServer>(
        &pattern.schema, options, IngressOptions{});
    std::string error;
    ASSERT_TRUE(backend->Start(&error)) << error;
    fleet.backends.push_back(std::move(backend));
  }
  RouterOptions router_options;
  router_options.replicas = 2;
  router_options.divergence_sample_period = 1;  // cross-check everything
  router_options.backoff_initial_ms = 10;
  router_options.backoff_max_ms = 100;
  for (const std::unique_ptr<IngressServer>& backend : fleet.backends) {
    router_options.backends.push_back(
        BackendAddress{"127.0.0.1", backend->port()});
  }
  fleet.router = std::make_unique<Router>(router_options);
  std::string error;
  ASSERT_TRUE(fleet.router->Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fleet.router->port(), &error))
      << error;
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.sources = requests[i].sources;
    const std::optional<ServerMessage> reply = client.Call(submit);
    ASSERT_TRUE(reply.has_value());
    // The client always gets the primary's answer; detection is async.
    EXPECT_EQ(reply->type, MsgType::kSubmitResult);
  }
  // Shadow answers race the primary's; poll for the verdict.
  RouterStats stats;
  for (int spin = 0; spin < 5000; ++spin) {
    stats = fleet.router->router_stats();
    if (stats.divergence_mismatches > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(stats.divergence_checks, 0);
  EXPECT_GT(stats.divergence_mismatches, 0);
  EXPECT_TRUE(client.Goodbye());
}

// Mixed fleet epochs are a deploy bug (half-upgraded replica set); the
// router must refuse to start rather than risk serving from replicas that
// disagree.
TEST(RouterTest, StartRefusesMixedFleetEpochs) {
  const gen::GeneratedSchema pattern = MakePattern(57);
  IngressOptions epoch7;
  epoch7.fleet_epoch = 7;
  IngressOptions epoch8;
  epoch8.fleet_epoch = 8;
  IngressServer old_gen(&pattern.schema, BackendOptions(1), epoch7);
  IngressServer new_gen(&pattern.schema, BackendOptions(1), epoch8);
  std::string error;
  ASSERT_TRUE(old_gen.Start(&error)) << error;
  ASSERT_TRUE(new_gen.Start(&error)) << error;
  RouterOptions options;
  options.replicas = 2;
  options.backends = {BackendAddress{"127.0.0.1", old_gen.port()},
                      BackendAddress{"127.0.0.1", new_gen.port()}};
  Router router(options);
  EXPECT_FALSE(router.Start(&error));
  EXPECT_NE(error.find("fleet epoch"), std::string::npos) << error;
  router.Stop();
  old_gen.Stop();
  new_gen.Stop();
}

// A backend count that does not divide into whole replica groups is a
// configuration error, caught before any connection is attempted.
TEST(RouterTest, StartRefusesRaggedReplicaGroups) {
  const gen::GeneratedSchema pattern = MakePattern(58);
  IngressServer backend(&pattern.schema, BackendOptions(1), IngressOptions{});
  std::string error;
  ASSERT_TRUE(backend.Start(&error)) << error;
  RouterOptions options;
  options.replicas = 2;
  options.backends = {BackendAddress{"127.0.0.1", backend.port()}};
  Router router(options);
  EXPECT_FALSE(router.Start(&error));
  EXPECT_NE(error.find("replicas"), std::string::npos) << error;
  router.Stop();
  backend.Stop();
}

// A backend with a full TCP window stalls only the conns routed to it.
// Backend 0 stops reading (the proxy leaves router->backend bytes unread);
// on a router with ONE front loop thread, client A floods seeds hashing to
// backend 0 until the router stops reading A. Client B's INFO and a submit
// hashing to backend 1 must still be answered promptly, and once backend 0
// reads again every one of A's requests is answered exactly once with the
// bytes of direct execution.
TEST(RouterTest, FullBackendWindowStallsOnlyTheConnsRoutedToIt) {
  const gen::GeneratedSchema pattern = MakePattern(71);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 64);
  std::vector<const runtime::FlowRequest*> to_backend0;
  const runtime::FlowRequest* to_backend1 = nullptr;
  for (const runtime::FlowRequest& request : requests) {
    if (runtime::FlowServer::ShardFor(request.seed, 2) == 0) {
      to_backend0.push_back(&request);
    } else {
      to_backend1 = &request;
    }
  }
  ASSERT_FALSE(to_backend0.empty());
  ASSERT_NE(to_backend1, nullptr);

  runtime::FlowServer reference(&pattern.schema, BackendOptions(1));
  std::mutex mu;
  std::map<uint64_t, WireOutcome> expected;
  reference.SetResultCallback([&](int, const runtime::FlowRequest& request,
                                  const core::InstanceResult& result,
                                  const core::Strategy&) {
    std::lock_guard<std::mutex> lock(mu);
    expected.emplace(request.seed, FromInstanceResult(result));
  });
  for (const runtime::FlowRequest& request : requests) {
    ASSERT_TRUE(reference.Submit(request));
  }
  reference.Drain();

  Fleet fleet;
  fleet.pattern = &pattern;
  for (int b = 0; b < 2; ++b) {
    // The flood repeats a few seeds; the cache keeps the catch-up short.
    runtime::FlowServerOptions options = BackendOptions(1);
    options.result_cache_capacity = 64;
    fleet.backends.push_back(std::make_unique<IngressServer>(
        &pattern.schema, options, IngressOptions{}));
    std::string error;
    ASSERT_TRUE(fleet.backends.back()->Start(&error)) << error;
  }
  TcpProxy proxy("127.0.0.1", fleet.backends[0]->port());
  std::string error;
  ASSERT_TRUE(proxy.Start(&error)) << error;
  RouterOptions router_options;
  router_options.event_threads = 1;
  router_options.backends = {
      BackendAddress{"127.0.0.1", proxy.port()},
      BackendAddress{"127.0.0.1", fleet.backends[1]->port()}};
  fleet.router = std::make_unique<Router>(router_options);
  ASSERT_TRUE(fleet.router->Start(&error)) << error;
  proxy.StallRequests();

  Client flooder;
  ASSERT_TRUE(flooder.Connect("127.0.0.1", fleet.router->port(), &error))
      << error;
  std::atomic<bool> stop_flood{false};
  std::atomic<uint64_t> sent{0};
  std::thread flood([&] {
    for (uint64_t i = 0; !stop_flood.load(); ++i) {
      const runtime::FlowRequest& request =
          *to_backend0[i % to_backend0.size()];
      SubmitRequest submit;
      submit.request_id = i + 1;
      submit.seed = request.seed;
      submit.want_snapshot = true;
      submit.sources = request.sources;
      if (!flooder.SendSubmit(submit)) break;
      sent.store(i + 1);
    }
  });
  // The router stopped reading A once its admission count stops moving
  // while A keeps sending.
  using Clock = std::chrono::steady_clock;
  bool stalled = false;
  int64_t last_accepted = -1;
  Clock::time_point last_change = Clock::now();
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < give_up) {
    const int64_t accepted = fleet.router->front_stats().requests_accepted;
    if (accepted != last_accepted) {
      last_accepted = accepted;
      last_change = Clock::now();
    } else if (accepted > 0 &&
               Clock::now() - last_change > std::chrono::milliseconds(300)) {
      stalled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(stalled);

  // B's reads are bounded, so a router whose loop is parked fails here
  // instead of hanging.
  Client prober;
  ASSERT_TRUE(prober.Connect("127.0.0.1", fleet.router->port(), &error))
      << error;
  prober.SetRecvTimeout(2000);
  const Clock::time_point info_start = Clock::now();
  const std::optional<ServerInfo> info = prober.Info();
  const Clock::duration info_time = Clock::now() - info_start;
  EXPECT_TRUE(info.has_value());
  EXPECT_LT(info_time, std::chrono::milliseconds(100));
  SubmitRequest healthy;
  healthy.request_id = 7;
  healthy.seed = to_backend1->seed;
  healthy.want_snapshot = true;
  healthy.sources = to_backend1->sources;
  const Clock::time_point submit_start = Clock::now();
  const std::optional<ServerMessage> reply = prober.Call(healthy);
  const Clock::duration submit_time = Clock::now() - submit_start;
  EXPECT_TRUE(reply.has_value() &&
              reply->type == MsgType::kSubmitResult &&
              FromWire(reply->result) == expected.at(healthy.seed));
  EXPECT_LT(submit_time, std::chrono::milliseconds(100));

  stop_flood = true;
  proxy.ReleaseRequests();
  flood.join();
  const uint64_t flooded = sent.load();
  ASSERT_GT(flooded, 0u);
  flooder.SetRecvTimeout(30000);
  std::vector<int> answers(flooded, 0);
  for (uint64_t i = 0; i < flooded; ++i) {
    const std::optional<ServerMessage> message = flooder.ReadMessage();
    ASSERT_TRUE(message.has_value()) << "reply " << i << " never arrived";
    ASSERT_EQ(message->type, MsgType::kSubmitResult);
    const uint64_t id = message->result.request_id;
    ASSERT_TRUE(id >= 1 && id <= flooded) << id;
    ++answers[id - 1];
    const uint64_t seed = to_backend0[(id - 1) % to_backend0.size()]->seed;
    ASSERT_EQ(FromWire(message->result), expected.at(seed)) << id;
  }
  EXPECT_EQ(std::count(answers.begin(), answers.end(), 1),
            static_cast<std::ptrdiff_t>(flooded));
  EXPECT_TRUE(flooder.Goodbye());
  EXPECT_TRUE(prober.Goodbye());
}

size_t CountThreads() {
  size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

// The router's thread count does not depend on the fleet size: the
// threads Start() adds for a 1-backend fleet and for a 4-backend fleet are
// the same.
TEST(RouterTest, ThreadCountDoesNotGrowWithTheFleet) {
  const gen::GeneratedSchema pattern = MakePattern(73);
  std::vector<size_t> added;
  for (const int fleet_size : {1, 4}) {
    std::vector<std::unique_ptr<IngressServer>> backends;
    RouterOptions options;
    options.event_threads = 1;
    for (int b = 0; b < fleet_size; ++b) {
      backends.push_back(std::make_unique<IngressServer>(
          &pattern.schema, BackendOptions(1), IngressOptions{}));
      std::string error;
      ASSERT_TRUE(backends.back()->Start(&error)) << error;
      options.backends.push_back(
          BackendAddress{"127.0.0.1", backends.back()->port()});
    }
    const size_t before = CountThreads();
    Router router(options);
    std::string error;
    ASSERT_TRUE(router.Start(&error)) << error;
    added.push_back(CountThreads() - before);
    router.Stop();
    for (const std::unique_ptr<IngressServer>& backend : backends) {
      backend->Stop();
    }
  }
  EXPECT_EQ(added[0], added[1]);
}

}  // namespace
}  // namespace dflow::net
