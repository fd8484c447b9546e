// End-to-end tests of the network ingress over loopback: a real
// net::IngressServer on an ephemeral port, driven by net::Client. The
// centerpiece is the wire-determinism contract: results served over TCP
// are byte-identical to in-process FlowServer execution of the same
// request set, across shard counts.

#include <gtest/gtest.h>

#include <dirent.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/schema_builder.h"
#include "gen/schema_generator.h"
#include "net/client.h"
#include "net/ingress_server.h"
#include "net/socket.h"
#include "net/wire_protocol.h"
#include "obs/trace.h"
#include "runtime/flow_server.h"

namespace dflow::net {
namespace {

core::Strategy S(const char* text) { return *core::Strategy::Parse(text); }

gen::GeneratedSchema MakePattern(uint64_t seed = 21, int nb_nodes = 32,
                                 int nb_rows = 4) {
  gen::PatternParams params;
  params.nb_nodes = nb_nodes;
  params.nb_rows = nb_rows;
  params.seed = seed;
  return gen::GeneratePattern(params);
}

std::vector<runtime::FlowRequest> MakeWorkload(
    const gen::GeneratedSchema& pattern, int count, int distinct = 0) {
  if (distinct <= 0) distinct = count;
  std::vector<runtime::FlowRequest> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = gen::InstanceSeed(pattern.params, i % distinct);
    requests.push_back({gen::MakeSourceBinding(pattern, seed), seed});
  }
  return requests;
}

// Everything the wire response carries, keyed for comparison.
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

// Serves the workload over TCP (pipelined on one connection, full
// snapshots requested) and returns seed -> outcome.
std::map<uint64_t, WireOutcome> ServeOverWire(
    const gen::GeneratedSchema& pattern,
    const std::vector<runtime::FlowRequest>& requests, int num_shards) {
  runtime::FlowServerOptions server_options;
  server_options.num_shards = num_shards;
  server_options.strategy = S("PSE100");
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  EXPECT_TRUE(server.Start(&error)) << error;

  Client client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
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
    // Responses complete out of submission order across shards; request_id
    // is the correlation key.
    const size_t index = static_cast<size_t>(message->result.request_id) - 1;
    if (index >= requests.size()) {
      ADD_FAILURE() << "response names unknown request_id "
                    << message->result.request_id;
      break;
    }
    by_seed.emplace(requests[index].seed, FromWire(message->result));
  }
  EXPECT_TRUE(client.Goodbye());

  const runtime::FlowServerReport report = server.Report();
  EXPECT_EQ(report.ingress.requests_accepted,
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(report.ingress.decode_errors, 0);
  server.Stop();
  return by_seed;
}

// Serves the workload over TCP through v7 BATCH_SUBMIT frames (several
// pipelined batches on one connection, full snapshots requested) and
// returns seed -> outcome. Mirrors ServeOverWire so the two maps are
// directly comparable.
std::map<uint64_t, WireOutcome> ServeOverWireBatched(
    const gen::GeneratedSchema& pattern,
    const std::vector<runtime::FlowRequest>& requests, int num_shards,
    size_t batch_size) {
  runtime::FlowServerOptions server_options;
  server_options.num_shards = num_shards;
  server_options.strategy = S("PSE100");
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  EXPECT_TRUE(server.Start(&error)) << error;

  Client client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  std::vector<BatchItem> items;
  items.reserve(requests.size());
  for (const runtime::FlowRequest& request : requests) {
    items.push_back(BatchItem{request.seed, request.sources});
  }
  BatchOptions options;
  options.want_snapshot = true;
  // Pipelined: every batch ships before the first completion is read.
  struct Issued {
    TicketRange range;
    size_t first_index;
  };
  std::vector<Issued> issued;
  for (size_t at = 0; at < items.size(); at += batch_size) {
    const size_t n = std::min(batch_size, items.size() - at);
    const TicketRange range = client.SubmitBatch(
        std::span<const BatchItem>(items.data() + at, n), options);
    EXPECT_TRUE(range.ok());
    EXPECT_EQ(range.count, n);
    issued.push_back({range, at});
  }
  std::map<uint64_t, WireOutcome> by_seed;
  EXPECT_TRUE(client.DrainCompletions([&](const Completion& completion) {
    EXPECT_EQ(completion.type, MsgType::kSubmitResult);
    for (const Issued& batch : issued) {
      if (!batch.range.Contains(completion.request_id)) continue;
      const size_t index =
          batch.first_index +
          static_cast<size_t>(completion.request_id - batch.range.first_id);
      by_seed.emplace(requests[index].seed, FromWire(completion.result));
      return;
    }
    ADD_FAILURE() << "completion names unknown request_id "
                  << completion.request_id;
  }));
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_TRUE(client.Goodbye());

  const runtime::FlowServerReport report = server.Report();
  EXPECT_EQ(report.ingress.requests_accepted,
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(report.ingress.decode_errors, 0);
  server.Stop();
  return by_seed;
}

// --- The acceptance-criteria test: TCP-served results are byte-identical
// to in-process FlowServer execution, across at least two shard counts.
TEST(IngressLoopbackTest, WireResultsMatchInProcessAcrossShardCounts) {
  const gen::GeneratedSchema pattern = MakePattern();
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 60);

  // In-process reference: a FlowServer driven directly, no network.
  runtime::FlowServerOptions options;
  options.num_shards = 2;
  options.strategy = S("PSE100");
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

  for (const int shards : {1, 3}) {
    const std::map<uint64_t, WireOutcome> served =
        ServeOverWire(pattern, requests, shards);
    ASSERT_EQ(served.size(), requests.size()) << shards << " shards";
    EXPECT_EQ(served, expected) << shards << " shards";
  }
}

TEST(IngressLoopbackTest, InfoReportsConfigurationAndCounters) {
  const gen::GeneratedSchema pattern = MakePattern(5);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 2;
  server_options.strategy = S("PCE50");
  server_options.queue_capacity_per_shard = 77;
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 5);
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.sources = requests[i].sources;
    ASSERT_TRUE(client.SendSubmit(submit));
    ASSERT_TRUE(client.ReadMessage().has_value());
  }
  const std::optional<ServerInfo> info = client.Info();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->num_shards, 2);
  EXPECT_EQ(info->strategy, "PCE50");
  EXPECT_EQ(info->queue_capacity_per_shard, 77u);
  EXPECT_EQ(info->completed, 5);
  EXPECT_EQ(info->ingress.requests_accepted, 5);
  EXPECT_EQ(info->ingress.connections_opened, 1);
  EXPECT_EQ(info->ingress.info_requests, 1);
  EXPECT_GT(info->ingress.bytes_in, 0);
  EXPECT_TRUE(client.Goodbye());
  server.Stop();
  // Post-stop report still carries the final counters.
  const runtime::FlowServerReport report = server.Report();
  EXPECT_EQ(report.stats.completed, 5);
  EXPECT_EQ(report.ingress.connections_closed, 1);
  EXPECT_GT(report.ingress.bytes_out, 0);
}

// Non-blocking admission against a deliberately tiny queue: a burst far
// larger than the queue must surface REJECTED_BUSY frames, and every
// request still gets exactly one answer.
TEST(IngressLoopbackTest, NonBlockingBurstSurfacesRejectedBusy) {
  const gen::GeneratedSchema pattern = MakePattern(7, 64, 4);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 1;
  server_options.queue_capacity_per_shard = 1;
  server_options.strategy = S("PSE100");
  server_options.backend = core::BackendKind::kBoundedDb;  // slow instances
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kBurst = 200;
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, kBurst);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  for (int i = 0; i < kBurst; ++i) {
    SubmitRequest submit;
    submit.request_id = static_cast<uint64_t>(i) + 1;
    submit.seed = requests[static_cast<size_t>(i)].seed;
    submit.blocking = false;
    submit.sources = requests[static_cast<size_t>(i)].sources;
    ASSERT_TRUE(client.SendSubmit(submit));
  }
  int ok = 0, busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::optional<ServerMessage> message = client.ReadMessage();
    ASSERT_TRUE(message.has_value()) << "reply " << i;
    if (message->type == MsgType::kSubmitResult) {
      ++ok;
    } else {
      ASSERT_EQ(message->type, MsgType::kError);
      EXPECT_EQ(message->error.code, WireError::kRejectedBusy);
      ++busy;
    }
  }
  EXPECT_EQ(ok + busy, kBurst);
  EXPECT_GT(ok, 0);    // at least the queued + in-flight ones complete
  EXPECT_GT(busy, 0);  // a 200-burst into a 1-deep queue must shed load
  EXPECT_TRUE(client.Goodbye());
  server.Stop();
  const runtime::IngressStats stats = server.ingress_stats();
  EXPECT_EQ(stats.requests_accepted, ok);
  EXPECT_EQ(stats.requests_rejected_busy, busy);
  // The runtime counted the same rejections (TrySubmitEx surfacing).
  EXPECT_EQ(server.Report().stats.rejected, busy);
}

TEST(IngressLoopbackTest, StrategyOverrideMatchingIsAcceptedOthersRefused) {
  const gen::GeneratedSchema pattern = MakePattern(9);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 1;
  server_options.strategy = S("PSE100");
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 2);

  SubmitRequest matching;
  matching.request_id = 1;
  matching.seed = requests[0].seed;
  matching.strategy = "pse100";  // parsing is case-insensitive
  matching.sources = requests[0].sources;
  std::optional<ServerMessage> reply = client.Call(matching);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kSubmitResult);

  SubmitRequest mismatched = matching;
  mismatched.request_id = 2;
  mismatched.strategy = "NCC0";
  reply = client.Call(mismatched);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(reply->error.code, WireError::kBadStrategy);
  EXPECT_EQ(reply->error.request_id, 2u);

  SubmitRequest unparsable = matching;
  unparsable.request_id = 3;
  unparsable.strategy = "bogus!";
  reply = client.Call(unparsable);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kError);
  EXPECT_EQ(reply->error.code, WireError::kBadStrategy);

  EXPECT_TRUE(client.Goodbye());
  server.Stop();
  EXPECT_EQ(server.ingress_stats().protocol_errors, 2);
}

// A well-framed submit whose payload does not decode gets a typed
// MALFORMED_FRAME error and the connection keeps serving; framing-level
// garbage kills the stream after a final error frame.
TEST(IngressLoopbackTest, MalformedPayloadAnsweredGarbageStreamCloses) {
  const gen::GeneratedSchema pattern = MakePattern(11);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 1;
  server_options.strategy = S("PSE100");
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Raw socket: the Client cannot be coaxed into sending broken frames.
  Socket raw = Socket::ConnectTcp("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
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

  // 1. Valid header, type kSubmit, garbage payload -> typed error, alive.
  const uint8_t bad_payload[] = {'D', 'F', kWireVersion,
                                 static_cast<uint8_t>(MsgType::kSubmit),
                                 3,   0,   0,            0,
                                 0xde, 0xad, 0xbe};
  ASSERT_TRUE(raw.SendAll(bad_payload, sizeof(bad_payload)));
  std::optional<Frame> frame = read_frame();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, static_cast<uint8_t>(MsgType::kError));
  ErrorReply reply;
  ASSERT_TRUE(DecodeError(frame->payload, &reply));
  EXPECT_EQ(reply.code, WireError::kMalformedFrame);

  // 2. The connection survived: a real submit still gets its result.
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 1);
  SubmitRequest submit;
  submit.request_id = 42;
  submit.seed = requests[0].seed;
  submit.sources = requests[0].sources;
  std::vector<uint8_t> encoded;
  EncodeSubmit(submit, &encoded);
  ASSERT_TRUE(raw.SendAll(encoded.data(), encoded.size()));
  frame = read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MsgType::kSubmitResult));

  // 3. Framing garbage -> one final error frame, then EOF.
  const uint8_t garbage[] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  ASSERT_TRUE(raw.SendAll(garbage, sizeof(garbage)));
  frame = read_frame();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, static_cast<uint8_t>(MsgType::kError));
  ASSERT_TRUE(DecodeError(frame->payload, &reply));
  EXPECT_EQ(reply.code, WireError::kMalformedFrame);
  uint8_t byte;
  EXPECT_EQ(raw.Recv(&byte, 1), 0);  // orderly close

  server.Stop();
  EXPECT_EQ(server.ingress_stats().decode_errors, 2);
}

// Stop() with clients mid-flight: the server answers everything it
// accepted before the listener dies (drain-then-Drain).
TEST(IngressLoopbackTest, StopAnswersEveryAcceptedRequest) {
  const gen::GeneratedSchema pattern = MakePattern(13);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 2;
  server_options.strategy = S("PSE100");
  server_options.backend = core::BackendKind::kBoundedDb;
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kCount = 40;
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, kCount);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  for (int i = 0; i < kCount; ++i) {
    SubmitRequest submit;
    submit.request_id = static_cast<uint64_t>(i) + 1;
    submit.seed = requests[static_cast<size_t>(i)].seed;
    submit.sources = requests[static_cast<size_t>(i)].sources;
    ASSERT_TRUE(client.SendSubmit(submit));
  }
  // Wait until the loop has admitted the whole burst (Stop's graceful
  // close stops reading, so frames still in the socket buffer would be
  // discarded — admission, not transmission, is what obligates an answer).
  for (int spin = 0; spin < 10000; ++spin) {
    if (server.ingress_stats().requests_accepted == kCount) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.ingress_stats().requests_accepted, kCount);
  // Stop with the burst still executing: every accepted request must be
  // answered before the sessions retire (drain-then-Drain).
  server.Stop();
  int answered = 0;
  while (answered < kCount) {
    const std::optional<ServerMessage> message = client.ReadMessage();
    if (!message.has_value()) break;
    if (message->type == MsgType::kSubmitResult ||
        message->type == MsgType::kError) {
      ++answered;
    }
  }
  EXPECT_EQ(answered, kCount);
  const runtime::FlowServerReport report = server.Report();
  EXPECT_EQ(report.ingress.requests_accepted +
                report.ingress.requests_rejected_shutdown,
            kCount);
  EXPECT_EQ(report.stats.completed, report.ingress.requests_accepted);
}

// --- Observability: tracing must not perturb results, and every traced
// reply must carry a reconstructable per-stage breakdown.

TEST(IngressLoopbackTest, TracedResultsAreByteIdenticalAndCoverThePipeline) {
  const gen::GeneratedSchema pattern = MakePattern(17);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 40);
  const std::map<uint64_t, WireOutcome> untraced =
      ServeOverWire(pattern, requests, 2);
  ASSERT_EQ(untraced.size(), requests.size());

  runtime::FlowServerOptions server_options;
  server_options.num_shards = 2;
  server_options.strategy = S("PSE100");
  IngressOptions ingress_options;
  ingress_options.trace.sample_period = 1;  // trace every request
  IngressServer server(&pattern.schema, server_options, ingress_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
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

    // Every reply carries a trace: nonzero id and a span per stage the
    // request actually passed through, satisfying the span invariants.
    EXPECT_NE(result.trace_id, 0u);
    obs::RequestTrace::View view;
    view.trace_id = result.trace_id;
    for (const WireSpan& span : result.spans) {
      view.spans.push_back(obs::Span{static_cast<obs::SpanKind>(span.kind),
                                     span.start_ns, span.duration_ns});
    }
    std::string invariant_error;
    EXPECT_TRUE(obs::ValidateSpans(view, &invariant_error))
        << invariant_error;
    std::map<obs::SpanKind, int> kinds;
    for (const obs::Span& span : view.spans) ++kinds[span.kind];
    EXPECT_EQ(kinds.count(obs::SpanKind::kIngressQueue), 1u);
    EXPECT_EQ(kinds.count(obs::SpanKind::kShardQueueWait), 1u);
    // cache.lookup is stamped whether the cache hits, misses, or is off.
    EXPECT_EQ(kinds.count(obs::SpanKind::kCacheLookup), 1u);
    EXPECT_EQ(kinds.count(obs::SpanKind::kOutboxWrite), 1u);
  }
  EXPECT_TRUE(client.Goodbye());
  server.Stop();

  // The determinism contract survives tracing: byte-identical outcomes.
  EXPECT_EQ(traced, untraced);
  EXPECT_EQ(server.recorder().finished(),
            static_cast<int64_t>(requests.size()));
}

TEST(IngressLoopbackTest, ClientTraceFlagForcesTracingAndPropagatesTheId) {
  const gen::GeneratedSchema pattern = MakePattern(19);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 1;
  server_options.strategy = S("PSE100");
  // Server-side sampling OFF: only the client's flag can arm a trace.
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 3);

  SubmitRequest plain;  // no flag: untraced even though tracing code exists
  plain.request_id = 1;
  plain.seed = requests[0].seed;
  plain.sources = requests[0].sources;
  std::optional<ServerMessage> reply = client.Call(plain);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kSubmitResult);
  EXPECT_EQ(reply->result.trace_id, 0u);
  EXPECT_TRUE(reply->result.spans.empty());

  SubmitRequest minted = plain;  // flag, id 0: the ingress mints the id
  minted.request_id = 2;
  minted.seed = requests[1].seed;
  minted.sources = requests[1].sources;
  minted.has_trace = true;
  reply = client.Call(minted);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kSubmitResult);
  EXPECT_NE(reply->result.trace_id, 0u);
  EXPECT_FALSE(reply->result.spans.empty());

  SubmitRequest adopted = plain;  // upstream id: adopted verbatim
  adopted.request_id = 3;
  adopted.seed = requests[2].seed;
  adopted.sources = requests[2].sources;
  adopted.has_trace = true;
  adopted.trace_id = 0x5eed1234;
  reply = client.Call(adopted);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kSubmitResult);
  EXPECT_EQ(reply->result.trace_id, 0x5eed1234u);

  EXPECT_TRUE(client.Goodbye());
  server.Stop();
}

// SessionOutbox accounting surfaces through IngressStats, and folding a
// closed session's stats happens exactly once (two reads agree).
TEST(IngressLoopbackTest, OutboxStatsSurfaceThroughIngressStats) {
  const gen::GeneratedSchema pattern = MakePattern(23);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 2;
  server_options.strategy = S("PSE100");
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 30);
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.want_snapshot = true;  // fat replies: inflight bytes accumulate
    submit.sources = requests[i].sources;
    ASSERT_TRUE(client.SendSubmit(submit));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(client.ReadMessage().has_value());
  }
  EXPECT_TRUE(client.Goodbye());
  server.Stop();

  const runtime::IngressStats first = server.ingress_stats();
  EXPECT_GT(first.outbox_bytes_written, 0);
  EXPECT_GE(first.outbox_inflight_hwm, 1);
  EXPECT_GE(first.outbox_write_stalls, 0);
  // Every byte the sessions sent went through the outbox.
  EXPECT_EQ(first.outbox_bytes_written, first.bytes_out);
  // Closed-session folding is exactly-once: a second read is identical.
  const runtime::IngressStats second = server.ingress_stats();
  EXPECT_EQ(second.outbox_bytes_written, first.outbox_bytes_written);
  EXPECT_EQ(second.outbox_inflight_hwm, first.outbox_inflight_hwm);
  EXPECT_EQ(second.outbox_write_stalls, first.outbox_write_stalls);
}

TEST(IngressLoopbackTest, StatsMetricsSectionScrapesTheRegistry) {
  const gen::GeneratedSchema pattern = MakePattern(29);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 2;
  server_options.strategy = S("PSE100");
  IngressOptions ingress_options;
  ingress_options.trace.sample_period = 1;
  IngressServer server(&pattern.schema, server_options, ingress_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 8);
  for (size_t i = 0; i < requests.size(); ++i) {
    SubmitRequest submit;
    submit.request_id = i + 1;
    submit.seed = requests[i].seed;
    submit.sources = requests[i].sources;
    ASSERT_TRUE(client.SendSubmit(submit));
    ASSERT_TRUE(client.ReadMessage().has_value());
  }
  // Finish runs on the completion path after the reply is handed to the
  // outbox, so the last trace may still be finishing when the client has
  // its result; settle before scraping so the counter assert is exact.
  for (int spin = 0; spin < 10000 && server.recorder().finished() < 8;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::optional<StatsInfo> stats = client.Stats(kStatsMetrics);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->sections, kStatsMetrics);
  EXPECT_EQ(stats->self.is_router, 0);
  EXPECT_TRUE(stats->backends.empty());
  const std::string* text = &stats->self.metrics;
  for (const char* family :
       {"# TYPE dflow_requests_accepted_total counter",
        "# TYPE dflow_completed_total counter",
        "# TYPE dflow_queue_depth gauge",
        "# TYPE dflow_wall_latency_us histogram",
        "# TYPE dflow_traces_finished_total counter",
        "dflow_requests_accepted_total 8",
        "dflow_completed_total 8", "dflow_traces_finished_total 8",
        "dflow_wall_latency_us_count 8"}) {
    EXPECT_NE(text->find(family), std::string::npos)
        << "missing '" << family << "' in:\n"
        << *text;
  }
  EXPECT_TRUE(client.Goodbye());
  server.Stop();
}

// --- The v7 acceptance-criteria test: results served through BATCH_SUBMIT
// frames are byte-identical to the same requests submitted one frame at a
// time, across shard counts — batching changes how requests travel, never
// what they answer. Batch size 7 does not divide the 60-request workload,
// so the final partial batch is exercised too.
TEST(IngressLoopbackTest, BatchedResultsAreByteIdenticalToSingletons) {
  const gen::GeneratedSchema pattern = MakePattern(31);
  const std::vector<runtime::FlowRequest> requests =
      MakeWorkload(pattern, 60);
  for (const int shards : {1, 3}) {
    const std::map<uint64_t, WireOutcome> singleton =
        ServeOverWire(pattern, requests, shards);
    const std::map<uint64_t, WireOutcome> batched =
        ServeOverWireBatched(pattern, requests, shards, 7);
    ASSERT_EQ(batched.size(), requests.size()) << shards << " shards";
    EXPECT_EQ(batched, singleton) << shards << " shards";
  }
}

// The profile JSONL sink carries operator- and schema-chosen strings: a
// quote or a backslash in the node id or an attribute name must come out
// escaped, never break the line.
TEST(IngressLoopbackTest, ProfileSinkEscapesNodeIdAndAttributeNames) {
  core::SchemaBuilder builder;
  const AttributeId source = builder.AddSource("src");
  builder.AddQuery(
      "a\"b\\c", 1,
      [](const core::TaskContext&) { return Value::Int(1); }, {source},
      expr::Condition::True(), /*is_target=*/true);
  std::string error;
  const std::optional<core::Schema> schema = builder.Build(&error);
  ASSERT_TRUE(schema.has_value()) << error;

  const std::string path =
      ::testing::TempDir() + "/ingress_escaped_profile.jsonl";
  std::remove(path.c_str());
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 1;
  server_options.strategy = S("PSE100");
  server_options.profile_sample_period = 1;
  IngressOptions ingress_options;
  ingress_options.node_id = "x\"y\\z";
  ingress_options.profile_jsonl_path = path;
  IngressServer server(&*schema, server_options, ingress_options);
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  SubmitRequest submit;
  submit.request_id = 1;
  submit.seed = 3;
  submit.sources = {{source, Value::Int(2)}};
  const std::optional<ServerMessage> reply = client.Call(submit);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kSubmitResult);
  EXPECT_TRUE(client.Goodbye());
  server.Stop();  // the drain writes the profile line

  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char line[4096] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
  std::fclose(file);
  const std::string text = line;
  EXPECT_NE(text.find(R"("node":"x\"y\\z")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"("name":"a\"b\\c")"), std::string::npos) << text;
  std::remove(path.c_str());
}

// An ok() TicketRange owes exactly count completions, even when the whole
// batch is refused: a strategy override the server does not run answers
// every item id with its own BAD_STRATEGY error — what count singleton
// submits would have produced — so a drain settles instead of hanging on
// completions that never come, and the connection stays usable.
TEST(IngressLoopbackTest, RefusedBatchAnswersEveryItemAndConnectionSurvives) {
  const gen::GeneratedSchema pattern = MakePattern(43);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 2;
  server_options.strategy = S("PSE100");
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 5);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  std::vector<BatchItem> items;
  for (const runtime::FlowRequest& request : requests) {
    items.push_back(BatchItem{request.seed, request.sources});
  }
  BatchOptions refused_options;
  refused_options.strategy = "NCC0";  // valid notation, not what is served
  const TicketRange refused = client.SubmitBatch(items, refused_options);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(client.outstanding(), requests.size());
  std::set<uint64_t> error_ids;
  ASSERT_TRUE(client.DrainCompletions([&](const Completion& done) {
    ASSERT_EQ(done.type, MsgType::kError);
    EXPECT_EQ(done.error.code, WireError::kBadStrategy);
    EXPECT_TRUE(refused.Contains(done.request_id));
    error_ids.insert(done.request_id);
  }));
  EXPECT_EQ(error_ids.size(), requests.size());
  EXPECT_EQ(client.outstanding(), 0u);

  // The payload decoded and framing held, so the stream is still good: the
  // same batch without the override is served normally.
  const TicketRange accepted = client.SubmitBatch(items);
  ASSERT_TRUE(accepted.ok());
  size_t results = 0;
  ASSERT_TRUE(client.DrainCompletions([&](const Completion& done) {
    ASSERT_EQ(done.type, MsgType::kSubmitResult);
    EXPECT_TRUE(accepted.Contains(done.request_id));
    ++results;
  }));
  EXPECT_EQ(results, requests.size());
  EXPECT_TRUE(client.Goodbye());
  server.Stop();
  EXPECT_EQ(server.ingress_stats().protocol_errors,
            static_cast<int64_t>(requests.size()));
}

// A BATCH_SUBMIT whose payload does not decode owes an unknowable number
// of completions — the count is part of what failed to parse — so the
// server answers one typed error and closes: a client draining the range
// unblocks on EOF instead of waiting forever.
TEST(IngressLoopbackTest, UndecodableBatchAnswersErrorThenCloses) {
  const gen::GeneratedSchema pattern = MakePattern(47);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 1;
  server_options.strategy = S("PSE100");
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Socket raw = Socket::ConnectTcp("127.0.0.1", server.port(), &error);
  ASSERT_TRUE(raw.valid()) << error;
  // A well-framed batch frame whose payload is truncated garbage: the
  // request_id_base peeks out, nothing else decodes.
  std::vector<uint8_t> payload(12, 0);
  WriteLe64(99, payload.data());
  std::vector<uint8_t> frame_bytes;
  EncodeRawFrame(static_cast<uint8_t>(MsgType::kBatchSubmit), payload,
                 &frame_bytes);
  ASSERT_TRUE(raw.SendAll(frame_bytes.data(), frame_bytes.size()));

  FrameAssembler assembler;
  uint8_t chunk[4096];
  std::optional<Frame> reply;
  while (!reply.has_value()) {
    const ssize_t n = raw.Recv(chunk, sizeof(chunk));
    ASSERT_GT(n, 0);
    assembler.Feed(chunk, static_cast<size_t>(n));
    reply = assembler.Next();
  }
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MsgType::kError));
  ErrorReply decoded;
  ASSERT_TRUE(DecodeError(reply->payload, &decoded));
  EXPECT_EQ(decoded.code, WireError::kMalformedFrame);
  EXPECT_EQ(decoded.request_id, 99u);
  // Then EOF: the orderly close that unblocks a parked drain.
  ssize_t n;
  while ((n = raw.Recv(chunk, sizeof(chunk))) > 0) {
    assembler.Feed(chunk, static_cast<size_t>(n));
    ASSERT_FALSE(assembler.Next().has_value());
  }
  EXPECT_EQ(n, 0);
  server.Stop();
  EXPECT_EQ(server.ingress_stats().decode_errors, 1);
}

int CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

// Event-loop churn: a long run of connect / submit / disconnect cycles
// (alternating the singleton and batch paths) must not leak descriptors —
// every retired EventConn gives its fd back to the process. Client and
// server share this process, so /proc/self/fd sees both ends of every
// loopback connection.
TEST(IngressLoopbackTest, ConnectionChurnDoesNotLeakFileDescriptors) {
  const gen::GeneratedSchema pattern = MakePattern(41);
  runtime::FlowServerOptions server_options;
  server_options.num_shards = 2;
  server_options.strategy = S("PSE100");
  IngressServer server(&pattern.schema, server_options, IngressOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const std::vector<runtime::FlowRequest> requests = MakeWorkload(pattern, 4);

  constexpr int kCycles = 1000;
  constexpr int kWarmup = 50;  // let lazy allocations settle first
  const auto settle_and_count = [&server]() {
    // Session close is asynchronous on the event loop: wait until the
    // server has retired every connection before counting descriptors.
    for (int spin = 0; spin < 10000; ++spin) {
      const runtime::IngressStats stats = server.ingress_stats();
      if (stats.connections_closed == stats.connections_opened) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return CountOpenFds();
  };
  int baseline_fds = -1;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error))
        << "cycle " << cycle << ": " << error;
    const runtime::FlowRequest& request =
        requests[static_cast<size_t>(cycle) % requests.size()];
    if (cycle % 2 == 0) {
      SubmitRequest submit;
      submit.request_id = 1;
      submit.seed = request.seed;
      submit.sources = request.sources;
      const std::optional<ServerMessage> reply = client.Call(submit);
      ASSERT_TRUE(reply.has_value()) << "cycle " << cycle;
      EXPECT_EQ(reply->type, MsgType::kSubmitResult);
    } else {
      const BatchItem item{request.seed, request.sources};
      const TicketRange range = client.SubmitBatch(std::span(&item, 1));
      ASSERT_TRUE(range.ok()) << "cycle " << cycle;
      const std::optional<Completion> done = client.NextCompletion();
      ASSERT_TRUE(done.has_value()) << "cycle " << cycle;
      EXPECT_EQ(done->type, MsgType::kSubmitResult);
    }
    ASSERT_TRUE(client.Goodbye()) << "cycle " << cycle;
    if (cycle == kWarmup - 1) baseline_fds = settle_and_count();
  }
  const int final_fds = settle_and_count();
  ASSERT_GT(baseline_fds, 0);
  ASSERT_GT(final_fds, 0);
  // Identical idle state before and after: upward drift is a leak. Small
  // slack absorbs unrelated runtime descriptors.
  EXPECT_LE(final_fds, baseline_fds + 4);
  const runtime::IngressStats stats = server.ingress_stats();
  EXPECT_EQ(stats.connections_opened, kCycles);
  EXPECT_EQ(stats.connections_closed, kCycles);
  EXPECT_EQ(stats.requests_accepted, kCycles);
  EXPECT_EQ(stats.decode_errors, 0);
  server.Stop();
}

}  // namespace
}  // namespace dflow::net
