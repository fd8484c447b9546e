#include "net/wire_protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dflow::net {
namespace {

// --- Randomized message builders for the round-trip property tests.

Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 4)) {
    case 0: return Value::Null();
    case 1: return Value::Bool(rng->Chance(0.5));
    case 2: return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3: return Value::Double(rng->UniformDouble() * 1e6 - 5e5);
    default: {
      std::string s;
      const int len = static_cast<int>(rng->UniformInt(0, 40));
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->UniformInt(0, 255)));
      }
      return Value::String(std::move(s));
    }
  }
}

SubmitRequest RandomSubmit(Rng* rng) {
  SubmitRequest msg;
  msg.request_id = rng->Next();
  msg.seed = rng->Next();
  msg.blocking = rng->Chance(0.5);
  msg.want_snapshot = rng->Chance(0.5);
  if (rng->Chance(0.5)) msg.strategy = rng->Chance(0.5) ? "PSE100" : "NCC0";
  const int num_sources = static_cast<int>(rng->UniformInt(0, 12));
  for (int i = 0; i < num_sources; ++i) {
    msg.sources.emplace_back(static_cast<AttributeId>(rng->UniformInt(0, 500)),
                             RandomValue(rng));
  }
  msg.has_trace = rng->Chance(0.5);
  if (msg.has_trace && rng->Chance(0.5)) msg.trace_id = rng->Next();
  return msg;
}

BatchSubmitRequest RandomBatchSubmit(Rng* rng) {
  BatchSubmitRequest msg;
  // Keep the ticket base clear of the decoder's wrap guard (base + count
  // must not overflow u64).
  msg.request_id_base = rng->Next() >> 1;
  msg.blocking = rng->Chance(0.5);
  msg.want_snapshot = rng->Chance(0.5);
  if (rng->Chance(0.5)) msg.strategy = rng->Chance(0.5) ? "PSE100" : "NCC0";
  const int num_items = static_cast<int>(rng->UniformInt(0, 9));
  for (int i = 0; i < num_items; ++i) {
    BatchItem item;
    item.seed = rng->Next();
    const int num_sources = static_cast<int>(rng->UniformInt(0, 6));
    for (int s = 0; s < num_sources; ++s) {
      item.sources.emplace_back(
          static_cast<AttributeId>(rng->UniformInt(0, 500)),
          RandomValue(rng));
    }
    msg.items.push_back(std::move(item));
  }
  return msg;
}

SubmitResult RandomSubmitResult(Rng* rng) {
  SubmitResult msg;
  msg.request_id = rng->Next();
  msg.shard = static_cast<int32_t>(rng->UniformInt(0, 63));
  msg.work = rng->UniformInt(0, 1 << 20);
  msg.wasted_work = rng->UniformInt(0, 1 << 10);
  msg.response_time = rng->UniformDouble() * 1e4;
  msg.queries_launched = static_cast<int32_t>(rng->UniformInt(0, 1000));
  msg.speculative_launches = static_cast<int32_t>(rng->UniformInt(0, 100));
  msg.fingerprint = rng->Next();
  if (rng->Chance(0.5)) msg.strategy = rng->Chance(0.5) ? "PCE0" : "AUTO";
  msg.has_snapshot = rng->Chance(0.5);
  if (msg.has_snapshot) {
    const int n = static_cast<int>(rng->UniformInt(0, 24));
    for (int i = 0; i < n; ++i) {
      msg.snapshot.push_back(SnapshotEntry{
          static_cast<AttributeId>(i),
          static_cast<core::AttrState>(rng->UniformInt(
              0, static_cast<int64_t>(core::AttrState::kDisabled))),
          RandomValue(rng)});
    }
  }
  if (rng->Chance(0.5)) {
    msg.trace_id = rng->Next() | 1;  // nonzero: traced results carry spans
    const int num_spans = static_cast<int>(rng->UniformInt(0, 7));
    for (int i = 0; i < num_spans; ++i) {
      msg.spans.push_back(WireSpan{
          static_cast<uint8_t>(rng->UniformInt(1, 7)), rng->Next(),
          rng->Next()});
    }
  }
  return msg;
}

ErrorReply RandomError(Rng* rng) {
  ErrorReply msg;
  msg.request_id = rng->Next();
  msg.code = static_cast<WireError>(rng->UniformInt(
      1, static_cast<int64_t>(WireError::kBackendUnavailable)));
  const int len = static_cast<int>(rng->UniformInt(0, 60));
  for (int i = 0; i < len; ++i) {
    msg.message.push_back(static_cast<char>(rng->UniformInt(32, 126)));
  }
  return msg;
}

ServerInfo RandomInfo(Rng* rng) {
  ServerInfo msg;
  msg.num_shards = static_cast<int32_t>(rng->UniformInt(1, 64));
  msg.strategy = rng->Chance(0.5) ? "PSE80" : "PCC0";
  msg.backend = static_cast<uint8_t>(rng->UniformInt(0, 1));
  msg.queue_capacity_per_shard = rng->Next() % 4096;
  msg.completed = rng->UniformInt(0, 1 << 30);
  msg.rejected = rng->UniformInt(0, 1 << 20);
  msg.cache_hits = rng->UniformInt(0, 1 << 20);
  msg.cache_misses = rng->UniformInt(0, 1 << 20);
  msg.ingress.connections_opened = rng->UniformInt(0, 1000);
  msg.ingress.connections_closed = rng->UniformInt(0, 1000);
  msg.ingress.requests_accepted = rng->UniformInt(0, 1 << 30);
  msg.ingress.requests_rejected_busy = rng->UniformInt(0, 1 << 20);
  msg.ingress.requests_rejected_shutdown = rng->UniformInt(0, 1 << 10);
  msg.ingress.decode_errors = rng->UniformInt(0, 100);
  msg.ingress.protocol_errors = rng->UniformInt(0, 100);
  msg.ingress.info_requests = rng->UniformInt(0, 1000);
  msg.ingress.bytes_in = rng->UniformInt(0, 1LL << 40);
  msg.ingress.bytes_out = rng->UniformInt(0, 1LL << 40);
  msg.node_id = rng->Chance(0.5) ? "serve:4517" : "";
  msg.fleet_epoch = rng->Chance(0.5) ? rng->Next() : 0;
  msg.router.is_router = rng->Chance(0.5) ? 1 : 0;
  if (msg.router.is_router == 1) {
    msg.router.replicas = static_cast<int32_t>(rng->UniformInt(1, 4));
    msg.router.failovers = rng->UniformInt(0, 1 << 20);
    msg.router.divergence_checks = rng->UniformInt(0, 1 << 20);
    msg.router.divergence_mismatches = rng->UniformInt(0, 100);
    msg.router.divergence_incomplete = rng->UniformInt(0, 100);
    const int n = static_cast<int>(rng->UniformInt(0, 4));
    for (int i = 0; i < n; ++i) {
      RouterBackendStats backend;
      backend.address = "127.0.0.1:" + std::to_string(4500 + i);
      backend.node_id = rng->Chance(0.5) ? "serve:" + std::to_string(i) : "";
      backend.connected = rng->Chance(0.5) ? 1 : 0;
      backend.shards = static_cast<int32_t>(rng->UniformInt(0, 16));
      backend.slot = static_cast<int32_t>(rng->UniformInt(0, 8));
      backend.replica = static_cast<int32_t>(rng->UniformInt(0, 3));
      backend.forwarded = rng->UniformInt(0, 1 << 30);
      backend.answered = rng->UniformInt(0, 1 << 30);
      backend.unavailable = rng->UniformInt(0, 1 << 10);
      backend.reconnects = rng->UniformInt(0, 100);
      backend.failovers = rng->UniformInt(0, 1 << 10);
      msg.router.backends.push_back(std::move(backend));
    }
  }
  msg.advisor.enabled = rng->Chance(0.5) ? 1 : 0;
  if (msg.advisor.enabled == 1) {
    msg.advisor.fingerprint = rng->Next();
    msg.advisor.selections = rng->UniformInt(0, 1 << 30);
    msg.advisor.explores = rng->UniformInt(0, 1 << 20);
    const int n = static_cast<int>(rng->UniformInt(0, 6));
    for (int i = 0; i < n; ++i) {
      msg.advisor.by_strategy.push_back(
          {rng->Chance(0.5) ? "PCE0" : "PSE" + std::to_string(i),
           rng->UniformInt(0, 1 << 20)});
    }
  }
  return msg;
}

WireEvent RandomEvent(Rng* rng) {
  WireEvent event;
  event.kind = static_cast<uint8_t>(rng->UniformInt(1, 11));
  event.severity = static_cast<uint8_t>(rng->UniformInt(0, 2));
  event.wall_ms = rng->UniformInt(0, 1LL << 45);
  event.node = rng->Chance(0.5) ? "router:4600" : "";
  const int len = static_cast<int>(rng->UniformInt(0, 48));
  for (int i = 0; i < len; ++i) {
    event.detail.push_back(static_cast<char>(rng->UniformInt(32, 126)));
  }
  return event;
}

WireHealthSample RandomHealthSample(Rng* rng) {
  WireHealthSample sample;
  sample.wall_ms = rng->UniformInt(0, 1LL << 45);
  sample.interval_s = rng->UniformDouble() * 10;
  sample.requests_per_s = rng->UniformDouble() * 1e5;
  sample.failovers_per_s = rng->UniformDouble();
  sample.cache_hit_rate = rng->UniformDouble();
  sample.p95_wall_ms = rng->UniformDouble() * 100;
  sample.queue_depth_max = rng->Next() % 4096;
  sample.queue_utilization = rng->UniformDouble();
  sample.status = static_cast<uint8_t>(rng->UniformInt(0, 2));
  return sample;
}

NodeHealth RandomNodeHealth(Rng* rng) {
  NodeHealth node;
  node.status = static_cast<uint8_t>(rng->UniformInt(0, 2));
  node.completed = rng->UniformInt(0, 1 << 30);
  node.failovers = rng->UniformInt(0, 1 << 10);
  node.divergence_checks = rng->UniformInt(0, 1 << 20);
  node.divergence_mismatches = rng->UniformInt(0, 100);
  node.events_total = rng->UniformInt(0, 1 << 20);
  const int num_samples = static_cast<int>(rng->UniformInt(0, 8));
  for (int i = 0; i < num_samples; ++i) {
    node.series.push_back(RandomHealthSample(rng));
  }
  const int num_events = static_cast<int>(rng->UniformInt(0, 6));
  for (int i = 0; i < num_events; ++i) {
    node.events.push_back(RandomEvent(rng));
  }
  return node;
}

std::string RandomName(Rng* rng) {
  std::string name;
  const int len = static_cast<int>(rng->UniformInt(0, 12));
  for (int i = 0; i < len; ++i) {
    name.push_back(static_cast<char>(rng->UniformInt(32, 126)));
  }
  return name;
}

WireAttrProfile RandomAttrProfile(Rng* rng) {
  WireAttrProfile row;
  row.attr = static_cast<AttributeId>(rng->UniformInt(0, 500));
  row.name = RandomName(rng);
  row.launches = rng->UniformInt(0, 1 << 30);
  row.work_units = rng->UniformInt(0, 1LL << 40);
  row.speculative_launches = rng->UniformInt(0, 1 << 20);
  row.wasted_work = rng->UniformInt(0, 1 << 30);
  row.useful_completions = rng->UniformInt(0, 1 << 30);
  return row;
}

WireCondProfile RandomCondProfile(Rng* rng) {
  WireCondProfile row;
  row.attr = static_cast<AttributeId>(rng->UniformInt(0, 500));
  row.name = RandomName(rng);
  row.evals = rng->UniformInt(0, 1 << 30);
  row.true_outcomes = rng->UniformInt(0, 1 << 28);
  row.false_outcomes = rng->UniformInt(0, 1 << 28);
  row.unknown_outcomes = rng->UniformInt(0, 1 << 20);
  row.eager_disables = rng->UniformInt(0, 1 << 20);
  return row;
}

WireClassProfile RandomClassProfile(Rng* rng) {
  WireClassProfile row;
  row.class_key = rng->Next();
  row.requests = rng->UniformInt(0, 1 << 30);
  row.work = rng->UniformInt(0, 1LL << 40);
  row.wasted_work = rng->UniformInt(0, 1 << 30);
  row.cache_hits = rng->UniformInt(0, 1 << 20);
  row.cache_misses = rng->UniformInt(0, 1 << 20);
  return row;
}

NodeProfile RandomNodeProfile(Rng* rng) {
  NodeProfile node;
  node.sample_period = rng->UniformInt(0, 1 << 10);
  node.profiled_requests = rng->UniformInt(0, 1 << 30);
  node.total_requests = rng->UniformInt(0, 1 << 30);
  const int num_attrs = static_cast<int>(rng->UniformInt(0, 8));
  for (int i = 0; i < num_attrs; ++i) {
    node.attrs.push_back(RandomAttrProfile(rng));
  }
  const int num_conds = static_cast<int>(rng->UniformInt(0, 6));
  for (int i = 0; i < num_conds; ++i) {
    node.conds.push_back(RandomCondProfile(rng));
  }
  const int num_classes = static_cast<int>(rng->UniformInt(0, 5));
  for (int i = 0; i < num_classes; ++i) {
    node.classes.push_back(RandomClassProfile(rng));
  }
  if (rng->Chance(0.5)) {
    node.plan_dot = "digraph G { a" + std::to_string(rng->Next() % 100) +
                    " -> b; }";
  }
  return node;
}

// A node entry carrying exactly the sections `sections` names; the others
// stay default, as on the decode side.
NodeStats RandomNodeStats(Rng* rng, uint8_t sections) {
  NodeStats node;
  node.node_id = rng->Chance(0.5) ? "serve:" + std::to_string(rng->Next() % 10)
                                  : "";
  node.is_router = rng->Chance(0.5) ? 1 : 0;
  if (sections & kStatsMetrics) {
    node.metrics = "# TYPE dflow_x counter\ndflow_x " +
                   std::to_string(rng->Next() % 1000) + "\n" + RandomName(rng);
  }
  if (sections & kStatsHealth) node.health = RandomNodeHealth(rng);
  if (sections & kStatsProfile) node.profile = RandomNodeProfile(rng);
  return node;
}

StatsInfo RandomStats(Rng* rng, uint8_t sections) {
  StatsInfo msg;
  msg.request_id = rng->Next();
  msg.sections = sections;
  msg.self = RandomNodeStats(rng, sections);
  const int num_backends = static_cast<int>(rng->UniformInt(0, 5));
  for (int i = 0; i < num_backends; ++i) {
    msg.backends.push_back(RandomNodeStats(rng, sections));
  }
  return msg;
}

// The payload of the single frame `stream` holds.
std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& stream) {
  return std::vector<uint8_t>(stream.begin() + kFrameHeaderBytes,
                              stream.end());
}

std::vector<uint8_t> StatsPayload(const StatsInfo& msg) {
  std::vector<uint8_t> stream;
  EncodeStats(msg, &stream);
  return PayloadOf(stream);
}

// Feeds `stream` to an assembler in pseudo-random chunk sizes: framing
// must be agnostic to how the transport slices the byte stream.
std::vector<Frame> Reassemble(const std::vector<uint8_t>& stream,
                              uint64_t chunk_seed,
                              WireError* error_out = nullptr) {
  Rng rng(chunk_seed);
  FrameAssembler assembler;
  std::vector<Frame> frames;
  size_t offset = 0;
  while (offset < stream.size()) {
    const size_t chunk = static_cast<size_t>(
        rng.UniformInt(1, 37));
    const size_t n = std::min(chunk, stream.size() - offset);
    assembler.Feed(stream.data() + offset, n);
    offset += n;
    while (std::optional<Frame> frame = assembler.Next()) {
      frames.push_back(std::move(*frame));
    }
  }
  if (error_out != nullptr) *error_out = assembler.error();
  return frames;
}

// --- The round-trip property: encode -> chunked reassembly -> decode is
// the identity on every message type, for randomized messages.
TEST(WireProtocolPropertyTest, RandomizedMessagesRoundTripThroughTheStream) {
  Rng rng(20260727);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const SubmitRequest submit = RandomSubmit(&rng);
    const SubmitResult result = RandomSubmitResult(&rng);
    const ErrorReply error = RandomError(&rng);
    const ServerInfo info = RandomInfo(&rng);

    // One stream carrying all four (plus the payloadless frames), so the
    // assembler also proves it finds consecutive frame boundaries.
    std::vector<uint8_t> stream;
    EncodeSubmit(submit, &stream);
    EncodeSubmitResult(result, &stream);
    EncodeError(error, &stream);
    EncodeInfoRequest(&stream);
    EncodeInfo(info, &stream);
    EncodeGoodbye(&stream);
    EncodeGoodbyeAck(&stream);

    WireError stream_error = WireError::kNone;
    const std::vector<Frame> frames =
        Reassemble(stream, rng.Next(), &stream_error);
    ASSERT_EQ(stream_error, WireError::kNone);
    ASSERT_EQ(frames.size(), 7u);

    EXPECT_EQ(frames[0].type, static_cast<uint8_t>(MsgType::kSubmit));
    SubmitRequest submit_rt;
    ASSERT_TRUE(DecodeSubmit(frames[0].payload, &submit_rt));
    EXPECT_EQ(submit_rt, submit);

    EXPECT_EQ(frames[1].type, static_cast<uint8_t>(MsgType::kSubmitResult));
    SubmitResult result_rt;
    ASSERT_TRUE(DecodeSubmitResult(frames[1].payload, &result_rt));
    EXPECT_EQ(result_rt, result);

    EXPECT_EQ(frames[2].type, static_cast<uint8_t>(MsgType::kError));
    ErrorReply error_rt;
    ASSERT_TRUE(DecodeError(frames[2].payload, &error_rt));
    EXPECT_EQ(error_rt, error);

    EXPECT_EQ(frames[3].type, static_cast<uint8_t>(MsgType::kInfoRequest));
    EXPECT_TRUE(frames[3].payload.empty());

    EXPECT_EQ(frames[4].type, static_cast<uint8_t>(MsgType::kInfo));
    ServerInfo info_rt;
    ASSERT_TRUE(DecodeInfo(frames[4].payload, &info_rt));
    EXPECT_EQ(info_rt, info);

    EXPECT_EQ(frames[5].type, static_cast<uint8_t>(MsgType::kGoodbye));
    EXPECT_EQ(frames[6].type, static_cast<uint8_t>(MsgType::kGoodbyeAck));
  }
}

// STATS_REQUEST + STATS round-trip for all 8 section masks: metrics
// text, health (rates, status bytes, journal tails) and profile tables,
// with the full per-backend fan-out, survive encode -> chunked reassembly
// -> decode.
TEST(WireProtocolPropertyTest, RandomizedStatsRoundTripForEverySectionMask) {
  Rng rng(20261017);
  for (uint8_t sections = 0; sections <= kStatsAllSections; ++sections) {
    for (int iteration = 0; iteration < 60; ++iteration) {
      const StatsRequest request{rng.Next(), sections};
      const StatsInfo stats = RandomStats(&rng, sections);
      std::vector<uint8_t> stream;
      EncodeStatsRequest(request, &stream);
      EncodeStats(stats, &stream);

      WireError stream_error = WireError::kNone;
      const std::vector<Frame> frames =
          Reassemble(stream, rng.Next(), &stream_error);
      ASSERT_EQ(stream_error, WireError::kNone);
      ASSERT_EQ(frames.size(), 2u);

      EXPECT_EQ(frames[0].type, static_cast<uint8_t>(MsgType::kStatsRequest));
      StatsRequest request_rt;
      ASSERT_TRUE(DecodeStatsRequest(frames[0].payload, &request_rt));
      EXPECT_EQ(request_rt, request);

      EXPECT_EQ(frames[1].type, static_cast<uint8_t>(MsgType::kStats));
      StatsInfo stats_rt;
      ASSERT_TRUE(DecodeStats(frames[1].payload, &stats_rt));
      EXPECT_EQ(stats_rt, stats) << "sections " << int{sections};
    }
  }
}

// Both STATS decoders are exact parsers for every mask: every truncation
// and any trailing byte is rejected, never crashed on.
TEST(WireProtocolPropertyTest, EveryTruncationOfAStatsPayloadIsRejected) {
  Rng rng(777);
  for (uint8_t sections = 0; sections <= kStatsAllSections; ++sections) {
    std::vector<uint8_t> stream;
    EncodeStatsRequest(StatsRequest{rng.Next(), sections}, &stream);
    const std::vector<uint8_t> request = PayloadOf(stream);
    StatsRequest request_out;
    for (size_t cut = 0; cut < request.size(); ++cut) {
      const std::vector<uint8_t> truncated(request.begin(),
                                           request.begin() + cut);
      EXPECT_FALSE(DecodeStatsRequest(truncated, &request_out));
    }
    std::vector<uint8_t> extended = request;
    extended.push_back(0);
    EXPECT_FALSE(DecodeStatsRequest(extended, &request_out));

    for (int iteration = 0; iteration < 4; ++iteration) {
      const std::vector<uint8_t> payload =
          StatsPayload(RandomStats(&rng, sections));
      StatsInfo out;
      for (size_t cut = 0; cut < payload.size(); ++cut) {
        const std::vector<uint8_t> truncated(payload.begin(),
                                             payload.begin() + cut);
        EXPECT_FALSE(DecodeStats(truncated, &out))
            << "decoded a " << cut << "-byte prefix of " << payload.size()
            << " (sections " << int{sections} << ")";
      }
      std::vector<uint8_t> trailing = payload;
      trailing.push_back(0x5a);
      EXPECT_FALSE(DecodeStats(trailing, &out));
    }
  }
}

// Range-checked bytes: unknown section bits (in either frame), an
// is_router above 1, a health status or sample status above critical, an
// event kind outside 1..11 and a severity above error each fail the whole
// decode (the taxonomies are append-only, so out-of-range means
// corruption or a newer peer).
TEST(WireProtocolTest, StatsRejectsOutOfRangeBytesAndUnknownSectionBits) {
  for (int bit = 3; bit < 8; ++bit) {
    const auto unknown = static_cast<uint8_t>(1u << bit);
    std::vector<uint8_t> stream;
    EncodeStatsRequest(StatsRequest{7, unknown}, &stream);
    StatsRequest request;
    EXPECT_FALSE(DecodeStatsRequest(PayloadOf(stream), &request)) << bit;
    StatsInfo msg;
    msg.sections = static_cast<uint8_t>(kStatsAllSections | unknown);
    StatsInfo out;
    EXPECT_FALSE(DecodeStats(StatsPayload(msg), &out)) << bit;
  }

  StatsInfo valid;
  valid.sections = kStatsHealth;
  valid.self.node_id = "n";
  valid.self.health.events.push_back(WireEvent{5, 1, 123, "n", "d"});
  valid.self.health.series.push_back(WireHealthSample{});
  StatsInfo out;
  ASSERT_TRUE(DecodeStats(StatsPayload(valid), &out));
  EXPECT_EQ(out, valid);

  const std::vector<void (*)(StatsInfo*)> corruptions = {
      [](StatsInfo* m) { m->self.is_router = 2; },
      [](StatsInfo* m) { m->self.health.status = 3; },
      [](StatsInfo* m) { m->self.health.series[0].status = 3; },
      [](StatsInfo* m) { m->self.health.events[0].kind = 0; },
      [](StatsInfo* m) { m->self.health.events[0].kind = 12; },
      [](StatsInfo* m) { m->self.health.events[0].severity = 3; },
  };
  for (size_t i = 0; i < corruptions.size(); ++i) {
    StatsInfo corrupt = valid;
    corruptions[i](&corrupt);
    EXPECT_FALSE(DecodeStats(StatsPayload(corrupt), &out)) << "case " << i;
  }
}

// No byte of a STATS payload is dead on the wire, for any mask: flipping
// it either fails the decode or decodes to a DIFFERENT message.
TEST(WireProtocolTest, StatsByteFlipsRejectOrDecodeDifferently) {
  for (uint8_t sections = 0; sections <= kStatsAllSections; ++sections) {
    StatsInfo msg;
    msg.request_id = 0x1122334455667788ull;
    msg.sections = sections;
    msg.self.node_id = "router:1";
    msg.self.is_router = 1;
    msg.self.metrics = "dflow_x 1\n";
    msg.self.health.status = 1;
    msg.self.health.completed = 9;
    msg.self.health.events.push_back(WireEvent{5, 1, 123, "n", "d"});
    msg.self.health.series.push_back(WireHealthSample{});
    msg.self.profile.sample_period = 64;
    msg.self.profile.attrs.push_back(WireAttrProfile{4, "a4", 9, 40, 1, 5, 8});
    msg.self.profile.conds.push_back(WireCondProfile{4, "a4", 7, 5, 2, 0, 1});
    msg.self.profile.classes.push_back(
        WireClassProfile{0xabcd, 3, 120, 5, 1, 2});
    msg.self.profile.plan_dot = "digraph G {}";
    NodeStats backend;
    backend.node_id = "serve:1";
    msg.backends.push_back(backend);
    // Sections the mask leaves out do not travel: decode compares against
    // the message as it survives the trip.
    StatsInfo expected;
    ASSERT_TRUE(DecodeStats(StatsPayload(msg), &expected));
    const std::vector<uint8_t> payload = StatsPayload(expected);
    for (size_t i = 0; i < payload.size(); ++i) {
      std::vector<uint8_t> corrupt = payload;
      corrupt[i] = static_cast<uint8_t>(corrupt[i] ^ 0xff);
      StatsInfo reparsed;
      if (DecodeStats(corrupt, &reparsed)) {
        EXPECT_NE(reparsed, expected)
            << "byte " << i << " is dead on the wire (sections "
            << int{sections} << ")";
      }
    }
  }
}

// Truncating an encoded payload at every possible length must never
// decode successfully (and never crash): decoders are exact parsers.
TEST(WireProtocolPropertyTest, EveryTruncationOfAPayloadIsRejected) {
  Rng rng(99);
  for (int iteration = 0; iteration < 20; ++iteration) {
    std::vector<uint8_t> stream;
    const SubmitRequest submit = RandomSubmit(&rng);
    EncodeSubmit(submit, &stream);
    const std::vector<uint8_t> payload(stream.begin() + kFrameHeaderBytes,
                                       stream.end());
    SubmitRequest out;
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<uint8_t> truncated(payload.begin(),
                                           payload.begin() + cut);
      EXPECT_FALSE(DecodeSubmit(truncated, &out))
          << "decoded a " << cut << "-byte prefix of " << payload.size();
    }
    // Trailing garbage is rejected too, not silently ignored.
    std::vector<uint8_t> extended = payload;
    extended.push_back(0x5a);
    EXPECT_FALSE(DecodeSubmit(extended, &out));
  }
}

// The v7 batch frame round-trips like every other message, and its
// payload honors the fixed-offset contract: PeekRequestId on the raw
// payload reads the ticket-range base without decoding the body (what
// the ingress uses to answer even an undecodable batch attributably).
TEST(WireProtocolPropertyTest,
     RandomizedBatchSubmitsRoundTripThroughTheStream) {
  Rng rng(20260731);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const BatchSubmitRequest batch = RandomBatchSubmit(&rng);
    std::vector<uint8_t> stream;
    EncodeBatchSubmit(batch, &stream);
    EncodeGoodbye(&stream);

    WireError stream_error = WireError::kNone;
    const std::vector<Frame> frames =
        Reassemble(stream, rng.Next(), &stream_error);
    ASSERT_EQ(stream_error, WireError::kNone);
    ASSERT_EQ(frames.size(), 2u);
    ASSERT_EQ(frames[0].type, static_cast<uint8_t>(MsgType::kBatchSubmit));
    EXPECT_EQ(PeekRequestId(frames[0].payload), batch.request_id_base);
    BatchSubmitRequest batch_rt;
    ASSERT_TRUE(DecodeBatchSubmit(frames[0].payload, &batch_rt));
    EXPECT_EQ(batch_rt, batch);
    EXPECT_EQ(frames[1].type, static_cast<uint8_t>(MsgType::kGoodbye));
  }
}

// The batch decoder is an exact parser too: every truncation and any
// trailing garbage is rejected, never crashed on.
TEST(WireProtocolPropertyTest, EveryTruncationOfABatchPayloadIsRejected) {
  Rng rng(20260801);
  for (int iteration = 0; iteration < 20; ++iteration) {
    std::vector<uint8_t> stream;
    EncodeBatchSubmit(RandomBatchSubmit(&rng), &stream);
    const std::vector<uint8_t> payload(stream.begin() + kFrameHeaderBytes,
                                       stream.end());
    BatchSubmitRequest out;
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<uint8_t> truncated(payload.begin(),
                                           payload.begin() + cut);
      EXPECT_FALSE(DecodeBatchSubmit(truncated, &out))
          << "decoded a " << cut << "-byte prefix of " << payload.size();
    }
    std::vector<uint8_t> extended = payload;
    extended.push_back(0x5a);
    EXPECT_FALSE(DecodeBatchSubmit(extended, &out));
  }
}

// Batches share the singleton flag word, but kFlagHasTrace is out of
// range here (a batch carries no trace-context extension), unknown bits
// are a forward-compat error, and no single corrupted byte may silently
// decode back to the original message.
TEST(WireProtocolTest, BatchSubmitRejectsTraceFlagAndCorruptBytes) {
  BatchSubmitRequest msg;
  msg.request_id_base = 0x01020304;
  msg.strategy = "PSE100";
  for (int i = 0; i < 3; ++i) {
    BatchItem item;
    item.seed = static_cast<uint64_t>(100 + i);
    item.sources.emplace_back(static_cast<AttributeId>(i),
                              Value::Int(7 + i));
    msg.items.push_back(std::move(item));
  }
  std::vector<uint8_t> stream;
  EncodeBatchSubmit(msg, &stream);
  const std::vector<uint8_t> payload(stream.begin() + kFrameHeaderBytes,
                                     stream.end());
  BatchSubmitRequest out;
  ASSERT_TRUE(DecodeBatchSubmit(payload, &out));
  EXPECT_EQ(out, msg);

  // The flags u32 follows the u64 ticket base, at offset 8.
  std::vector<uint8_t> trace_flag = payload;
  trace_flag[8] |= 0x04;  // kFlagHasTrace: valid on a singleton, not here
  EXPECT_FALSE(DecodeBatchSubmit(trace_flag, &out));
  std::vector<uint8_t> unknown_flag = payload;
  unknown_flag[8] |= 0x80;
  EXPECT_FALSE(DecodeBatchSubmit(unknown_flag, &out));

  for (size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] == 0xff) continue;  // not a flip
    std::vector<uint8_t> corrupt = payload;
    corrupt[i] = 0xff;
    BatchSubmitRequest reparsed;
    if (DecodeBatchSubmit(corrupt, &reparsed)) {
      EXPECT_NE(reparsed, msg) << "byte " << i << " is dead on the wire";
    }
  }
}

TEST(WireProtocolTest, GarbageMagicKillsTheStream) {
  FrameAssembler assembler;
  const uint8_t garbage[] = {'X', 'Y', 1, 1, 0, 0, 0, 0};
  assembler.Feed(garbage, sizeof(garbage));
  EXPECT_FALSE(assembler.Next().has_value());
  EXPECT_EQ(assembler.error(), WireError::kMalformedFrame);
  // Poisoned forever, even if valid bytes follow.
  std::vector<uint8_t> valid;
  EncodeGoodbye(&valid);
  assembler.Feed(valid.data(), valid.size());
  EXPECT_FALSE(assembler.Next().has_value());
  EXPECT_EQ(assembler.error(), WireError::kMalformedFrame);
}

// One version, strictly: an older stamp is as foreign as a newer one.
TEST(WireProtocolTest, WrongVersionIsRejected) {
  for (const int version : {kWireVersion - 1, kWireVersion + 1}) {
    std::vector<uint8_t> stream;
    EncodeGoodbye(&stream);
    stream[2] = static_cast<uint8_t>(version);
    FrameAssembler assembler;
    assembler.Feed(stream.data(), stream.size());
    EXPECT_FALSE(assembler.Next().has_value());
    EXPECT_EQ(assembler.error(), WireError::kUnsupportedVersion) << version;
  }
}

TEST(WireProtocolTest, OversizedFrameIsRejectedBeforeBuffering) {
  FrameAssembler assembler(/*max_payload_bytes=*/64);
  // A valid header announcing a 65-byte payload: must fail immediately,
  // without waiting for (or buffering) the announced payload.
  const uint8_t header[] = {'D', 'F', kWireVersion, 1, 65, 0, 0, 0};
  assembler.Feed(header, sizeof(header));
  EXPECT_FALSE(assembler.Next().has_value());
  EXPECT_EQ(assembler.error(), WireError::kFrameTooLarge);
}

TEST(WireProtocolTest, PartialHeaderAndPayloadWaitWithoutError) {
  std::vector<uint8_t> stream;
  EncodeError(ErrorReply{7, WireError::kRejectedBusy, "busy"}, &stream);
  FrameAssembler assembler;
  // Header minus one byte: no frame, no error.
  assembler.Feed(stream.data(), kFrameHeaderBytes - 1);
  EXPECT_FALSE(assembler.Next().has_value());
  EXPECT_EQ(assembler.error(), WireError::kNone);
  // Full header, payload minus one byte: still waiting.
  assembler.Feed(stream.data() + kFrameHeaderBytes - 1,
                 stream.size() - kFrameHeaderBytes);
  EXPECT_FALSE(assembler.Next().has_value());
  EXPECT_EQ(assembler.error(), WireError::kNone);
  // Last byte: the frame pops.
  assembler.Feed(stream.data() + stream.size() - 1, 1);
  const std::optional<Frame> frame = assembler.Next();
  ASSERT_TRUE(frame.has_value());
  ErrorReply reply;
  ASSERT_TRUE(DecodeError(frame->payload, &reply));
  EXPECT_EQ(reply.request_id, 7u);
  EXPECT_EQ(reply.code, WireError::kRejectedBusy);
  EXPECT_EQ(reply.message, "busy");
}

TEST(WireProtocolTest, UnknownMessageTypeIsSurfacedNotSwallowed) {
  std::vector<uint8_t> stream;
  EncodeGoodbye(&stream);
  stream[3] = 0x7f;  // not a MsgType
  FrameAssembler assembler;
  assembler.Feed(stream.data(), stream.size());
  const std::optional<Frame> frame = assembler.Next();
  ASSERT_TRUE(frame.has_value());  // framing-valid: caller decides
  EXPECT_EQ(frame->type, 0x7f);
  EXPECT_EQ(assembler.error(), WireError::kNone);
}

TEST(WireProtocolTest, SubmitRejectsUnknownFlagsAndBadValueTags) {
  SubmitRequest msg;
  msg.request_id = 1;
  msg.sources.emplace_back(0, Value::Int(3));
  std::vector<uint8_t> stream;
  EncodeSubmit(msg, &stream);
  std::vector<uint8_t> payload(stream.begin() + kFrameHeaderBytes,
                               stream.end());
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmit(payload, &out));

  // Flag bits beyond the defined ones are a forward-compat error.
  std::vector<uint8_t> bad_flags = payload;
  bad_flags[16] = 0x80;  // flags u32 starts at offset 16
  EXPECT_FALSE(DecodeSubmit(bad_flags, &out));

  // Value type tag out of range (the binding's value tag is the byte
  // after request_id+seed+flags+strategy_len+count+attr = 32).
  std::vector<uint8_t> bad_tag = payload;
  bad_tag[32] = 0x66;
  EXPECT_FALSE(DecodeSubmit(bad_tag, &out));
}

TEST(WireProtocolTest, ErrorCodesHaveStableNames) {
  EXPECT_STREQ(ToString(WireError::kRejectedBusy), "REJECTED_BUSY");
  EXPECT_STREQ(ToString(WireError::kMalformedFrame), "MALFORMED_FRAME");
  EXPECT_STREQ(ToString(WireError::kShuttingDown), "SHUTTING_DOWN");
  EXPECT_STREQ(ToString(WireError::kFrameTooLarge), "FRAME_TOO_LARGE");
  EXPECT_STREQ(ToString(WireError::kBackendUnavailable),
               "BACKEND_UNAVAILABLE");
}

// The router's forwarding path: splitting a frame off the stream and
// re-framing its payload byte-for-byte must reproduce the original frame.
TEST(WireProtocolTest, RawReframingIsTheIdentityOnTheStream) {
  Rng rng(4242);
  std::vector<uint8_t> stream;
  EncodeSubmitResult(RandomSubmitResult(&rng), &stream);
  EncodeError(RandomError(&rng), &stream);
  FrameAssembler assembler;
  assembler.Feed(stream.data(), stream.size());
  std::vector<uint8_t> reframed;
  while (std::optional<Frame> frame = assembler.Next()) {
    EncodeRawFrame(frame->type, frame->payload, &reframed);
  }
  ASSERT_EQ(assembler.error(), WireError::kNone);
  EXPECT_EQ(reframed, stream);
}

// The fixed offsets the routing tier peeks and patches without decoding:
// each names where its field really lands in an encoded payload.
TEST(WireProtocolTest, NamedPayloadOffsetsMatchTheEncodedFields) {
  SubmitRequest submit;
  submit.request_id = 0x0102030405060708ull;
  submit.seed = 0x1112131415161718ull;
  submit.strategy = "PSE100";
  submit.sources.emplace_back(3, Value::String("abc"));
  std::vector<uint8_t> stream;
  EncodeSubmit(submit, &stream);
  std::vector<uint8_t> payload = PayloadOf(stream);
  ASSERT_GE(payload.size(), kSubmitPeekBytes);
  EXPECT_EQ(PeekRequestId(payload), submit.request_id);
  EXPECT_EQ(ReadLe64(payload.data() + kSubmitSeedOffset), submit.seed);
  EXPECT_EQ(payload[kSubmitFlagsOffset] & kSubmitFlagHasTrace, 0);
  EXPECT_EQ(kSubmitPeekBytes, kSubmitFlagsOffset + sizeof(uint32_t));

  // Setting the has-trace bit and appending the extension, as the router
  // does, yields exactly the payload a traced submit encodes to.
  submit.has_trace = true;
  submit.trace_id = 0x2122232425262728ull;
  payload[kSubmitFlagsOffset] |= kSubmitFlagHasTrace;
  uint8_t extension[kSubmitTraceExtensionBytes] = {0};
  WriteLe64(submit.trace_id, extension);
  payload.insert(payload.end(), extension,
                 extension + kSubmitTraceExtensionBytes);
  stream.clear();
  EncodeSubmit(submit, &stream);
  EXPECT_EQ(payload, PayloadOf(stream));
  EXPECT_EQ(ReadLe64(payload.data() + payload.size() -
                     kSubmitTraceExtensionBytes),
            submit.trace_id);

  SubmitResult result;
  result.request_id = 0x3132333435363738ull;
  result.shard = 5;
  result.strategy = "PCE0";
  result.fingerprint = 0x4142434445464748ull;
  stream.clear();
  EncodeSubmitResult(result, &stream);
  payload = PayloadOf(stream);
  EXPECT_EQ(PeekRequestId(payload), result.request_id);
  ASSERT_GE(payload.size(), kResultFingerprintOffset + sizeof(uint64_t));
  EXPECT_EQ(ReadLe64(payload.data() + kResultFingerprintOffset),
            result.fingerprint);

  const ErrorReply error{0x5152535455565758ull, WireError::kShuttingDown,
                         "draining"};
  stream.clear();
  EncodeError(error, &stream);
  payload = PayloadOf(stream);
  EXPECT_EQ(PeekRequestId(payload), error.request_id);
  EXPECT_EQ(ReadLe16(payload.data() + kErrorCodeOffset),
            static_cast<uint16_t>(error.code));
  EXPECT_EQ(kRequestIdBytes, sizeof(uint64_t));
}

// EncodeSubmitResult sizes its frame before writing it: into an empty
// buffer it allocates exactly once, exactly the frame.
TEST(WireProtocolPropertyTest, SubmitResultReservesExactlyItsFrame) {
  Rng rng(20261020);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<uint8_t> frame;
    EncodeSubmitResult(RandomSubmitResult(&rng), &frame);
    EXPECT_EQ(frame.capacity(), frame.size());
  }
}

// --- Golden wire bytes. One fully populated instance of every message
// type, encoded and compared against checked-in hex. Round-trip tests pass
// any self-consistent layout change; these pin the bytes themselves, so a
// codec rewrite that reorders, widens or drops a field fails here. Every
// field holds a distinct nonzero value, so a swapped pair shows too.

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// The one frame `stream` holds, split off by a FrameAssembler, with its
// type checked.
Frame OnlyFrame(const std::vector<uint8_t>& stream, MsgType type) {
  FrameAssembler assembler;
  assembler.Feed(stream.data(), stream.size());
  std::optional<Frame> frame = assembler.Next();
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  if (!frame.has_value()) return Frame{};
  EXPECT_EQ(frame->type, static_cast<uint8_t>(type));
  return std::move(*frame);
}

core::SourceBinding GoldenSources() {
  return {{3, Value::Null()},
          {4, Value::Bool(true)},
          {5, Value::Int(-2)},
          {6, Value::Double(1.5)},
          {7, Value::String("ab")}};
}

SubmitRequest GoldenSubmit(bool has_trace) {
  SubmitRequest msg;
  msg.request_id = 0x0102030405060708ull;
  msg.seed = 0x1112131415161718ull;
  // blocking differs from want_snapshot, and has_trace differs from one of
  // them in each variant, so swapping any two flag bits shows.
  msg.blocking = true;
  msg.want_snapshot = false;
  msg.strategy = "PSE100";
  msg.sources = GoldenSources();
  msg.has_trace = has_trace;
  if (has_trace) msg.trace_id = 0x2122232425262728ull;
  return msg;
}

BatchSubmitRequest GoldenBatchSubmit() {
  BatchSubmitRequest msg;
  msg.request_id_base = 0x0a0b0c0d0e0f1011ull;
  msg.blocking = false;
  msg.want_snapshot = true;
  msg.strategy = "NCC0";
  msg.items.push_back(BatchItem{0x3132333435363738ull, GoldenSources()});
  msg.items.push_back(BatchItem{0x41ull, {{9, Value::Int(77)}}});
  return msg;
}

SubmitResult GoldenSubmitResult() {
  SubmitResult msg;
  msg.request_id = 0x5152535455565758ull;
  msg.shard = 3;
  msg.work = 1234;
  msg.wasted_work = 56;
  msg.response_time = 78.25;
  msg.queries_launched = 9;
  msg.speculative_launches = 2;
  msg.fingerprint = 0x6162636465666768ull;
  msg.strategy = "PCE0";
  msg.has_snapshot = true;
  msg.snapshot = {
      SnapshotEntry{0, core::AttrState::kValue, Value::Int(5)},
      SnapshotEntry{1, core::AttrState::kDisabled, Value::Null()},
      SnapshotEntry{2, core::AttrState::kReady, Value::String("x")},
  };
  msg.trace_id = 0x7172737475767778ull;
  msg.spans = {WireSpan{1, 100, 200}, WireSpan{7, 0, 300}};
  return msg;
}

ErrorReply GoldenError() {
  return ErrorReply{0x8182838485868788ull, WireError::kRejectedBusy,
                    "queue full"};
}

ServerInfo GoldenInfo() {
  ServerInfo msg;
  msg.num_shards = 4;
  msg.strategy = "PSE80";
  msg.backend = 1;
  msg.queue_capacity_per_shard = 256;
  msg.completed = 1001;
  msg.rejected = 1002;
  msg.cache_hits = 1003;
  msg.cache_misses = 1004;
  msg.node_id = "router:4600";
  msg.fleet_epoch = 7;
  runtime::IngressStats& s = msg.ingress;
  s.connections_opened = 11;
  s.connections_closed = 12;
  s.requests_accepted = 13;
  s.requests_rejected_busy = 14;
  s.requests_rejected_shutdown = 15;
  s.decode_errors = 16;
  s.protocol_errors = 17;
  s.info_requests = 18;
  s.bytes_in = 19;
  s.bytes_out = 20;
  s.outbox_inflight_hwm = 21;
  s.outbox_bytes_written = 22;
  s.outbox_write_stalls = 23;
  msg.router.is_router = 1;
  msg.router.replicas = 2;
  msg.router.failovers = 31;
  msg.router.divergence_checks = 32;
  msg.router.divergence_mismatches = 33;
  msg.router.divergence_incomplete = 34;
  msg.router.backends.push_back(RouterBackendStats{
      "127.0.0.1:4501", "serve:4501", 1, 2, 0, 1, 41, 42, 43, 44, 45});
  msg.router.backends.push_back(RouterBackendStats{
      "127.0.0.1:4502", "", 0, 3, 1, 0, 51, 52, 53, 54, 55});
  msg.advisor.enabled = 1;
  msg.advisor.fingerprint = 0x9192939495969798ull;
  msg.advisor.selections = 61;
  msg.advisor.explores = 62;
  msg.advisor.by_strategy = {{"PCE0", 63}, {"PSE100", 64}};
  return msg;
}

NodeStats GoldenNodeStats(const std::string& node_id, int64_t base) {
  NodeStats node;
  node.node_id = node_id;
  node.is_router = base == 100 ? 1 : 0;
  node.metrics = "dflow_x " + std::to_string(base) + "\n";
  NodeHealth& health = node.health;
  health.status = 1;
  health.completed = base + 1;
  health.failovers = base + 2;
  health.divergence_checks = base + 3;
  health.divergence_mismatches = base + 4;
  health.events_total = base + 5;
  health.series.push_back(WireHealthSample{base + 6, 0.5, 1000.25, 0.125,
                                           0.75, 2.5, 17, 0.0625, 2});
  health.events.push_back(WireEvent{5, 2, base + 7, node_id, "drop"});
  NodeProfile& profile = node.profile;
  profile.sample_period = 64;
  profile.profiled_requests = base + 8;
  profile.total_requests = base + 9;
  profile.attrs.push_back(
      WireAttrProfile{4, "a4", base + 10, base + 11, base + 12, base + 13,
                      base + 14});
  profile.conds.push_back(
      WireCondProfile{5, "a5", base + 15, base + 16, base + 17, base + 18,
                      base + 19});
  profile.classes.push_back(WireClassProfile{
      0xa1a2a3a4a5a6a7a8ull, base + 20, base + 21, base + 22, base + 23,
      base + 24});
  profile.plan_dot = "digraph G {}";
  return node;
}

StatsInfo GoldenStats() {
  StatsInfo msg;
  msg.request_id = 0xb1b2b3b4b5b6b7b8ull;
  msg.sections = kStatsAllSections;
  msg.self = GoldenNodeStats("router:1", 100);
  msg.backends.push_back(GoldenNodeStats("serve:1", 200));
  msg.backends.push_back(GoldenNodeStats("serve:2", 300));
  return msg;
}

TEST(WireProtocolGoldenTest, SubmitWithoutTraceMatchesCheckedInBytes) {
  std::vector<uint8_t> stream;
  EncodeSubmit(GoldenSubmit(false), &stream);
  EXPECT_EQ(Hex(stream),
            "4446090152000000080706050403020118171615141312110100000006000000"
            "5053453130300500000003000000000400000001010500000002feffffffffff"
            "ffff0600000003000000000000f83f0700000004020000006162");
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmit(OnlyFrame(stream, MsgType::kSubmit).payload, &out));
  EXPECT_EQ(out, GoldenSubmit(false));
}

TEST(WireProtocolGoldenTest, SubmitWithTraceMatchesCheckedInBytes) {
  std::vector<uint8_t> stream;
  EncodeSubmit(GoldenSubmit(true), &stream);
  EXPECT_EQ(Hex(stream),
            "444609015b000000080706050403020118171615141312110500000006000000"
            "5053453130300500000003000000000400000001010500000002feffffffffff"
            "ffff0600000003000000000000f83f0700000004020000006162282726252423"
            "222100");
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmit(OnlyFrame(stream, MsgType::kSubmit).payload, &out));
  EXPECT_EQ(out, GoldenSubmit(true));
}

TEST(WireProtocolGoldenTest, BatchSubmitMatchesCheckedInBytes) {
  std::vector<uint8_t> stream;
  EncodeBatchSubmit(GoldenBatchSubmit(), &stream);
  EXPECT_EQ(Hex(stream),
            "4446090c6d00000011100f0e0d0c0b0a02000000040000004e43433002000000"
            "38373635343332310500000003000000000400000001010500000002feffffff"
            "ffffffff0600000003000000000000f83f070000000402000000616241000000"
            "000000000100000009000000024d00000000000000");
  BatchSubmitRequest out;
  ASSERT_TRUE(DecodeBatchSubmit(
      OnlyFrame(stream, MsgType::kBatchSubmit).payload, &out));
  EXPECT_EQ(out, GoldenBatchSubmit());
}

TEST(WireProtocolGoldenTest, SubmitResultMatchesCheckedInBytes) {
  std::vector<uint8_t> stream;
  EncodeSubmitResult(GoldenSubmitResult(), &stream);
  EXPECT_EQ(Hex(stream),
            "444609028b000000585756555453525103000000d20400000000000038000000"
            "0000000000000000009053400900000002000000686766656463626104000000"
            "5043453001030000000000000005020500000000000000010000000600020000"
            "00020401000000787877767574737271016400000000000000c8000000000000"
            "000700000000000000002c0100000000000002");
  SubmitResult out;
  ASSERT_TRUE(DecodeSubmitResult(
      OnlyFrame(stream, MsgType::kSubmitResult).payload, &out));
  EXPECT_EQ(out, GoldenSubmitResult());
}

TEST(WireProtocolGoldenTest, ErrorMatchesCheckedInBytes) {
  std::vector<uint8_t> stream;
  EncodeError(GoldenError(), &stream);
  EXPECT_EQ(Hex(stream),
            "4446090318000000888786858483828101000a00000071756575652066756c6c");
  ErrorReply out;
  ASSERT_TRUE(DecodeError(OnlyFrame(stream, MsgType::kError).payload, &out));
  EXPECT_EQ(out, GoldenError());
}

TEST(WireProtocolGoldenTest, InfoMatchesCheckedInBytes) {
  std::vector<uint8_t> stream;
  EncodeInfo(GoldenInfo(), &stream);
  EXPECT_EQ(Hex(stream),
            "44460905bd01000004000000050000005053453830010001000000000000e903"
            "000000000000ea03000000000000eb03000000000000ec030000000000000b00"
            "0000726f757465723a3436303007000000000000000b000000000000000c0000"
            "00000000000d000000000000000e000000000000000f00000000000000100000"
            "0000000000110000000000000012000000000000001300000000000000140000"
            "0000000000150000000000000016000000000000001700000000000000010200"
            "00001f0000000000000020000000000000002100000000000000220000000000"
            "0000020000000e0000003132372e302e302e313a343530310a00000073657276"
            "653a343530310102000000000000000100000029000000000000002a00000000"
            "0000002b000000000000002c000000000000002d000000000000000e00000031"
            "32372e302e302e313a3435303200000000000300000001000000000000003300"
            "0000000000003400000000000000350000000000000036000000000000003700"
            "0000000000000198979695949392913d000000000000003e0000000000000002"
            "00000004000000504345303f0000000000000006000000505345313030400000"
            "0000000000");
  ServerInfo out;
  ASSERT_TRUE(DecodeInfo(OnlyFrame(stream, MsgType::kInfo).payload, &out));
  EXPECT_EQ(out, GoldenInfo());
}

TEST(WireProtocolGoldenTest, StatsRequestMatchesCheckedInBytes) {
  const StatsRequest msg{0xc1c2c3c4c5c6c7c8ull, kStatsAllSections};
  std::vector<uint8_t> stream;
  EncodeStatsRequest(msg, &stream);
  EXPECT_EQ(Hex(stream),
            "4446090f09000000c8c7c6c5c4c3c2c107");
  StatsRequest out;
  ASSERT_TRUE(DecodeStatsRequest(
      OnlyFrame(stream, MsgType::kStatsRequest).payload, &out));
  EXPECT_EQ(out, msg);
}

TEST(WireProtocolGoldenTest, StatsMatchesCheckedInBytes) {
  std::vector<uint8_t> stream;
  EncodeStats(GoldenStats(), &stream);
  EXPECT_EQ(Hex(stream),
            "4446091068040000b8b7b6b5b4b3b2b10708000000726f757465723a31010c00"
            "000064666c6f775f78203130300a016500000000000000660000000000000067"
            "0000000000000068000000000000006900000000000000010000006a00000000"
            "000000000000000000e03f0000000000428f40000000000000c03f0000000000"
            "00e83f00000000000004401100000000000000000000000000b03f0201000000"
            "05026b0000000000000008000000726f757465723a310400000064726f704000"
            "0000000000006c000000000000006d0000000000000001000000040000000200"
            "000061346e000000000000006f00000000000000700000000000000071000000"
            "0000000072000000000000000100000005000000020000006135730000000000"
            "0000740000000000000075000000000000007600000000000000770000000000"
            "000001000000a8a7a6a5a4a3a2a1780000000000000079000000000000007a00"
            "0000000000007b000000000000007c000000000000000c000000646967726170"
            "682047207b7d020000000700000073657276653a31000c00000064666c6f775f"
            "78203230300a01c900000000000000ca00000000000000cb00000000000000cc"
            "00000000000000cd0000000000000001000000ce000000000000000000000000"
            "00e03f0000000000428f40000000000000c03f000000000000e83f0000000000"
            "0004401100000000000000000000000000b03f02010000000502cf0000000000"
            "00000700000073657276653a310400000064726f704000000000000000d00000"
            "0000000000d1000000000000000100000004000000020000006134d200000000"
            "000000d300000000000000d400000000000000d500000000000000d600000000"
            "0000000100000005000000020000006135d700000000000000d8000000000000"
            "00d900000000000000da00000000000000db0000000000000001000000a8a7a6"
            "a5a4a3a2a1dc00000000000000dd00000000000000de00000000000000df0000"
            "0000000000e0000000000000000c000000646967726170682047207b7d070000"
            "0073657276653a32000c00000064666c6f775f78203330300a012d0100000000"
            "00002e010000000000002f010000000000003001000000000000310100000000"
            "0000010000003201000000000000000000000000e03f0000000000428f400000"
            "00000000c03f000000000000e83f000000000000044011000000000000000000"
            "00000000b03f0201000000050233010000000000000700000073657276653a32"
            "0400000064726f70400000000000000034010000000000003501000000000000"
            "0100000004000000020000006134360100000000000037010000000000003801"
            "00000000000039010000000000003a0100000000000001000000050000000200"
            "000061353b010000000000003c010000000000003d010000000000003e010000"
            "000000003f0100000000000001000000a8a7a6a5a4a3a2a14001000000000000"
            "4101000000000000420100000000000043010000000000004401000000000000"
            "0c000000646967726170682047207b7d");
  StatsInfo out;
  ASSERT_TRUE(DecodeStats(OnlyFrame(stream, MsgType::kStats).payload, &out));
  EXPECT_EQ(out, GoldenStats());
}

// The payloadless frames are a bare header.
TEST(WireProtocolGoldenTest, PayloadlessFramesMatchCheckedInBytes) {
  const std::pair<void (*)(std::vector<uint8_t>*), MsgType> frames[] = {
      {EncodeInfoRequest, MsgType::kInfoRequest},
      {EncodeGoodbye, MsgType::kGoodbye},
      {EncodeGoodbyeAck, MsgType::kGoodbyeAck},
  };
  const char* golden[] = {"4446090400000000", "4446090600000000", "4446090700000000"};
  for (size_t i = 0; i < 3; ++i) {
    std::vector<uint8_t> stream;
    frames[i].first(&stream);
    EXPECT_EQ(Hex(stream), golden[i]);
    EXPECT_TRUE(OnlyFrame(stream, frames[i].second).payload.empty());
  }
}

}  // namespace
}  // namespace dflow::net
