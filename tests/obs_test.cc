#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/wire_protocol.h"
#include "obs/metrics_registry.h"

namespace dflow {
namespace {

using obs::RequestTrace;
using obs::SpanKind;
using obs::TraceRecorder;
using obs::TraceRecorderOptions;

// --- Sampling determinism.

TEST(TraceSamplingTest, PeriodZeroNeverSamplesPeriodOneAlwaysDoes) {
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    EXPECT_FALSE(TraceRecorder::SampledBySeed(seed, 0));
    EXPECT_TRUE(TraceRecorder::SampledBySeed(seed, 1));
  }
}

TEST(TraceSamplingTest, SamplingIsAPureFunctionOfTheSeed) {
  // The whole point of seed-hash sampling: every node of a fleet makes the
  // same decision for the same request, so cross-node traces join. Also
  // sanity-check the rate lands in the right ballpark for 1/16.
  int sampled = 0;
  for (uint64_t seed = 0; seed < 4096; ++seed) {
    const bool a = TraceRecorder::SampledBySeed(seed, 16);
    const bool b = TraceRecorder::SampledBySeed(seed, 16);
    EXPECT_EQ(a, b);
    sampled += a ? 1 : 0;
  }
  EXPECT_GT(sampled, 4096 / 16 / 2);
  EXPECT_LT(sampled, 4096 / 16 * 2);
}

TEST(TraceRecorderTest, ShouldTraceFollowsSamplingUnlessSlowLogArmsAll) {
  TraceRecorderOptions sampled_options;
  sampled_options.sample_period = 16;
  TraceRecorder sampled(sampled_options);
  EXPECT_TRUE(sampled.enabled());
  int hits = 0;
  for (uint64_t seed = 0; seed < 256; ++seed) {
    EXPECT_EQ(sampled.ShouldTrace(seed),
              TraceRecorder::SampledBySeed(seed, 16));
    hits += sampled.ShouldTrace(seed) ? 1 : 0;
  }
  EXPECT_LT(hits, 256);  // sampling is actually selective

  TraceRecorderOptions slow_options;
  slow_options.slow_ms = 5;  // slow log armed: EVERY request is traced
  TraceRecorder slow(slow_options);
  EXPECT_TRUE(slow.enabled());
  for (uint64_t seed = 0; seed < 256; ++seed) {
    EXPECT_TRUE(slow.ShouldTrace(seed));
  }

  TraceRecorder off(TraceRecorderOptions{});
  EXPECT_FALSE(off.enabled());
  for (uint64_t seed = 0; seed < 256; ++seed) {
    EXPECT_FALSE(off.ShouldTrace(seed));
  }
}

// --- Trace identity.

TEST(TraceRecorderTest, BeginAssignsNonzeroUniqueIdsAndAdoptsUpstreamIds) {
  TraceRecorderOptions options;
  options.sample_period = 1;
  TraceRecorder recorder(options);
  const auto a = recorder.Begin(/*seed=*/7);
  const auto b = recorder.Begin(/*seed=*/7);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->trace_id(), 0u);
  EXPECT_NE(b->trace_id(), 0u);
  EXPECT_NE(a->trace_id(), b->trace_id());  // same seed, distinct requests

  // A propagated id (router-minted) is adopted verbatim.
  const auto adopted = recorder.Begin(/*seed=*/7, /*trace_id=*/0xabcdef12u);
  EXPECT_EQ(adopted->trace_id(), 0xabcdef12u);
  EXPECT_EQ(recorder.started(), 3);
}

// --- Span structure and invariants.

RequestTrace::View MakePipelineView() {
  RequestTrace trace(/*trace_id=*/42, /*seed=*/9, /*begin_ns=*/1000);
  trace.SetEnqueue(1100);
  trace.AddSpan(SpanKind::kIngressQueue, 1000, 1100);
  trace.AddSpan(SpanKind::kShardQueueWait, 1100, 1500);
  trace.AddSpan(SpanKind::kCacheLookup, 1500, 1510);
  trace.AddSpan(SpanKind::kHarnessExec, 1510, 2500);
  trace.AddSpan(SpanKind::kOutboxWrite, 2500, 2600);
  trace.SetExecution(/*shard=*/3, /*queue_depth=*/5, "PSE100",
                     /*cache_hit=*/false);
  return trace.Snapshot();
}

TEST(RequestTraceTest, SnapshotCarriesSpansAndExecutionFacts) {
  const RequestTrace::View view = MakePipelineView();
  EXPECT_EQ(view.trace_id, 42u);
  EXPECT_EQ(view.seed, 9u);
  EXPECT_EQ(view.shard, 3);
  EXPECT_EQ(view.queue_depth, 5u);
  EXPECT_EQ(view.strategy, "PSE100");
  EXPECT_FALSE(view.cache_hit);
  ASSERT_EQ(view.spans.size(), 5u);
  // Starts are stored relative to begin_ns.
  EXPECT_EQ(view.spans[0].kind, SpanKind::kIngressQueue);
  EXPECT_EQ(view.spans[0].start_ns, 0u);
  EXPECT_EQ(view.spans[0].duration_ns, 100u);
  EXPECT_EQ(view.spans[1].start_ns, 100u);
  EXPECT_EQ(view.spans[1].duration_ns, 400u);
}

TEST(RequestTraceTest, StartsBeforeBeginAreClampedNotUnderflowed) {
  RequestTrace trace(1, 1, /*begin_ns=*/1000);
  trace.AddSpan(SpanKind::kIngressQueue, /*start_abs_ns=*/500,
                /*end_abs_ns=*/1200);
  const RequestTrace::View view = trace.Snapshot();
  ASSERT_EQ(view.spans.size(), 1u);
  EXPECT_EQ(view.spans[0].start_ns, 0u);  // clamped, not ~2^64
  EXPECT_EQ(view.spans[0].duration_ns, 700u);
}

TEST(SpanStructureTest, StructureIsDeterministicAndOrderedByStart) {
  EXPECT_EQ(obs::SpanStructure(MakePipelineView()),
            "ingress.queue;shard.queue_wait;cache.lookup;harness.exec;"
            "outbox.write");
}

TEST(ValidateSpansTest, AcceptsAWellFormedPipelineTrace) {
  std::string error;
  EXPECT_TRUE(obs::ValidateSpans(MakePipelineView(), &error)) << error;
}

TEST(ValidateSpansTest, RejectsDuplicateKindsAndPipelineOrderViolations) {
  std::string error;
  {
    RequestTrace trace(1, 1, 0);
    trace.AddSpan(SpanKind::kHarnessExec, 0, 10);
    trace.AddSpan(SpanKind::kHarnessExec, 10, 20);  // duplicate kind
    EXPECT_FALSE(obs::ValidateSpans(trace.Snapshot(), &error));
  }
  {
    RequestTrace trace(1, 1, 0);
    // harness.exec starts before shard.queue_wait: a later pipeline stage
    // must not start before an earlier one.
    trace.AddSpan(SpanKind::kHarnessExec, 10, 20);
    trace.AddSpan(SpanKind::kShardQueueWait, 30, 40);
    EXPECT_FALSE(obs::ValidateSpans(trace.Snapshot(), &error));
  }
}

// --- Recorder ring, JSONL sink, slow log.

TEST(TraceRecorderTest, RingIsBoundedAndOldestFirst) {
  TraceRecorderOptions options;
  options.sample_period = 1;
  options.ring_capacity = 4;
  TraceRecorder recorder(options);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto trace = recorder.Begin(seed);
    recorder.Finish(trace, /*wall_ns=*/seed * 100);
  }
  const std::vector<RequestTrace::View> completed = recorder.Completed();
  ASSERT_EQ(completed.size(), 4u);
  EXPECT_EQ(completed.front().seed, 6u);  // 0..5 evicted
  EXPECT_EQ(completed.back().seed, 9u);
  EXPECT_EQ(recorder.finished(), 10);
}

TEST(TraceRecorderTest, JsonlSinkAppendsOneParseableLinePerTrace) {
  const std::string path =
      ::testing::TempDir() + "/obs_test_traces.jsonl";
  std::remove(path.c_str());
  {
    TraceRecorderOptions options;
    options.sample_period = 1;
    options.jsonl_path = path;
    TraceRecorder recorder(options, /*node=*/"test-node");
    const auto trace = recorder.Begin(/*seed=*/77, /*trace_id=*/0x1234);
    trace->AddSpan(SpanKind::kIngressQueue, trace->begin_ns(),
                   trace->begin_ns() + 500);
    recorder.Finish(trace, /*wall_ns=*/12345);
  }  // destructor flushes + closes the sink
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char line[1024] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
  std::fclose(file);
  const std::string text = line;
  EXPECT_NE(text.find("\"trace_id\":\"0000000000001234\""),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"seed\":77"), std::string::npos) << text;
  EXPECT_NE(text.find("\"node\":\"test-node\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"name\":\"ingress.queue\""), std::string::npos)
      << text;
  std::remove(path.c_str());
}

// Node ids and strategies are operator-chosen strings: a quote or a
// backslash in either must come out escaped, never break the JSONL line.
TEST(TraceRecorderTest, JsonlSinkEscapesNodeAndStrategy) {
  const std::string path =
      ::testing::TempDir() + "/obs_test_escaped_traces.jsonl";
  std::remove(path.c_str());
  {
    TraceRecorderOptions options;
    options.sample_period = 1;
    options.jsonl_path = path;
    TraceRecorder recorder(options, /*node=*/"x\"y\\z");
    const auto trace = recorder.Begin(/*seed=*/5);
    trace->SetExecution(/*shard=*/0, /*queue_depth=*/0, "P\"S\\E",
                        /*cache_hit=*/false);
    recorder.Finish(trace, /*wall_ns=*/100);
  }
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char line[1024] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
  std::fclose(file);
  const std::string text = line;
  EXPECT_NE(text.find(R"("node":"x\"y\\z")"), std::string::npos) << text;
  EXPECT_NE(text.find(R"("strategy":"P\"S\\E")"), std::string::npos)
      << text;
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, SlowLogCountsOnlyTracesOverTheThreshold) {
  TraceRecorderOptions options;
  options.slow_ms = 1.0;  // 1ms
  TraceRecorder recorder(options);
  recorder.Finish(recorder.Begin(1), /*wall_ns=*/500'000);    // 0.5ms: fast
  recorder.Finish(recorder.Begin(2), /*wall_ns=*/5'000'000);  // 5ms: slow
  EXPECT_EQ(recorder.slow_logged(), 1);
  EXPECT_EQ(recorder.finished(), 2);
}

TEST(TraceRecorderTest, ToJsonLineIsStableForAFixedView) {
  RequestTrace::View view;
  view.trace_id = 0xff;
  view.seed = 3;
  view.shard = 1;
  view.queue_depth = 2;
  view.strategy = "NCC0";
  view.cache_hit = true;
  view.wall_ns = 1500;
  view.spans.push_back({SpanKind::kHarnessExec, 10, 20});
  const std::string a = obs::ToJsonLine(view, "n");
  const std::string b = obs::ToJsonLine(view, "n");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"cache_hit\":true"), std::string::npos) << a;
  EXPECT_NE(a.find("\"strategy\":\"NCC0\""), std::string::npos) << a;
}

// --- Metrics registry.

TEST(MetricsRegistryTest, RenderTextEmitsPrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.AddCounter("dflow_test_total", {}, [] { return int64_t{41}; });
  registry.AddCounter("dflow_test_total", {{"shard", "1"}},
                      [] { return int64_t{1}; });
  registry.AddGauge("dflow_depth", {{"shard", "0"}}, [] { return 2.5; });
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE dflow_test_total counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dflow_test_total 41"), std::string::npos) << text;
  EXPECT_NE(text.find("dflow_test_total{shard=\"1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dflow_depth gauge"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dflow_depth{shard=\"0\"} 2.5"), std::string::npos)
      << text;
  // One # TYPE line per family, not per series.
  size_t count = 0, at = 0;
  while ((at = text.find("# TYPE dflow_test_total", at)) !=
         std::string::npos) {
    ++count;
    ++at;
  }
  EXPECT_EQ(count, 1u);
}

TEST(MetricsRegistryTest, HistogramBucketsAreCumulativeWithInf) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.AddHistogram("dflow_lat", {}, {10.0, 100.0});
  histogram->Observe(5);     // <= 10
  histogram->Observe(50);    // <= 100
  histogram->Observe(5000);  // +Inf only
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("dflow_lat_bucket{le=\"10\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dflow_lat_bucket{le=\"100\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dflow_lat_bucket{le=\"+Inf\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dflow_lat_count 3"), std::string::npos) << text;
  EXPECT_NE(text.find("dflow_lat_sum 5055"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, HistogramObserveIsThreadSafe) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram =
      registry.AddHistogram("dflow_mt", {}, obs::DefaultWorkUnitBuckets());
  std::vector<std::thread> threads;
  constexpr int kThreads = 4, kPerThread = 10000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram->Observe(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const obs::Histogram::Snapshot snap = histogram->Snap();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  obs::MetricsRegistry registry;
  registry.AddGauge("dflow_esc", {{"backend", "a\"b\\c\nd"}},
                    [] { return 1.0; });
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("backend=\"a\\\"b\\\\c\\nd\""), std::string::npos)
      << text;
}

// --- Wire protocol v4: trace extension and timing trailer.

std::optional<net::Frame> OneFrame(const std::vector<uint8_t>& stream) {
  net::FrameAssembler assembler;
  assembler.Feed(stream.data(), stream.size());
  return assembler.Next();
}

TEST(WireTraceTest, SubmitTraceExtensionRoundTrips) {
  net::SubmitRequest request;
  request.request_id = 11;
  request.seed = 22;
  request.has_trace = true;
  request.trace_id = 0xdeadbeef;
  std::vector<uint8_t> stream;
  EncodeSubmit(request, &stream);
  const std::optional<net::Frame> frame = OneFrame(stream);
  ASSERT_TRUE(frame.has_value());
  net::SubmitRequest decoded;
  ASSERT_TRUE(DecodeSubmit(frame->payload, &decoded));
  EXPECT_TRUE(decoded.has_trace);
  EXPECT_EQ(decoded.trace_id, 0xdeadbeefu);

  // Untraced submits carry no extension and decode has_trace = false.
  net::SubmitRequest plain;
  plain.request_id = 1;
  plain.seed = 2;
  std::vector<uint8_t> plain_stream;
  EncodeSubmit(plain, &plain_stream);
  const std::optional<net::Frame> plain_frame = OneFrame(plain_stream);
  ASSERT_TRUE(plain_frame.has_value());
  ASSERT_TRUE(DecodeSubmit(plain_frame->payload, &decoded));
  EXPECT_FALSE(decoded.has_trace);
  EXPECT_EQ(decoded.trace_id, 0u);
}

TEST(WireTraceTest, SubmitResultTimingTrailerRoundTrips) {
  net::SubmitResult result;
  result.request_id = 5;
  result.fingerprint = 99;
  result.trace_id = 0x77;
  result.spans.push_back(
      {static_cast<uint8_t>(SpanKind::kIngressQueue), 0, 100});
  result.spans.push_back(
      {static_cast<uint8_t>(SpanKind::kHarnessExec), 100, 900});
  std::vector<uint8_t> stream;
  EncodeSubmitResult(result, &stream);
  const std::optional<net::Frame> frame = OneFrame(stream);
  ASSERT_TRUE(frame.has_value());
  net::SubmitResult decoded;
  ASSERT_TRUE(DecodeSubmitResult(frame->payload, &decoded));
  EXPECT_EQ(decoded.trace_id, 0x77u);
  ASSERT_EQ(decoded.spans.size(), 2u);
  EXPECT_EQ(decoded.spans[0], result.spans[0]);
  EXPECT_EQ(decoded.spans[1], result.spans[1]);
}

TEST(WireTraceTest, UntracedResultDecodesWithEmptyTrailer) {
  net::SubmitResult result;
  result.request_id = 5;
  std::vector<uint8_t> stream;
  EncodeSubmitResult(result, &stream);
  const std::optional<net::Frame> frame = OneFrame(stream);
  ASSERT_TRUE(frame.has_value());
  net::SubmitResult decoded;
  ASSERT_TRUE(DecodeSubmitResult(frame->payload, &decoded));
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_TRUE(decoded.spans.empty());
}

TEST(WireTraceTest, AppendResultSpanPatchesTheTrailerInPlace) {
  // The router's relay-path hook: start from an UNTRACED result payload
  // (trace_id 0, zero spans) and append a router.forward span without
  // decoding the body. The zero trace_id must be patched too.
  net::SubmitResult result;
  result.request_id = 8;
  result.fingerprint = 123;
  std::vector<uint8_t> stream;
  EncodeSubmitResult(result, &stream);
  std::optional<net::Frame> frame = OneFrame(stream);
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(net::AppendResultSpan(
      &frame->payload, /*trace_id=*/0xabc,
      static_cast<uint8_t>(SpanKind::kRouterForward), /*start_ns=*/0,
      /*duration_ns=*/5000));
  net::SubmitResult decoded;
  ASSERT_TRUE(DecodeSubmitResult(frame->payload, &decoded));
  EXPECT_EQ(decoded.request_id, 8u);
  EXPECT_EQ(decoded.fingerprint, 123u);
  EXPECT_EQ(decoded.trace_id, 0xabcu);
  ASSERT_EQ(decoded.spans.size(), 1u);
  EXPECT_EQ(decoded.spans[0].kind,
            static_cast<uint8_t>(SpanKind::kRouterForward));
  EXPECT_EQ(decoded.spans[0].duration_ns, 5000u);

  // Appending to an already-traced payload keeps the existing id and
  // existing spans.
  ASSERT_TRUE(net::AppendResultSpan(
      &frame->payload, /*trace_id=*/0xdef,
      static_cast<uint8_t>(SpanKind::kOutboxWrite), 1, 2));
  ASSERT_TRUE(DecodeSubmitResult(frame->payload, &decoded));
  EXPECT_EQ(decoded.trace_id, 0xabcu);  // NOT overwritten by 0xdef
  ASSERT_EQ(decoded.spans.size(), 2u);

  // Too-short payloads are refused untouched.
  std::vector<uint8_t> tiny(4, 0);
  EXPECT_FALSE(net::AppendResultSpan(&tiny, 1, 1, 0, 0));
  EXPECT_EQ(tiny.size(), 4u);
}

}  // namespace
}  // namespace dflow
