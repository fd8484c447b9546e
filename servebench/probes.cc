#include "probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string_view>

#include "core/prequalifier.h"
#include "core/runner.h"
#include "core/semantics.h"
#include "core/strategy.h"
#include "runtime/flow_server.h"
#include "runtime/result_cache.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kPool = 64;           // requests per timed run
constexpr double kProbeBudgetS = 0.1;  // per probe, after the first run
constexpr int kMinRuns = 5;
constexpr int kMaxRuns = 100;
constexpr uint64_t kMinRunNs = 1000000;
constexpr double kInprocSeconds = 0.5;

// Keeps a computed value observable so the call producing it stays.
std::atomic<uint64_t> g_sink{0};
void Keep(uint64_t value) { g_sink.fetch_add(value, std::memory_order_relaxed); }

class Prober {
 public:
  explicit Prober(std::vector<ProbeSpan>* spans)
      : spans_(spans), origin_(Clock::now()) {}

  // Times runs of fn(0..calls-1) and returns the median ns per call. The
  // first run warms up and sizes the rest: without a `prepare` step, a run
  // repeats the calls until it lasts about kMinRunNs, so the clock reads
  // stay negligible next to sub-microsecond calls. Runs continue until the
  // budget is spent (at least kMinRuns, at most kMaxRuns); each is a span.
  // `prepare` runs untimed before each run.
  double NsPerCall(const std::string& name, size_t calls,
                   const std::function<void(size_t)>& fn,
                   const std::function<void()>& prepare = nullptr) {
    std::vector<double> per_call;
    size_t reps = 1;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kProbeBudgetS));
    for (int run = 0; run <= kMinRuns ||
                      (run <= kMaxRuns && Clock::now() < deadline);
         ++run) {
      if (prepare) prepare();
      const Clock::time_point start = Clock::now();
      for (size_t r = 0; r < reps; ++r) {
        for (size_t i = 0; i < calls; ++i) fn(i);
      }
      const auto ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
      if (run == 0) {
        if (!prepare) reps = std::max<uint64_t>(1, kMinRunNs / std::max<uint64_t>(1, ns));
        continue;
      }
      spans_->push_back(ProbeSpan{
          name, calls * reps,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                                   origin_)
                  .count()),
          ns});
      per_call.push_back(static_cast<double>(ns) /
                         static_cast<double>(calls * reps));
    }
    return Median(per_call);
  }

 private:
  std::vector<ProbeSpan>* spans_;
  Clock::time_point origin_;
};

std::vector<net::BatchItem> PoolOf(const RequestStream& stream, size_t n) {
  std::vector<net::BatchItem> items;
  for (uint64_t i = 0; i < n; ++i) items.push_back(stream.Item(i));
  return items;
}

// The payload of the one frame an encoder appended.
std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame) {
  return std::vector<uint8_t>(frame.begin() + net::kFrameHeaderBytes,
                              frame.end());
}

// In-process FlowServer with the direct fleet's shard and cache settings:
// Submit -> result callback on the workload's stream, no network.
double InprocRps(const WorkloadSpec& spec, const RequestStream& stream,
                 const core::Strategy& strategy) {
  runtime::FlowServerOptions options;
  options.num_shards = 2;
  options.strategy = strategy;
  options.result_cache_capacity = 256;
  runtime::FlowServer server(&stream.pattern().schema, options);
  std::mutex mu;
  std::condition_variable cv;
  int64_t completed = 0;
  server.SetResultCallback([&](int, const runtime::FlowRequest&,
                               const core::InstanceResult&,
                               const core::Strategy&) {
    std::lock_guard<std::mutex> lock(mu);
    ++completed;
    cv.notify_all();
  });
  const auto wait_for = [&](int64_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed >= n; });
  };
  int64_t submitted = 0;
  if (spec.hot) {
    for (int k = 0; k < kHotClasses; ++k) {
      net::BatchItem item = stream.ClassItem(k);
      server.Submit(runtime::FlowRequest{std::move(item.sources), item.seed, 0, nullptr});
      ++submitted;
    }
    wait_for(submitted);
  }
  const int64_t warm = submitted;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kInprocSeconds));
  for (uint64_t i = 0; Clock::now() < end; ++i) {
    net::BatchItem item = stream.Item(i);
    server.Submit(runtime::FlowRequest{std::move(item.sources), item.seed, 0, nullptr});
    ++submitted;
  }
  wait_for(submitted);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.Drain();
  return static_cast<double>(submitted - warm) / seconds;
}

}  // namespace

std::vector<Metric> RunLayerProbes(const WorkloadSpec& spec,
                                   const RequestStream& stream, uint64_t seed,
                                   std::vector<ProbeSpan>* spans) {
  std::vector<Metric> metrics;
  const auto emit = [&](const std::string& name, const std::string& unit,
                        double value) {
    metrics.push_back(Metric{name, unit, value});
  };
  Prober prober(spans);
  const core::Schema& schema = stream.pattern().schema;
  const std::vector<net::BatchItem> pool = PoolOf(stream, kPool);

  // --- core: the engine per strategy, and the reference evaluator.
  double exec_ns = 0;  // PSE100, the served strategy
  for (const char* name : {"PSE100", "PCE100", "PCE0", "NCE0"}) {
    core::FlowHarness harness(&schema, *core::Strategy::Parse(name));
    const double ns = prober.NsPerCall(
        std::string("core.exec.") + name, pool.size(), [&](size_t i) {
          Keep(static_cast<uint64_t>(
              harness.Run(pool[i].sources, pool[i].seed).metrics.work));
        });
    if (std::string_view(name) == kStrategy) exec_ns = ns;
    emit(std::string("core.exec_ns.") + name, "ns", ns);
  }
  const core::Strategy pse = *core::Strategy::Parse(kStrategy);
  const double reference_ns = prober.NsPerCall(
      "core.reference", pool.size(), [&](size_t i) {
        Keep(core::EvaluateComplete(schema, pool[i].sources, pool[i].seed)
                 .values.size());
      });
  emit("core.reference_ns", "ns", reference_ns);
  emit("core.exec_vs_reference", "ratio", exec_ns / reference_ns);
  {
    const gen::GeneratedSchema big = gen::GeneratePattern(PatternParamsFor(256));
    const RequestStream big_stream(&big, stream.hot(), seed);
    const std::vector<net::BatchItem> big_pool = PoolOf(big_stream, kPool);
    core::FlowHarness harness(&big.schema, pse);
    emit("core.exec_ns.PSE100.n256", "ns",
         prober.NsPerCall("core.exec.PSE100.n256", big_pool.size(),
                          [&](size_t i) {
                            Keep(static_cast<uint64_t>(
                                harness.Run(big_pool[i].sources,
                                            big_pool[i].seed)
                                    .metrics.work));
                          }));
    emit("core.reference_ns.n256", "ns",
         prober.NsPerCall("core.reference.n256", big_pool.size(),
                          [&](size_t i) {
                            Keep(core::EvaluateComplete(big.schema,
                                                        big_pool[i].sources,
                                                        big_pool[i].seed)
                                     .values.size());
                          }));
  }
  {
    // One prequalifying pass from instance start, on fresh state each run.
    std::vector<core::Snapshot> snaps;
    std::vector<core::Prequalifier> prequalifiers;
    emit("core.prequal_pass_ns", "ns",
         prober.NsPerCall(
             "core.prequal_pass", pool.size(),
             [&](size_t i) { prequalifiers[i].Update(&snaps[i]); },
             [&] {
               snaps.clear();
               prequalifiers.clear();
               for (const net::BatchItem& item : pool) {
                 snaps.emplace_back(&schema);
                 snaps.back().BindSources(item.sources);
                 prequalifiers.emplace_back(&schema, pse);
               }
             }));
  }
  {
    // Counts per instance: these repeat exactly for a given seed.
    core::FlowHarness harness(&schema, pse);
    int64_t passes = 0, queries = 0, work = 0, wasted = 0;
    const uint64_t events_before = harness.simulator().events_processed();
    for (const net::BatchItem& item : pool) {
      const core::InstanceMetrics m =
          harness.Run(item.sources, item.seed).metrics;
      passes += m.prequalifier_passes;
      queries += m.queries_launched;
      work += m.work;
      wasted += m.wasted_work;
    }
    const double n = static_cast<double>(pool.size());
    emit("core.prequal_passes_per_instance", "count", passes / n);
    emit("core.queries_per_instance", "count", queries / n);
    emit("core.work_units_per_instance", "units", work / n);
    emit("core.useful_work_ratio", "ratio",
         work > 0 ? 1.0 - static_cast<double>(wasted) / work : 1.0);
    emit("sim.events_per_instance", "count",
         static_cast<double>(harness.simulator().events_processed() -
                             events_before) /
             n);
  }

  // --- runtime: the shard queue in-process, and the result cache.
  emit("runtime.inproc_rps", "1/s", InprocRps(spec, stream, pse));
  {
    // The cache's working set: the hot classes, or the first 512 requests.
    std::vector<net::BatchItem> keys;
    if (spec.hot) {
      for (int k = 0; k < kHotClasses; ++k) keys.push_back(stream.ClassItem(k));
    } else {
      keys = PoolOf(stream, kFingerprintPrefix);
    }
    std::vector<core::InstanceResult> results;
    core::FlowHarness harness(&schema, pse);
    int64_t bytes = 0;
    for (const net::BatchItem& key : keys) {
      results.push_back(harness.Run(key.sources, key.seed));
      bytes += runtime::ResultCache::ApproxResultBytes(results.back());
    }
    emit("runtime.cache_entry_bytes", "B",
         static_cast<double>(bytes) / static_cast<double>(keys.size()));
    constexpr size_t kCapacity = 256;
    constexpr size_t kResident = 200;
    runtime::ResultCache cache(kCapacity, pse);
    for (size_t i = 0; i < kResident; ++i) {
      cache.Insert(keys[i].sources, keys[i].seed, results[i]);
    }
    // A hit is a lookup plus the result copy the shard answers from.
    emit("runtime.cache_hit_ns", "ns",
         prober.NsPerCall("runtime.cache_hit", kResident, [&](size_t i) {
           const core::InstanceResult copy =
               *cache.Lookup(keys[i].sources, keys[i].seed);
           Keep(static_cast<uint64_t>(copy.metrics.work));
         }));
    emit("runtime.cache_miss_ns", "ns",
         prober.NsPerCall("runtime.cache_miss", keys.size() - kResident,
                          [&](size_t i) {
                            const size_t k = kResident + i;
                            Keep(cache.Lookup(keys[k].sources, keys[k].seed) ==
                                 nullptr);
                          }));
    // At capacity: cycling through more keys than the cache holds makes
    // every insert a new key that evicts the least recently used one.
    runtime::ResultCache full(kCapacity, pse);
    size_t cursor = 0;
    const auto insert_next = [&] {
      const size_t k = cursor++ % keys.size();
      full.Insert(keys[k].sources, keys[k].seed, results[k]);
    };
    while (cursor < kCapacity) insert_next();
    emit("runtime.cache_insert_ns", "ns",
         prober.NsPerCall("runtime.cache_insert", kPool,
                          [&](size_t) { insert_next(); }));
  }

  // --- net: the wire codec on the workload's own messages.
  {
    core::FlowHarness harness(&schema, pse);
    std::vector<std::vector<uint8_t>> submits, results;
    std::vector<uint8_t> frame;
    for (size_t i = 0; i < pool.size(); ++i) {
      net::SubmitRequest request;
      request.request_id = i + 1;
      request.seed = pool[i].seed;
      request.want_snapshot = spec.want_snapshot();
      request.sources = pool[i].sources;
      frame.clear();
      net::EncodeSubmit(request, &frame);
      submits.push_back(PayloadOf(frame));
      const core::InstanceResult result =
          harness.Run(pool[i].sources, pool[i].seed);
      net::SubmitResult reply;
      reply.request_id = i + 1;
      reply.work = result.metrics.work;
      reply.wasted_work = result.metrics.wasted_work;
      reply.response_time = result.metrics.ResponseTime();
      reply.queries_launched = result.metrics.queries_launched;
      reply.speculative_launches = result.metrics.speculative_launches;
      reply.fingerprint = net::FingerprintResult(result);
      reply.strategy = kStrategy;
      reply.has_snapshot = spec.want_snapshot();
      if (spec.want_snapshot()) reply.snapshot = WireSnapshot(result);
      frame.clear();
      net::EncodeSubmitResult(reply, &frame);
      results.push_back(PayloadOf(frame));
    }
    std::vector<net::SubmitRequest> decoded_submits(pool.size());
    std::vector<net::SubmitResult> decoded_results(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      net::DecodeSubmit(submits[i], &decoded_submits[i]);
      net::DecodeSubmitResult(results[i], &decoded_results[i]);
    }
    emit("net.encode_submit_ns", "ns",
         prober.NsPerCall("net.encode_submit", pool.size(), [&](size_t i) {
           frame.clear();
           net::EncodeSubmit(decoded_submits[i], &frame);
           Keep(frame.size());
         }));
    emit("net.decode_submit_ns", "ns",
         prober.NsPerCall("net.decode_submit", pool.size(), [&](size_t i) {
           net::SubmitRequest out;
           Keep(net::DecodeSubmit(submits[i], &out));
         }));
    emit("net.encode_result_ns", "ns",
         prober.NsPerCall("net.encode_result", pool.size(), [&](size_t i) {
           frame.clear();
           net::EncodeSubmitResult(decoded_results[i], &frame);
           Keep(frame.size());
         }));
    emit("net.decode_result_ns", "ns",
         prober.NsPerCall("net.decode_result", pool.size(), [&](size_t i) {
           net::SubmitResult out;
           Keep(net::DecodeSubmitResult(results[i], &out));
         }));
    // Batches of kHotBatch items, reported per item.
    std::vector<net::BatchSubmitRequest> batches;
    std::vector<std::vector<uint8_t>> batch_payloads;
    for (size_t b = 0; b + kHotBatch <= pool.size(); b += kHotBatch) {
      net::BatchSubmitRequest batch;
      batch.request_id_base = b + 1;
      batch.want_snapshot = spec.want_snapshot();
      batch.items.assign(pool.begin() + static_cast<ptrdiff_t>(b),
                         pool.begin() + static_cast<ptrdiff_t>(b + kHotBatch));
      frame.clear();
      net::EncodeBatchSubmit(batch, &frame);
      batch_payloads.push_back(PayloadOf(frame));
      batches.push_back(std::move(batch));
    }
    emit("net.encode_batch_item_ns", "ns",
         prober.NsPerCall("net.encode_batch", batches.size(),
                          [&](size_t b) {
                            frame.clear();
                            net::EncodeBatchSubmit(batches[b], &frame);
                            Keep(frame.size());
                          }) /
             kHotBatch);
    emit("net.decode_batch_item_ns", "ns",
         prober.NsPerCall("net.decode_batch", batches.size(),
                          [&](size_t b) {
                            net::BatchSubmitRequest out;
                            Keep(net::DecodeBatchSubmit(batch_payloads[b],
                                                        &out));
                          }) /
             kHotBatch);
  }
  return metrics;
}

}  // namespace servebench
