// servebench: one workload of the serving benchmark, end to end.
//
// Starts the real dflow_serve (and, for hot_routed, dflow_router) binaries,
// drives them over loopback through net::Client in closed loops for
// --seconds, checks every answer against an in-process reference, and
// prints every metric by name and unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   --trace 0  the end-to-end metrics, from an untraced run.
//   --trace 1  the per-layer metrics: an untraced window, a traced window
//              (servers sample every request), and the in-process layer
//              probes; the spans are written to <out-dir>/spans-<w>.jsonl.
//
// Run:  servebench --workload=unique_miss --seed=1 --seconds=10 --trace=0
//           --bin-dir=<dir with dflow_serve, dflow_router> --out-dir=<dir>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet.h"
#include "load.h"
#include "obs/trace.h"
#include "probes.h"
#include "workload.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is repeated and its median reported: one launch is too noisy.
constexpr int kSetups = 11;
constexpr int kReferenceThreads = 4;
constexpr int64_t kRssMarkAnswers = 100000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string bin_dir;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (arg == "--bin-dir") {
      args->bin_dir = value;
    } else if (arg == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_seed && have_seconds && !args->bin_dir.empty() &&
         !args->out_dir.empty() && FindWorkload(args->workload) != nullptr;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Everything the servers answered about themselves that the metrics use,
// summed over the processes asked.
struct ServerCounters {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t failed_ops = 0;  // busy, shutdown, decode and protocol errors
};

std::optional<ServerCounters> ReadCounters(const std::vector<uint16_t>& ports) {
  ServerCounters total;
  for (const uint16_t port : ports) {
    net::Client client;
    std::string error;
    if (!client.Connect("127.0.0.1", port, &error)) return std::nullopt;
    const std::optional<net::ServerInfo> info = client.Info();
    client.Goodbye();
    if (!info.has_value()) return std::nullopt;
    total.cache_hits += info->cache_hits;
    total.cache_misses += info->cache_misses;
    total.failed_ops += info->ingress.requests_rejected_busy +
                        info->ingress.requests_rejected_shutdown +
                        info->ingress.decode_errors +
                        info->ingress.protocol_errors;
  }
  return total;
}

// A running fleet with connected clients, the hot family's cache warm.
struct Session {
  Fleet fleet;
  ClientPool pool;
  std::vector<uint64_t> warm_fingerprints;  // hot family, class order
  double setup_s = 0;
};

bool StartSession(const Args& args, const WorkloadSpec& spec, bool routed,
                  bool traced, const RequestStream& stream, Session* session,
                  std::string* error) {
  const Clock::time_point start = Clock::now();
  if (!session->fleet.Start({args.bin_dir, routed, traced}, error) ||
      !session->pool.Connect(session->fleet.entry_port(), error)) {
    return false;
  }
  if (spec.hot &&
      !WarmClasses(session->pool.clients().front().get(), stream,
                   &session->warm_fingerprints, error)) {
    return false;
  }
  session->setup_s = Seconds(Clock::now() - start);
  return true;
}

bool StopSession(Session* session) {
  session->pool.Close();
  return session->fleet.Stop();
}

// Checks what the servers answered against the in-process reference, and
// computes the workload fingerprint from the answers.
uint64_t CheckAnswers(const RequestStream& stream, const Session& session,
                      const ClassReference& classes, const LoadResult& load,
                      AnswerChecker* checker) {
  if (stream.hot()) {
    for (int k = 0; k < kHotClasses; ++k) {
      checker->Check("warm-up class " + std::to_string(k),
                     classes.fingerprints[static_cast<size_t>(k)],
                     session.warm_fingerprints[static_cast<size_t>(k)]);
    }
    return FoldWorkloadFingerprint(session.warm_fingerprints);
  }
  // All-unique: recompute the sampled answers on a few threads.
  const std::vector<std::pair<uint64_t, uint64_t>>& answers = load.answers;
  std::vector<AnswerChecker> parts(kReferenceThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back([&, t] {
      core::FlowHarness harness(&stream.pattern().schema,
                                *core::Strategy::Parse(kStrategy));
      for (size_t i = static_cast<size_t>(t); i < answers.size();
           i += kReferenceThreads) {
        const auto& [index, fingerprint] = answers[i];
        const net::BatchItem item = stream.Item(index);
        // Every fourth sampled answer is also held to the §2 oracle.
        const core::InstanceResult result =
            i % 4 == 0 ? RunChecked(&harness, item, &parts[t])
                       : harness.Run(item.sources, item.seed);
        parts[t].Check("request " + std::to_string(index),
                       net::FingerprintResult(result), fingerprint);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const AnswerChecker& part : parts) checker->Merge(part);
  std::vector<uint64_t> prefix(kFingerprintPrefix, 0);
  std::vector<bool> seen(kFingerprintPrefix, false);
  for (const auto& [index, fingerprint] : answers) {
    if (index < kFingerprintPrefix) {
      prefix[index] = fingerprint;
      seen[index] = true;
    }
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    checker->Fail("the first " + std::to_string(kFingerprintPrefix) +
                  " requests were not all answered");
  }
  return FoldWorkloadFingerprint(prefix);
}

void PrintResult(const AnswerChecker& checker, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  if (Correct(checker, tally)) {
    for (const Metric& m : metrics) {
      std::printf("metric %-36s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("%s\n", ResultLine(checker, tally, metrics).c_str());
  std::fflush(stdout);
}

// Prints one window's accounting and figures, and returns the figures.
WindowSummary PrintWindow(const char* label, const LoadResult& load,
                          double seconds) {
  const WindowSummary summary = SummarizeWindows(load.windows, seconds);
  std::printf(
      "# %s: %lld attempted = %lld ok + %lld failed (%lld refused, %lld "
      "errored, %lld unanswered), error_ratio %.6f; %lld latency samples, "
      "p99 %.3f ms; per sub-window req/s, p50 ms, p95 ms:",
      label, static_cast<long long>(load.tally.attempted),
      static_cast<long long>(load.tally.ok),
      static_cast<long long>(load.tally.failed()),
      static_cast<long long>(load.tally.refused),
      static_cast<long long>(load.tally.errored),
      static_cast<long long>(load.tally.unanswered), load.tally.ErrorRatio(),
      static_cast<long long>(summary.samples), summary.p99_ms);
  const double width = seconds / static_cast<double>(load.windows.size());
  for (const SubWindow& window : load.windows) {
    const LatencySummary latency =
        SummarizeLatency(window.latencies_ms, window.failed);
    std::printf(" [%.0f %.3f %.3f]", static_cast<double>(window.answers) / width,
                latency.p50_ms, latency.p95_ms);
  }
  std::printf("; medians %.0f req/s, p50 %.3f ms, p95 %.3f ms\n", summary.rps,
              summary.p50_ms, summary.p95_ms);
  return summary;
}

double MedianOr0(const TraceStats& trace, const std::string& name) {
  const auto it = trace.durations_us.find(name);
  return it == trace.durations_us.end() ? 0 : Median(it->second);
}

void WriteSpans(const std::string& path, const std::string& workload,
                const TraceStats& trace, const std::vector<ProbeSpan>& probes) {
  std::ofstream out(path, std::ios::trunc);
  for (const TracedRequest& r : trace.kept) {
    out << "{\"workload\":\"" << workload << "\",\"id\":" << r.index
        << ",\"trace_id\":" << r.trace_id
        << ",\"name\":\"client.request\",\"parent\":null,\"start_ns\":"
        << r.start_ns << ",\"duration_ns\":" << r.latency_ns << "}\n";
    for (const net::WireSpan& span : r.spans) {
      out << "{\"workload\":\"" << workload << "\",\"id\":" << r.index
          << ",\"trace_id\":" << r.trace_id << ",\"name\":\""
          << dflow::obs::ToString(static_cast<dflow::obs::SpanKind>(span.kind))
          << "\",\"parent\":\""
          << (span.kind == static_cast<uint8_t>(
                               dflow::obs::SpanKind::kRouterForward)
                  ? "client.request"
                  : "server")
          << "\",\"start_ns\":" << span.start_ns
          << ",\"duration_ns\":" << span.duration_ns << "}\n";
    }
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    out << "{\"workload\":\"" << workload << "\",\"id\":" << i
        << ",\"name\":\"" << probes[i].name << "\",\"parent\":null"
        << ",\"calls\":" << probes[i].calls
        << ",\"start_ns\":" << probes[i].start_ns
        << ",\"duration_ns\":" << probes[i].duration_ns << "}\n";
  }
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const gen::GeneratedSchema pattern = gen::GeneratePattern(
      PatternParamsFor(kNodes));
  const RequestStream stream(&pattern, spec.hot, args.seed);
  AnswerChecker checker;
  ClassReference classes;
  if (spec.hot) classes = ComputeClassReference(stream, &checker);
  const uint64_t reference_fingerprint =
      spec.hot ? FoldWorkloadFingerprint(classes.fingerprints)
               : ReferenceWorkloadFingerprint(stream);
  std::printf("# workload %s, seed %llu, %s, %g s; servers: %s; client: %d "
              "connections x %s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced (per-layer)" : "untraced (end-to-end)",
              args.seconds,
              spec.routed ? "dflow_router (1 event thread) -> 2 x dflow_serve "
                            "(1 shard, 1 event thread, 256-entry cache)"
                          : "dflow_serve (2 shards, 1 event thread, "
                            "256-entry cache per shard)",
              kConnections,
              spec.hot ? "BATCH_SUBMIT of 16 with snapshots"
                             : "singleton SUBMIT");

  Tally tally;
  std::vector<Metric> metrics;
  std::string error;
  const auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "servebench: %s\n", why.c_str());
    return 1;
  };
  const auto check_window = [&](const char* label, const Session& session,
                                const LoadResult& load) {
    const int64_t checked_before = checker.checked();
    tally.Merge(load.tally);
    const uint64_t fingerprint =
        CheckAnswers(stream, session, classes, load, &checker);
    checker.Merge(load.checker);
    checker.Check(std::string(label) + " workload fingerprint",
                  reference_fingerprint, fingerprint);
    if (!load.tally.Balanced()) {
      checker.Fail(std::string(label) + ": attempted != ok + failed");
    }
    std::printf("# %s: workload fingerprint %016llx (reference %016llx), %lld "
                "answers checked\n",
                label, static_cast<unsigned long long>(fingerprint),
                static_cast<unsigned long long>(reference_fingerprint),
                static_cast<long long>(checker.checked() - checked_before));
    return fingerprint;
  };

  const auto options_for = [&](double seconds, bool trace) {
    LoadOptions options;
    options.spec = &spec;
    options.stream = &stream;
    options.classes = &classes;
    options.seconds = seconds;
    options.trace = trace;
    return options;
  };

  if (args.trace == 0) {
    std::vector<double> setups;
    std::unique_ptr<Session> session;
    for (int i = 0; i < kSetups; ++i) {
      if (session != nullptr && !StopSession(session.get())) {
        return fail("a server did not exit cleanly");
      }
      session = std::make_unique<Session>();
      if (!StartSession(args, spec, spec.routed, false, stream, session.get(),
                        &error)) {
        StopSession(session.get());
        return fail(error);
      }
      setups.push_back(session->setup_s);
    }
    // Peak RSS grows with the requests served (the servers' latency
    // reservoir fills in doubling steps up to its capacity), so it is read
    // at a fixed answer count, not at whatever count the window reached.
    double rss_mb = 0;
    LoadOptions options = options_for(args.seconds, false);
    options.mark_answers = kRssMarkAnswers;
    options.at_mark = [&] { rss_mb = session->fleet.PeakRssMb(); };
    const MachineCpu machine_before = MachineCpu::Read();
    const double cpu_before = session->fleet.CpuSeconds();
    const LoadResult load = RunClosedLoop(&session->pool, options);
    const double server_cpu_s = session->fleet.CpuSeconds() - cpu_before;
    std::printf("# machine: %.1f%% of CPU time stolen by the hypervisor during "
                "the window\n",
                100 * MachineCpu::Read().StealShareSince(machine_before));
    if (rss_mb == 0) {
      std::printf("# fewer than %lld answers: peak RSS read at the end\n",
                  static_cast<long long>(kRssMarkAnswers));
      rss_mb = session->fleet.PeakRssMb();
    }
    std::printf("%s", session->fleet.Describe().c_str());
    if (!StopSession(session.get())) checker.Fail("a server did not exit cleanly");
    check_window("timed window", *session, load);
    const WindowSummary summary =
        PrintWindow("timed window", load, args.seconds);
    metrics = {
        {"throughput_rps", "1/s", summary.rps},
        {"latency_p50_ms", "ms", summary.p50_ms},
        {"server_cpu_us_per_req", "us",
         server_cpu_s * 1e6 / static_cast<double>(std::max<int64_t>(1, load.tally.ok))},
        {"server_rss_mb", "MiB", rss_mb},
        {"setup_s", "s", Median(setups)},
    };
  } else {
    // Three quarters of --seconds go to the timed windows (two, or three
    // when routed); the rest covers set-ups and the in-process probes.
    const double window = args.seconds * 0.75 / (spec.routed ? 3 : 2);
    // 1. Untraced window: client cost, p99, cache and wire counters.
    Session plain;
    if (!StartSession(args, spec, spec.routed, false, stream, &plain, &error)) {
      StopSession(&plain);
      return fail(error);
    }
    std::vector<uint16_t> counted = plain.fleet.backend_ports();
    if (spec.routed) counted.push_back(plain.fleet.entry_port());
    const std::optional<ServerCounters> before = ReadCounters(counted);
    const LoadResult load = RunClosedLoop(&plain.pool, options_for(window, false));
    const std::optional<ServerCounters> after = ReadCounters(counted);
    if (!StopSession(&plain)) checker.Fail("a server did not exit cleanly");
    if (!before || !after) return fail("cannot read the servers' Info");
    const uint64_t fingerprint = check_window("untraced window", plain, load);
    const WindowSummary plain_summary =
        PrintWindow("untraced window", load, window);

    // 2. hot_routed only: the same inputs sent straight to dflow_serve.
    double router_hop_us = 0;
    if (spec.routed) {
      Session direct;
      if (!StartSession(args, spec, false, false, stream, &direct, &error)) {
        StopSession(&direct);
        return fail(error);
      }
      const LoadResult direct_load = RunClosedLoop(&direct.pool, options_for(window, false));
      if (!StopSession(&direct)) checker.Fail("a server did not exit cleanly");
      const uint64_t direct_fingerprint =
          check_window("direct window", direct, direct_load);
      checker.Check("hot_routed vs hot_hit workload fingerprint",
                    direct_fingerprint, fingerprint);
      const WindowSummary direct_summary =
          PrintWindow("direct window (hot_hit)", direct_load, window);
      router_hop_us = (plain_summary.p50_ms - direct_summary.p50_ms) * 1e3;
    }

    // 3. Traced window: every request sampled by the servers.
    Session traced;
    if (!StartSession(args, spec, spec.routed, true, stream, &traced,
                      &error)) {
      StopSession(&traced);
      return fail(error);
    }
    const LoadResult traced_load = RunClosedLoop(&traced.pool, options_for(window, true));
    if (!StopSession(&traced)) checker.Fail("a server did not exit cleanly");
    check_window("traced window", traced, traced_load);
    const WindowSummary traced_summary =
        PrintWindow("traced window", traced_load, window);
    const TraceStats& trace = traced_load.trace;
    const auto count_of = [&](const char* name) {
      const auto it = trace.durations_us.find(name);
      return it == trace.durations_us.end() ? 0 : it->second.size();
    };
    std::printf("# traced window: %lld traced answers; span counts:",
                static_cast<long long>(trace.traced));
    for (const auto& [name, values] : trace.durations_us) {
      std::printf(" %s=%zu", name.c_str(), values.size());
    }
    std::printf("\n# traced window: harness.exec spans %zu (a hot workload "
                "must show 0: the engine is bypassed)\n",
                count_of("harness.exec"));
    const double exec_us = MedianOr0(trace, "harness.exec");
    const double wait_us = MedianOr0(trace, "shard.queue_wait");
    std::printf("# traced window: harness.exec + shard.queue_wait medians = "
                "%.1f us = %.1f%% of the traced client p50 (%.1f us)\n",
                exec_us + wait_us,
                100 * (exec_us + wait_us) / (traced_summary.p50_ms * 1e3),
                traced_summary.p50_ms * 1e3);

    // 4. In-process layer probes.
    std::vector<ProbeSpan> probe_spans;
    metrics = RunLayerProbes(spec, stream, args.seed, &probe_spans);
    const int64_t lookups = (after->cache_hits - before->cache_hits) +
                            (after->cache_misses - before->cache_misses);
    const double ok = static_cast<double>(std::max<int64_t>(1, load.tally.ok));
    const std::vector<Metric> from_windows = {
        {"runtime.shard_queue_wait_us", "us", wait_us},
        {"runtime.harness_exec_us", "us", exec_us},
        {"runtime.cache_lookup_us", "us", MedianOr0(trace, "cache.lookup")},
        {"runtime.cache_hit_ratio", "ratio",
         lookups > 0 ? static_cast<double>(after->cache_hits -
                                           before->cache_hits) /
                           static_cast<double>(lookups)
                     : 0},
        {"net.bytes_per_req", "B", static_cast<double>(load.bytes) / ok},
        {"net.ingress_queue_us", "us", MedianOr0(trace, "ingress.queue")},
        {"net.outbox_write_us", "us", MedianOr0(trace, "outbox.write")},
        {"net.unattributed_us", "us", MedianOr0(trace, "client.self")},
        // Server-side refusals and errors, plus the requests the client saw
        // go unanswered (a broken connection the servers cannot count).
        {"net.failed_ops", "count",
         static_cast<double>(after->failed_ops - before->failed_ops +
                             load.tally.unanswered)},
        {"net.router_forward_us", "us", MedianOr0(trace, "router.forward")},
        {"net.router_forward_self_us", "us",
         MedianOr0(trace, "router.forward.self")},
        {"net.router_hop_us", "us", router_hop_us},
        {"obs.trace_overhead_pct", "%",
         100 * (plain_summary.rps - traced_summary.rps) / plain_summary.rps},
        {"client.cpu_us_per_req", "us", load.client_cpu_s * 1e6 / ok},
        {"client.latency_p95_ms", "ms", plain_summary.p95_ms},
        {"client.latency_p99_ms", "ms", plain_summary.p99_ms},
    };
    metrics.insert(metrics.end(), from_windows.begin(), from_windows.end());
    const std::string path = args.out_dir + "/spans-" + spec.name + ".jsonl";
    WriteSpans(path, spec.name, trace, probe_spans);
    std::printf("# spans written to %s\n", path.c_str());
  }

  if (!checker.ok()) {
    std::fprintf(stderr, "servebench: answer check failed (%lld of %lld): %s\n",
                 static_cast<long long>(checker.mismatches()),
                 static_cast<long long>(checker.checked()),
                 checker.first_failure().c_str());
  }
  PrintResult(checker, tally, metrics);
  return Correct(checker, tally) ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload unique_miss|hot_hit|hot_routed "
                 "--seed N --seconds S --trace 0|1 --bin-dir DIR --out-dir "
                 "DIR\n");
    return 2;
  }
  return servebench::Run(args);
}
