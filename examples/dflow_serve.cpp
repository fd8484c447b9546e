// dflow_serve: the flow-serving runtime behind a real TCP front door.
//
// Builds a Table 1 pattern schema, starts a runtime::FlowServer wrapped in
// a net::IngressServer, and serves the wire protocol on 127.0.0.1:<port>
// until SIGINT/SIGTERM, then drains gracefully (every accepted request is
// answered before the listener dies) and prints the final report,
// including the ingress counters.
//
// The client must generate requests against the *same* generated schema:
// point dflow_load at the same --nodes/--rows/--pattern-seed values.
//
// Build:  cmake --build build --target dflow_serve
// Run:    ./build/dflow_serve --port=4517 --shards=4 --cache=256
// Drive:  ./build/dflow_load --port=4517 --requests=2000 --connections=4

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "gen/schema_generator.h"
#include "net/ingress_server.h"
#include "net/server_config.h"
#include "opt/strategy_advisor.h"

using namespace dflow;

int main(int argc, char** argv) {
  int port = 4517;
  int shards = 0;
  int queue = 256;
  int cache = 0;
  long long cache_bytes = 0;
  long long cache_min_cost = 0;
  int nodes = 64, rows = 4;
  uint64_t pattern_seed = 1;
  std::string strategy_text = "PSE100";
  std::string node_id;
  uint64_t fleet_epoch = 0;
  core::BackendKind backend = core::BackendKind::kInfinite;
  bool verbose = false;
  int event_threads = 0;
  int advisor_samples = 48;
  int advisor_explore = 64;
  std::string advisor_calibration;  // load-or-create path; empty = in-memory
  std::string advisor_promote;      // write the promoted model here on drain
  uint32_t profile_sample = obs::kDefaultProfileSamplePeriod;
  std::string profile_jsonl;
  uint64_t profile_max_bytes = 0;
  obs::TraceRecorderOptions trace;
  obs::EventLogOptions events;
  obs::HealthOptions health;
  bool metrics_dump = false;
  int log_stats_every = 0;  // seconds; 0 = no periodic self-report

  net::ServerConfig config(
      "dflow_serve",
      "The flow-serving runtime behind a real TCP front door: serves the "
      "wire protocol on 127.0.0.1:<port> until SIGINT/SIGTERM, then drains "
      "gracefully and prints the final report. Point dflow_load at the same "
      "--nodes/--rows/--pattern-seed values.");
  config.Int("port", &port, "TCP listen port (0 = kernel-chosen)", 0, 65535)
      .Int("shards", &shards,
           "worker shards (0 = one per hardware thread)", 0, 4096)
      .Int("queue", &queue, "per-shard admission queue capacity", 1, 1 << 20)
      .Int("cache", &cache, "result cache capacity in entries (0 = off)", 0)
      .Int64("cache-bytes", &cache_bytes,
             "result cache byte budget (0 = entries only)", 0)
      .Int64("cache-min-cost", &cache_min_cost,
             "cost-based cache admission: results with work below this are "
             "not cached, so cheap instances stop evicting expensive ones",
             0)
      .Int("event-threads", &event_threads,
           "event-loop threads owning client sockets (0 = min(4, hardware "
           "threads))",
           0, 256)
      .Int("advisor-samples", &advisor_samples,
           "AUTO only: pattern instances the startup calibration profiles "
           "per candidate strategy",
           1, 1 << 20)
      .Int("advisor-explore", &advisor_explore,
           "AUTO only: explore period (1 request in N re-measures a "
           "rotation candidate; 0 disables)",
           0)
      .String("advisor-calibration", &advisor_calibration,
              "AUTO only: cost-model file, loaded when it exists (restarts "
              "then reproduce every AUTO choice byte-for-byte), otherwise "
              "written after startup calibration")
      .String("advisor-promote", &advisor_promote,
              "AUTO only: on drain, fold this run's online observations AND "
              "its measured condition selectivities into a promoted cost "
              "model written here — the next epoch's --advisor-calibration")
      .SamplePeriod("profile-sample", &profile_sample,
                    "1-in-N deterministic execution profiling (per-attribute "
                    "work, per-condition selectivity; the STATS profile "
                    "section); 1 profiles everything, 0 disables")
      .String("profile-jsonl", &profile_jsonl,
              "append the merged profile as one JSON line to this file at "
              "drain")
      .Megabytes("profile-max-mb", &profile_max_bytes,
                 "rotation budget for the profile JSONL sink, like "
                 "--trace-max-mb")
      .Int("nodes", &nodes, "pattern schema size in nodes", 1, 1 << 20)
      .Int("rows", &rows, "rows per pattern source", 1, 1 << 20)
      .Uint64("pattern-seed", &pattern_seed, "pattern generator seed")
      .String("strategy", &strategy_text,
              "execution strategy (e.g. PSE100, EAGER, AUTO)")
      .String("node-id", &node_id,
              "identity reported in Info; a dflow_router records it per "
              "backend at handshake time (default serve:<port>)")
      .Uint64("fleet-epoch", &fleet_epoch,
              "deployment generation reported in Info; a replicated router "
              "refuses to mix backends with different epochs")
      .Custom("backend", "infinite|bounded",
              "simulated database backend model",
              [&backend](const char* value, std::string* error) {
                if (std::strcmp(value, "bounded") == 0) {
                  backend = core::BackendKind::kBoundedDb;
                } else if (std::strcmp(value, "infinite") != 0) {
                  *error = "must be 'infinite' or 'bounded'";
                  return false;
                }
                return true;
              })
      .SamplePeriod("trace-sample", &trace.sample_period,
                    "1-in-N deterministic trace sampling; 1 traces "
                    "everything, 0 disables")
      .String("trace-jsonl", &trace.jsonl_path,
              "append every finished trace as one JSON line to this file")
      .Double("slow-ms", &trace.slow_ms,
              "slow-request log threshold in wall ms; >0 traces every "
              "request and dumps the span breakdown of any that crosses it")
      .Megabytes("trace-max-mb", &trace.jsonl_max_bytes,
                 "size budget for the trace JSONL sink; crossing it rotates "
                 "the file to <path>.1 (0 = never rotate)")
      .String("events-jsonl", &events.jsonl_path,
              "append every journal event as one JSON line to this file")
      .Megabytes("events-max-mb", &events.jsonl_max_bytes,
                 "rotation budget for the event JSONL sink, like "
                 "--trace-max-mb")
      .Double("health-interval", &health.interval_s,
              "health collector cadence in seconds; <= 0 disables the "
              "collector thread (the STATS health section is still answered, "
              "minus the rate series)")
      .Double("slo-ms", &health.slo_ms,
              "p95 wall-latency SLO for the health watermark rules: "
              "sustained p95 above this degrades dflow_health_status")
      .Int("log-stats-every", &log_stats_every,
           "periodic one-line self-report on stderr every N seconds", 0)
      .Bool("metrics-dump", &metrics_dump,
            "print the final Prometheus-style metrics exposition on drain")
      .Bool("verbose", &verbose, "per-connection log lines on stderr");
  std::string flag_error;
  switch (config.Parse(argc, argv, &flag_error)) {
    case net::ServerConfig::ParseStatus::kHelp:
      std::fputs(config.Help().c_str(), stdout);
      return 0;
    case net::ServerConfig::ParseStatus::kError:
      std::fprintf(stderr, "dflow_serve: %s\n", flag_error.c_str());
      return 2;
    case net::ServerConfig::ParseStatus::kOk:
      break;
  }

  const std::optional<core::Strategy> strategy =
      core::Strategy::Parse(strategy_text);
  if (!strategy.has_value()) {
    std::fprintf(stderr, "bad --strategy '%s'\n", strategy_text.c_str());
    return 2;
  }
  if (!advisor_promote.empty() && !strategy->is_auto) {
    std::fprintf(stderr,
                 "dflow_serve: --advisor-promote requires --strategy=AUTO "
                 "(there is no advisor to promote)\n");
    return 2;
  }

  gen::PatternParams params;
  params.nb_nodes = nodes;
  params.nb_rows = rows;
  params.seed = pattern_seed;
  const gen::GeneratedSchema pattern = gen::GeneratePattern(params);

  runtime::FlowServerOptions server_options;
  server_options.num_shards = shards;
  server_options.queue_capacity_per_shard = static_cast<size_t>(queue);
  server_options.strategy = *strategy;
  server_options.backend = backend;
  server_options.result_cache_capacity = static_cast<size_t>(cache);
  server_options.result_cache_max_bytes = cache_bytes;
  server_options.result_cache_min_cost = cache_min_cost;
  server_options.profile_sample_period = profile_sample;

  if (strategy->is_auto) {
    // Build the strategy advisor: load the calibration if one was saved,
    // otherwise profile the candidate strategies over this pattern now
    // (deterministic, so every restart reproduces the same model anyway;
    // the file just skips the profiling cost and pins the epoch).
    opt::AdvisorOptions advisor_options;
    advisor_options.explore_period =
        advisor_explore < 0 ? 0 : static_cast<uint32_t>(advisor_explore);
    advisor_options.schema_salt = opt::SchemaSaltFromParams(params);
    std::optional<opt::CostModel> model;
    if (!advisor_calibration.empty()) {
      std::string load_error;
      model = opt::CostModel::LoadFromFile(advisor_calibration, &load_error);
      if (!model.has_value()) {
        // Surface the reason before recalibrating: a corrupt file is about
        // to be overwritten with a fresh model (a different epoch), which
        // an operator pinning calibrations needs to know about.
        std::fprintf(stderr,
                     "dflow_serve: --advisor-calibration: %s; recalibrating "
                     "and overwriting\n",
                     load_error.c_str());
      } else if (model->schema_salt() != advisor_options.schema_salt) {
        // A model calibrated for a different pattern would silently
        // degrade every request to wrong-schema default aggregates (its
        // class keys can never match); refuse instead.
        std::fprintf(stderr,
                     "dflow_serve: %s was calibrated for a different "
                     "pattern (schema salt %016llx, served pattern "
                     "%016llx)\n",
                     advisor_calibration.c_str(),
                     static_cast<unsigned long long>(model->schema_salt()),
                     static_cast<unsigned long long>(
                         advisor_options.schema_salt));
        return 1;
      }
    }
    if (!model.has_value()) {
      std::vector<opt::CalibrationInstance> instances;
      instances.reserve(static_cast<size_t>(advisor_samples));
      for (int i = 0; i < advisor_samples; ++i) {
        const uint64_t seed = gen::InstanceSeed(params, i);
        instances.push_back({gen::MakeSourceBinding(pattern, seed), seed});
      }
      opt::CalibrationOptions calibration;
      calibration.candidates = opt::StrategyAdvisor::DefaultCandidates();
      calibration.harness = core::HarnessOptions{backend, sim::DatabaseParams{}};
      calibration.schema_salt = advisor_options.schema_salt;
      model = opt::CalibrateCostModel(pattern.schema, instances, calibration);
      if (!advisor_calibration.empty()) {
        std::string save_error;
        if (!model->SaveToFile(advisor_calibration, &save_error)) {
          std::fprintf(stderr, "dflow_serve: %s\n", save_error.c_str());
          return 1;
        }
      }
    }
    server_options.advisor = std::make_shared<opt::StrategyAdvisor>(
        std::move(*model), opt::StrategyAdvisor::DefaultCandidates(),
        advisor_options);
  }

  net::IngressOptions ingress_options;
  ingress_options.port = static_cast<uint16_t>(port);
  ingress_options.event_threads = event_threads;
  ingress_options.verbose = verbose;
  ingress_options.node_id = node_id;
  ingress_options.fleet_epoch = fleet_epoch;
  ingress_options.trace = trace;
  events.log_to_stderr = verbose;
  ingress_options.events = events;
  ingress_options.health = health;
  ingress_options.profile_jsonl_path = profile_jsonl;
  ingress_options.profile_jsonl_max_bytes = profile_max_bytes;

  // Block the shutdown signals *before* spawning server threads so every
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  net::IngressServer server(&pattern.schema, server_options, ingress_options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "dflow_serve: cannot listen on port %d: %s\n", port,
                 error.c_str());
    return 1;
  }
  std::printf(
      "dflow_serve listening on 127.0.0.1:%u (shards=%d, strategy=%s, "
      "backend=%s, queue=%d, cache=%d entries%s, pattern nodes=%d rows=%d "
      "seed=%llu)\n",
      server.port(), server.flow_server().num_shards(),
      strategy->ToString().c_str(),
      backend == core::BackendKind::kBoundedDb ? "bounded" : "infinite",
      queue, cache,
      cache_bytes > 0 ? (", " + std::to_string(cache_bytes) + " bytes").c_str()
                      : "",
      nodes, rows, static_cast<unsigned long long>(pattern_seed));
  if (server_options.advisor != nullptr) {
    std::printf(
        "strategy advisor: fingerprint=%016llx, %zu calibrated classes, "
        "explore 1/%d\n",
        static_cast<unsigned long long>(server_options.advisor->Fingerprint()),
        server_options.advisor->model().num_classes(), advisor_explore);
  }
  if (trace.sample_period > 0 || trace.slow_ms > 0) {
    std::printf("tracing: sample 1/%u%s%s%s\n",
                trace.slow_ms > 0 ? 1u : trace.sample_period,
                trace.slow_ms > 0 ? " (slow log arms full tracing)" : "",
                trace.jsonl_path.empty() ? "" : ", jsonl=",
                trace.jsonl_path.c_str());
  }
  if (profile_sample > 0) {
    std::printf("profiling: sample 1/%u%s%s\n", profile_sample,
                profile_jsonl.empty() ? "" : ", jsonl=",
                profile_jsonl.c_str());
  }
  std::fflush(stdout);

  // Periodic self-report: one stderr line every --log-stats-every seconds,
  // from counters that are cheap to read (no reservoir sort).
  std::mutex log_mu;
  std::condition_variable log_cv;
  bool log_stop = false;
  std::thread logger;
  if (log_stats_every > 0) {
    logger = std::thread([&] {
      std::unique_lock<std::mutex> lock(log_mu);
      while (!log_cv.wait_for(lock, std::chrono::seconds(log_stats_every),
                              [&] { return log_stop; })) {
        const runtime::IngressStats in = server.ingress_stats();
        const runtime::ResultCacheStats cache =
            server.flow_server().cache_totals();
        std::fprintf(
            stderr,
            "[serve] completed=%lld accepted=%lld busy=%lld cache=%lld/%lld "
            "traces=%lld outbox_stalls=%lld\n",
            static_cast<long long>(server.flow_server().total_processed()),
            static_cast<long long>(in.requests_accepted),
            static_cast<long long>(in.requests_rejected_busy),
            static_cast<long long>(cache.hits),
            static_cast<long long>(cache.hits + cache.misses),
            static_cast<long long>(server.recorder().finished()),
            static_cast<long long>(in.outbox_write_stalls));
      }
    });
  }

  int signal_number = 0;
  sigwait(&mask, &signal_number);
  std::printf("dflow_serve: received signal %d, draining...\n", signal_number);
  std::fflush(stdout);
  {
    std::lock_guard<std::mutex> lock(log_mu);
    log_stop = true;
  }
  log_cv.notify_all();
  if (logger.joinable()) logger.join();
  server.Stop();

  if (!advisor_promote.empty() && server.flow_server().advisor() != nullptr) {
    // Epoch step: fold this run's online cost observations and its measured
    // condition selectivities into a new frozen model. The serving model is
    // never mutated — the promoted copy only takes effect when a restart
    // loads it via --advisor-calibration.
    opt::CostModel promoted = server.flow_server().advisor()->PromotedModel();
    promoted.MergeObservedSelectivities(server.flow_server().MergedProfile());
    std::string save_error;
    if (!promoted.SaveToFile(advisor_promote, &save_error)) {
      std::fprintf(stderr, "dflow_serve: --advisor-promote: %s\n",
                   save_error.c_str());
    } else {
      std::printf(
          "advisor promote      %s (%zu classes, %zu observed "
          "selectivities)\n",
          advisor_promote.c_str(), promoted.num_classes(),
          promoted.selectivities().size());
    }
  }

  const runtime::FlowServerReport report = server.Report();
  std::printf("completed            %lld instances\n",
              static_cast<long long>(report.stats.completed));
  std::printf("throughput           %.1f instances/s over %.3f s\n",
              report.instances_per_second, report.wall_seconds);
  std::printf("latency p50/p95/p99  %.1f / %.1f / %.1f units\n",
              report.stats.p50_latency_units, report.stats.p95_latency_units,
              report.stats.p99_latency_units);
  std::printf("cache                %lld hits, %lld misses, %lld entries, "
              "%lld bytes resident, %lld admission skips\n",
              static_cast<long long>(report.cache.hits),
              static_cast<long long>(report.cache.misses),
              static_cast<long long>(report.cache.entries),
              static_cast<long long>(report.cache.bytes),
              static_cast<long long>(report.cache.admission_skips));
  if (report.stats.advisor_selections > 0) {
    std::printf("advisor              %lld selections (%lld explores, %lld "
                "class hits):",
                static_cast<long long>(report.stats.advisor_selections),
                static_cast<long long>(report.stats.advisor_explores),
                static_cast<long long>(report.stats.advisor_class_hits));
    for (const auto& [name, count] : report.stats.strategy_selections) {
      std::printf(" %s=%lld", name.c_str(), static_cast<long long>(count));
    }
    std::printf("\n");
  }
  const runtime::IngressStats& in = report.ingress;
  std::printf("ingress              %lld conns (%lld closed), %lld accepted, "
              "%lld busy, %lld shutdown, %lld decode errors, %lld protocol "
              "errors, %lld info\n",
              static_cast<long long>(in.connections_opened),
              static_cast<long long>(in.connections_closed),
              static_cast<long long>(in.requests_accepted),
              static_cast<long long>(in.requests_rejected_busy),
              static_cast<long long>(in.requests_rejected_shutdown),
              static_cast<long long>(in.decode_errors),
              static_cast<long long>(in.protocol_errors),
              static_cast<long long>(in.info_requests));
  std::printf("ingress bytes        %lld in, %lld out\n",
              static_cast<long long>(in.bytes_in),
              static_cast<long long>(in.bytes_out));
  if (server.recorder().finished() > 0) {
    std::printf("traces               %lld finished (%lld slow-logged)\n",
                static_cast<long long>(server.recorder().finished()),
                static_cast<long long>(server.recorder().slow_logged()));
  }
  if (metrics_dump) {
    // The same text a STATS metrics section carries, as a final snapshot.
    std::printf("--- metrics ---\n%s", server.MetricsText().c_str());
  }
  return 0;
}
