// dflow_router: the multi-node routing tier in front of a dflow_serve
// fleet.
//
// Speaks the wire protocol to clients on 127.0.0.1:<port> and fans every
// submit out to the configured backends by the same seed hash the
// FlowServer uses for shard placement, so results are byte-identical to a
// direct single-server run for any fleet size. Serves until
// SIGINT/SIGTERM, then drains gracefully (every admitted request is
// answered before the backends get their Goodbye) and prints the final
// per-backend report.
//
// All backends must serve the same schema pattern and strategy; the
// router verifies the strategy at startup via the Info handshake.
//
// Build:  cmake --build build --target dflow_router
// Run:    ./build/dflow_serve --port=4521 &
//         ./build/dflow_serve --port=4522 &
//         ./build/dflow_router --port=4517 --backends=4521,4522
// Drive:  ./build/dflow_load --port=4517 --requests=2000 --connections=4

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/router.h"
#include "net/server_config.h"

using namespace dflow;

int main(int argc, char** argv) {
  net::RouterOptions options;
  int port = 4517;
  bool metrics_dump = false;
  bool no_abort_on_divergence = false;  // the binary hard-fails by default
  int log_stats_every = 0;  // seconds; 0 = no periodic self-report

  net::ServerConfig config(
      "dflow_router",
      "The multi-node routing tier in front of a dflow_serve fleet: fans "
      "every submit out to the configured backends by the same seed hash "
      "the FlowServer uses for shard placement, so results are "
      "byte-identical to a direct single-server run for any fleet size.");
  config.Int("port", &port, "TCP listen port (0 = kernel-chosen)", 0, 65535)
      .Custom("backends", "PORT[,PORT...]",
              "REQUIRED: backend list, '4521,4522' or "
              "'host:4521,host:4522' (host defaults to 127.0.0.1)",
              [&options](const char* value, std::string* error) {
                options.backends.clear();
                if (!net::ParseBackendList(value, &options.backends)) {
                  *error = "cannot parse backend list";
                  return false;
                }
                return true;
              })
      .Int("replicas", &options.replicas,
           "replica group width: consecutive runs of N backends form one "
           "hash slot; the router prefers the group's lowest live member "
           "and fails in-flight work over to a sibling when a member dies",
           1, 256)
      .Int("event-threads", &options.event_threads,
           "event-loop threads owning client sockets (0 = min(4, hardware "
           "threads))",
           0, 256)
      .SamplePeriod("divergence-sample", &options.divergence_sample_period,
                    "1-in-N sampled replica cross-check: the same request "
                    "goes to two replicas and the result fingerprints must "
                    "match; a mismatch is fatal (exit 3) unless "
                    "--no-abort-on-divergence")
      .Bool("no-abort-on-divergence", &no_abort_on_divergence,
            "log divergence mismatches instead of exiting")
      .Double("connect-timeout", &options.connect_timeout_s,
              "seconds to wait for each backend at startup")
      .String("node-id", &options.node_id,
              "identity this router reports (default router:<port>)")
      .SamplePeriod("trace-sample", &options.trace.sample_period,
                    "1-in-N deterministic trace sampling at the fleet's "
                    "entry point; sampled submits are forwarded with the "
                    "trace extension, so the backend traces the same "
                    "requests under the router-minted id")
      .String("trace-jsonl", &options.trace.jsonl_path,
              "append every finished trace as one JSON line to this file")
      .Megabytes("trace-max-mb", &options.trace.jsonl_max_bytes,
                 "size budget for the trace JSONL sink; crossing it rotates "
                 "the file to <path>.1 (0 = never rotate)")
      .Double("slow-ms", &options.trace.slow_ms,
              "slow-relay log threshold in wall ms")
      .String("events-jsonl", &options.events.jsonl_path,
              "append every journal event as one JSON line to this file")
      .Megabytes("events-max-mb", &options.events.jsonl_max_bytes,
                 "rotation budget for the event JSONL sink, like "
                 "--trace-max-mb")
      .Double("health-interval", &options.health.interval_s,
              "health collector cadence in seconds; <= 0 disables the "
              "collector thread (the STATS health section is still answered, "
              "minus the rate series)")
      .Double("slo-ms", &options.health.slo_ms,
              "p95 relay-latency SLO for the health watermark rules: "
              "sustained p95 above this degrades dflow_health_status")
      .Int("log-stats-every", &log_stats_every,
           "periodic one-line self-report on stderr every N seconds", 0)
      .Bool("metrics-dump", &metrics_dump,
            "print the final Prometheus-style metrics exposition on drain")
      .Bool("verbose", &options.verbose,
            "per-connection log lines on stderr");
  std::string flag_error;
  switch (config.Parse(argc, argv, &flag_error)) {
    case net::ServerConfig::ParseStatus::kHelp:
      std::fputs(config.Help().c_str(), stdout);
      return 0;
    case net::ServerConfig::ParseStatus::kError:
      std::fprintf(stderr, "dflow_router: %s\n", flag_error.c_str());
      return 2;
    case net::ServerConfig::ParseStatus::kOk:
      break;
  }
  if (options.backends.empty()) {
    std::fprintf(stderr,
                 "dflow_router: --backends=PORT[,PORT...] (or host:port "
                 "items) is required\n");
    return 2;
  }
  options.port = static_cast<uint16_t>(port);
  options.events.log_to_stderr = options.verbose;
  options.abort_on_divergence =
      !no_abort_on_divergence && options.divergence_sample_period > 0;
  if (options.replicas > 1 &&
      options.backends.size() % static_cast<size_t>(options.replicas) != 0) {
    std::fprintf(stderr,
                 "dflow_router: %zu backends is not a multiple of "
                 "--replicas=%d\n",
                 options.backends.size(), options.replicas);
    return 2;
  }

  // Block the shutdown signals before spawning server threads so every
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &mask, nullptr);

  net::Router router(options);
  std::string error;
  if (!router.Start(&error)) {
    std::fprintf(stderr, "dflow_router: cannot start: %s\n", error.c_str());
    return 1;
  }
  const net::ServerInfo info = router.BuildInfo();
  std::printf(
      "dflow_router listening on 127.0.0.1:%u (%d backends = %d slots x %d "
      "replicas, %d total shards, strategy=%s, epoch=%llu)\n",
      router.port(), router.num_backends(),
      router.num_backends() / info.router.replicas, info.router.replicas,
      info.num_shards, info.strategy.c_str(),
      static_cast<unsigned long long>(info.fleet_epoch));
  for (const net::RouterBackendStats& backend : info.router.backends) {
    std::printf("  backend %-21s node_id=%-12s shards=%d slot=%d replica=%d\n",
                backend.address.c_str(), backend.node_id.c_str(),
                backend.shards, backend.slot, backend.replica);
  }
  if (options.divergence_sample_period > 0) {
    std::printf("  divergence cross-check: 1 in %u submits%s\n",
                options.divergence_sample_period,
                options.abort_on_divergence ? ", mismatch is fatal" : "");
  }
  std::fflush(stdout);

  // Periodic self-report: one stderr line every --log-stats-every seconds.
  std::mutex log_mu;
  std::condition_variable log_cv;
  bool log_stop = false;
  std::thread logger;
  if (log_stats_every > 0) {
    logger = std::thread([&] {
      std::unique_lock<std::mutex> lock(log_mu);
      while (!log_cv.wait_for(lock, std::chrono::seconds(log_stats_every),
                              [&] { return log_stop; })) {
        const runtime::IngressStats front = router.front_stats();
        std::fprintf(
            stderr,
            "[router] routed=%lld busy=%lld shutdown=%lld traces=%lld "
            "outbox_stalls=%lld\n",
            static_cast<long long>(front.requests_accepted),
            static_cast<long long>(front.requests_rejected_busy),
            static_cast<long long>(front.requests_rejected_shutdown),
            static_cast<long long>(router.recorder().finished()),
            static_cast<long long>(front.outbox_write_stalls));
      }
    });
  }

  int signal_number = 0;
  sigwait(&mask, &signal_number);
  std::printf("dflow_router: received signal %d, draining...\n",
              signal_number);
  std::fflush(stdout);
  {
    std::lock_guard<std::mutex> lock(log_mu);
    log_stop = true;
  }
  log_cv.notify_all();
  if (logger.joinable()) logger.join();
  router.Stop();

  const net::ServerInfo report = router.BuildInfo();
  const runtime::IngressStats& front = report.ingress;
  std::printf("routed               %lld submits (%lld results, %lld busy, "
              "%lld shutdown, %lld unavailable)\n",
              static_cast<long long>(front.requests_accepted),
              static_cast<long long>(report.completed),
              static_cast<long long>(front.requests_rejected_busy),
              static_cast<long long>(front.requests_rejected_shutdown),
              static_cast<long long>(report.rejected -
                                     front.requests_rejected_busy -
                                     front.requests_rejected_shutdown));
  std::printf("front                %lld conns (%lld closed), %lld decode "
              "errors, %lld protocol errors, %lld info\n",
              static_cast<long long>(front.connections_opened),
              static_cast<long long>(front.connections_closed),
              static_cast<long long>(front.decode_errors),
              static_cast<long long>(front.protocol_errors),
              static_cast<long long>(front.info_requests));
  std::printf("front bytes          %lld in, %lld out\n",
              static_cast<long long>(front.bytes_in),
              static_cast<long long>(front.bytes_out));
  for (const net::RouterBackendStats& backend : report.router.backends) {
    std::printf("backend %-21s slot=%d/%d forwarded=%lld answered=%lld "
                "unavailable=%lld reconnects=%lld failovers=%lld%s\n",
                backend.address.c_str(), backend.slot, backend.replica,
                static_cast<long long>(backend.forwarded),
                static_cast<long long>(backend.answered),
                static_cast<long long>(backend.unavailable),
                static_cast<long long>(backend.reconnects),
                static_cast<long long>(backend.failovers),
                backend.connected == 1 ? "" : " (down)");
  }
  if (report.router.replicas > 1) {
    std::printf("fleet                replicas=%d failovers=%lld "
                "divergence: %lld checks, %lld mismatches, %lld incomplete\n",
                report.router.replicas,
                static_cast<long long>(report.router.failovers),
                static_cast<long long>(report.router.divergence_checks),
                static_cast<long long>(report.router.divergence_mismatches),
                static_cast<long long>(report.router.divergence_incomplete));
  }
  if (router.recorder().finished() > 0) {
    std::printf("traces               %lld finished (%lld slow-logged)\n",
                static_cast<long long>(router.recorder().finished()),
                static_cast<long long>(router.recorder().slow_logged()));
  }
  if (metrics_dump) {
    // The same text a STATS metrics section carries, as a final snapshot.
    std::printf("--- metrics ---\n%s", router.MetricsText().c_str());
  }
  return 0;
}
