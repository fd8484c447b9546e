// dflow_load: TCP load driver for dflow_serve, speaking the wire protocol
// through net::Client. Generates the same Table 1 pattern workload as
// bench_throughput_vs_shards (the pattern flags MUST match the server's,
// or source bindings will not correspond to the server's schema) and
// drives it over loopback in either loop discipline:
//
//   - closed loop (default): each connection keeps exactly one request in
//     flight — send, await the response, repeat. Latency is a clean RTT;
//     throughput is bounded by connections / RTT.
//   - open loop (--mode=open --rate=R): each connection paces submissions
//     at R/connections per second regardless of responses (a reader
//     drains them concurrently), so queueing delay shows up in the
//     latencies instead of slowing the arrival process.
//   - swarm (--mode=swarm --batch=B): holds EVERY connection open
//     concurrently (a few worker threads each own hundreds of them — the
//     event-driven ingress makes 10k+ connections cheap server-side) and
//     drives each connection in batch-closed-loop discipline over the v7
//     BATCH_SUBMIT frame: submit B requests in one frame, drain the B
//     completions, repeat. Completions are mapped back to workload
//     indices, so the workload fingerprint is comparable across all three
//     modes — a swarm run attests the same bytes as a singleton run.
//
// Either discipline can be time-bounded instead of quota-bounded:
// --duration=SECS (with --distinct=K) drives until the deadline, drains
// every in-flight request through the goodbye handshake, and reports the
// achieved rate as requests_per_second over the actual window — the shape
// soak tests and chaos stages want, where "how many requests" is an
// output, not an input. Connections interleave the request index space
// (connection c sends c, c+N, c+2N, ...), so the workload stays a
// deterministic function of the index regardless of when the clock stops.
//
// Prints the same throughput/latency table shape as
// bench_throughput_vs_shards, or a machine-readable object with --json.
// Exit status is nonzero on any transport/decode/protocol error, or — with
// --fail-on-reject — on any REJECTED_BUSY/SHUTTING_DOWN response, so CI
// can gate on "N requests served cleanly".
//
// Every run also folds the per-request result fingerprints (keyed by
// request_id, so completion order is irrelevant) into one 64-bit workload
// fingerprint. Replaying the same workload against a direct single-node
// server and against a dflow_router fleet must produce the same value —
// --expect-fingerprint-match=HEX makes that an exit-code gate, proving the
// deployments byte-identical without shipping snapshots around.
//
// Scenario diversity: --dist picks which of the --distinct request
// classes the i-th request belongs to, as a pure function of (dist-seed,
// i) — the workload is identical on every run and for any connection
// split, so skewed traffic is exactly as reproducible as the default:
//
//   --dist=roundrobin          index % distinct (the default; the PR 2/3
//                              behavior, exercises every class equally)
//   --dist=uniform             uniform over the classes via a seeded
//                              SplitMix64 draw per request
//   --dist=zipf:<theta>        Zipf(theta) over class ranks 1..distinct
//                              (theta > 0; bigger = more skew)
//   --dist=hotset:<k>:<pct>    pct% of requests uniform over the first k
//                              classes, the rest uniform over the others
//   --dist-seed=S              the PRNG seed (default 42)
//
// When servers stamp the executed strategy into results (always, v3), the
// --json report also carries a per-strategy selection histogram — on an
// AUTO fleet this shows the advisor's choices across the workload.
//
// Observability: --trace sets the v4 trace flag on every submit (trace_id
// 0, so the first node on the path — router or ingress — mints the id),
// prints a few per-request span waterfalls to stderr, and folds every
// returned timing trailer into a per-stage summary (the "stages" object in
// --json). Swarm batches carry no per-item trace flag, so there --trace
// folds whatever trailers the server's own sampler attached and adds a
// client-side "client.batch" stage (send -> completion wait per item).
// --metrics-dump scrapes the metrics section of a STATS frame after the
// run and prints the Prometheus-style text.
//
// Run:  ./build/dflow_load --port=4517 --requests=2000 --connections=4
//           [--mode=closed|open] [--rate=R] [--duration=SECS]
//           [--distinct=K] [--nonblocking]
//           [--snapshot] [--info-every=N] [--strategy=PSE100]
//           [--nodes=64 --rows=4 --pattern-seed=1]
//           [--dist=zipf:0.9] [--dist-seed=42]
//           [--connect-timeout=5] [--json] [--fail-on-reject]
//           [--expect-fingerprint-match=HEX] [--trace] [--metrics-dump]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "gen/schema_generator.h"
#include "net/client.h"
#include "net/server_config.h"
#include "obs/trace.h"

using namespace dflow;

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  std::string host = "127.0.0.1";
  int port = 4517;
  int requests = 2000;
  int connections = 4;
  bool open_loop = false;
  // Swarm discipline: hold every connection concurrently and drive each
  // with BATCH_SUBMIT frames of `batch` requests.
  bool swarm = false;
  int batch = 16;
  int swarm_threads = 0;  // worker threads owning the swarm; 0 = auto
  double rate = 1000.0;  // total target arrivals/s across connections
  // Time-bounded mode: > 0 drives for this many seconds instead of a fixed
  // --requests quota (each connection strides the deterministic request
  // index space, so the workload prefix is still reproducible). The JSON
  // report's requests_per_second is then the achieved rate over the window.
  double duration_s = 0;
  int distinct = 0;      // 0 => all unique
  std::string dist = "roundrobin";  // class distribution (see file header)
  uint64_t dist_seed = 42;
  int nodes = 64, rows = 4;
  uint64_t pattern_seed = 1;
  bool nonblocking = false;
  bool want_snapshot = false;
  int info_every = 0;  // every Nth request per connection also queries info
  std::string strategy;  // optional override sent on every submit
  double connect_timeout_s = 5.0;
  bool json = false;
  bool fail_on_reject = false;
  bool expect_fingerprint = false;
  uint64_t expected_fingerprint = 0;
  // Request end-to-end tracing: every submit carries the v4 trace
  // extension with trace_id 0, so the entry point (router or ingress)
  // assigns the id and the result comes back with the span trailer.
  bool trace = false;
  // Scrape and print the server's metrics text after the run.
  bool metrics_dump = false;
};

// How many full span waterfalls --trace prints (the rest only feed the
// aggregate per-stage summary).
constexpr size_t kMaxWaterfalls = 4;

// Deterministic class picker behind --dist: Pick(i) is a pure function of
// (kind, parameters, dist_seed, i), so the generated workload is
// independent of run, connection split, and completion order. The draws
// are stateless SplitMix64 hashes, never a shared PRNG stream.
class ClassPicker {
 public:
  // Parses the --dist spec against `distinct` classes; false on a
  // malformed spec.
  bool Init(const std::string& spec, int distinct, uint64_t seed) {
    distinct_ = std::max(1, distinct);
    seed_ = seed;
    if (spec == "roundrobin") {
      kind_ = Kind::kRoundRobin;
      return true;
    }
    if (spec == "uniform") {
      kind_ = Kind::kUniform;
      return true;
    }
    if (spec.rfind("zipf:", 0) == 0) {
      char* end = nullptr;
      const double theta = std::strtod(spec.c_str() + 5, &end);
      // Reject trailing junk: the spec is echoed into the JSON report.
      if (theta <= 0 || end == nullptr || *end != '\0') return false;
      kind_ = Kind::kZipf;
      // CDF over ranks 1..distinct with weight rank^-theta.
      cdf_.reserve(static_cast<size_t>(distinct_));
      double total = 0;
      for (int rank = 1; rank <= distinct_; ++rank) {
        total += std::pow(static_cast<double>(rank), -theta);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
      return true;
    }
    if (spec.rfind("hotset:", 0) == 0) {
      int k = 0, pct = 0, consumed = 0;
      if (std::sscanf(spec.c_str(), "hotset:%d:%d%n", &k, &pct,
                      &consumed) != 2 ||
          static_cast<size_t>(consumed) != spec.size()) {
        return false;
      }
      if (k <= 0 || k > distinct_ || pct < 0 || pct > 100) return false;
      kind_ = Kind::kHotset;
      hot_k_ = k;
      hot_pct_ = pct;
      return true;
    }
    return false;
  }

  int Pick(int index) const {
    const auto draw = [&](uint64_t salt) {
      // Uniform double in [0, 1) from a stateless hash, mirroring
      // Rng::UniformDouble's mantissa construction.
      const uint64_t bits =
          Rng::Mix(seed_, static_cast<uint64_t>(index) + 1, salt);
      return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
    };
    switch (kind_) {
      case Kind::kRoundRobin:
        return index % distinct_;
      case Kind::kUniform:
        return static_cast<int>(
            Rng::Mix(seed_, static_cast<uint64_t>(index) + 1, 0xd157u) %
            static_cast<uint64_t>(distinct_));
      case Kind::kZipf: {
        const double u = draw(0x21bfu);
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<int>(std::min<ptrdiff_t>(
            it - cdf_.begin(), static_cast<ptrdiff_t>(distinct_ - 1)));
      }
      case Kind::kHotset: {
        const bool hot = draw(0x407u) * 100.0 < hot_pct_;
        if (hot || hot_k_ >= distinct_) {
          return static_cast<int>(
              Rng::Mix(seed_, static_cast<uint64_t>(index) + 1, 0x4075e7u) %
              static_cast<uint64_t>(hot_k_));
        }
        return hot_k_ + static_cast<int>(
                            Rng::Mix(seed_, static_cast<uint64_t>(index) + 1,
                                     0xc01d5e7u) %
                            static_cast<uint64_t>(distinct_ - hot_k_));
      }
    }
    return 0;
  }

 private:
  enum class Kind { kRoundRobin, kUniform, kZipf, kHotset };
  Kind kind_ = Kind::kRoundRobin;
  int distinct_ = 1;
  uint64_t seed_ = 0;
  std::vector<double> cdf_;
  int hot_k_ = 1;
  double hot_pct_ = 0;
};

// Per-connection tallies, merged after the workers join.
struct WorkerResult {
  int64_t ok = 0;
  int64_t rejected_busy = 0;
  int64_t rejected_shutdown = 0;
  int64_t errors = 0;  // transport failures, decode failures, wrong replies
  int64_t info_ok = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  std::vector<double> latencies_ms;  // client-observed RTT per answered submit
  // (request_id, result fingerprint) per successful submit; merged and
  // folded request_id-ordered into the workload fingerprint.
  std::vector<std::pair<uint64_t, uint64_t>> fingerprints;
  // Executed-strategy histogram from the results (per-request AUTO
  // choices on an advisor-driven fleet; one bucket on a fixed fleet).
  std::map<std::string, int64_t> strategies;
  // Per-stage (span kind -> {count, total duration ns}) from the timing
  // trailers of traced responses, plus a few rendered waterfalls.
  std::map<uint8_t, std::pair<int64_t, uint64_t>> span_stats;
  std::vector<std::string> waterfalls;
  // Swarm --trace: client-observed batch wait (send -> each completion).
  // Span kinds are a server-side wire keyspace, so this client-only stage
  // rides its own tally and joins the stage summary as "client.batch".
  int64_t batch_completions = 0;
  uint64_t batch_wait_ns = 0;
};

// Renders one traced response as an aligned waterfall: spans in pipeline
// order, bar widths proportional to the longest stage. router.forward
// (when present) nests the whole downstream pipeline, so its bar is the
// end-to-end reference.
std::string FormatWaterfall(const net::SubmitResult& result) {
  std::vector<net::WireSpan> spans = result.spans;
  std::sort(spans.begin(), spans.end(),
            [](const net::WireSpan& a, const net::WireSpan& b) {
              return a.kind < b.kind;  // pipeline order
            });
  uint64_t max_ns = 1;
  for (const net::WireSpan& span : spans) {
    max_ns = std::max(max_ns, span.duration_ns);
  }
  char line[160];
  std::snprintf(line, sizeof(line), "# trace %016llx (request %llu):\n",
                static_cast<unsigned long long>(result.trace_id),
                static_cast<unsigned long long>(result.request_id));
  std::string out = line;
  for (const net::WireSpan& span : spans) {
    const int width =
        1 + static_cast<int>((span.duration_ns * 31) / max_ns);
    std::snprintf(line, sizeof(line), "#   %-16s %10.1f us  %.*s\n",
                  obs::ToString(static_cast<obs::SpanKind>(span.kind)),
                  static_cast<double>(span.duration_ns) / 1e3, width,
                  "================================");
    out += line;
  }
  return out;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  const double rank = p * static_cast<double>(sorted->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*sorted)[lo] * (1 - frac) + (*sorted)[hi] * frac;
}

// Connect with retry until the deadline: lets CI start driver and server
// concurrently without a sleep-and-hope race.
bool ConnectWithRetry(net::Client* client, const Config& config,
                      std::string* error) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             config.connect_timeout_s));
  while (true) {
    if (client->Connect(config.host, static_cast<uint16_t>(config.port),
                        error)) {
      return true;
    }
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void TallyReply(const net::ServerMessage& message, const Clock::time_point& t0,
                WorkerResult* result) {
  switch (message.type) {
    case net::MsgType::kSubmitResult: {
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - t0)
                            .count();
      result->latencies_ms.push_back(ms);
      result->fingerprints.emplace_back(message.result.request_id,
                                        message.result.fingerprint);
      if (!message.result.strategy.empty()) {
        ++result->strategies[message.result.strategy];
      }
      if (message.result.trace_id != 0 && !message.result.spans.empty()) {
        for (const net::WireSpan& span : message.result.spans) {
          auto& stat = result->span_stats[span.kind];
          ++stat.first;
          stat.second += span.duration_ns;
        }
        if (result->waterfalls.size() < kMaxWaterfalls) {
          result->waterfalls.push_back(FormatWaterfall(message.result));
        }
      }
      ++result->ok;
      return;
    }
    case net::MsgType::kError:
      if (message.error.code == net::WireError::kRejectedBusy) {
        ++result->rejected_busy;
      } else if (message.error.code == net::WireError::kShuttingDown) {
        ++result->rejected_shutdown;
      } else {
        ++result->errors;
      }
      return;
    default:
      ++result->errors;
      return;
  }
}

// Closed loop: one request in flight per connection, RTT per request.
//
// Both workers take the request index sequence as (first, count, stride):
// the fixed-quota split gives each connection a contiguous range with
// stride 1; --duration gives connection c the interleaved sequence
// c, c+N, c+2N, ... (count < 0 = unbounded) and stops at `deadline`, so
// for any instant the union of sent indices is a prefix-dense subset of
// the same deterministic workload the quota mode draws from.
WorkerResult RunClosedWorker(const Config& config,
                             const gen::GeneratedSchema& pattern,
                             const ClassPicker& picker, int first, int count,
                             int stride, Clock::time_point deadline) {
  const bool timed = count < 0;
  WorkerResult result;
  net::Client client;
  std::string error;
  if (!ConnectWithRetry(&client, config, &error)) {
    result.errors += timed ? 1 : count;
    return result;
  }
  for (int i = 0; timed || i < count; ++i) {
    if (timed && Clock::now() >= deadline) break;
    const int index = first + i * stride;
    net::SubmitRequest request;
    request.request_id = static_cast<uint64_t>(index) + 1;
    request.seed = gen::InstanceSeed(pattern.params, picker.Pick(index));
    request.blocking = !config.nonblocking;
    request.want_snapshot = config.want_snapshot;
    request.has_trace = config.trace;  // trace_id 0: entry point assigns
    request.strategy = config.strategy;
    request.sources = gen::MakeSourceBinding(pattern, request.seed);
    const Clock::time_point t0 = Clock::now();
    const std::optional<net::ServerMessage> reply = client.Call(request);
    if (!reply.has_value()) {
      // Connection is gone; everything still unsent counts as errored
      // (one error in timed mode — there is no remaining quota).
      result.errors += timed ? 1 : count - i;
      break;
    }
    TallyReply(*reply, t0, &result);
    if (config.info_every > 0 && (i + 1) % config.info_every == 0) {
      if (client.Info().has_value()) {
        ++result.info_ok;
      } else {
        ++result.errors;
        break;
      }
    }
  }
  if (client.connected()) client.Goodbye();
  result.bytes_sent = client.bytes_sent();
  result.bytes_received = client.bytes_received();
  return result;
}

// Open loop: paced sender + concurrent reader on one connection.
WorkerResult RunOpenWorker(const Config& config,
                           const gen::GeneratedSchema& pattern,
                           const ClassPicker& picker, int first, int count,
                           int stride, Clock::time_point deadline) {
  const bool timed = count < 0;
  WorkerResult result;
  net::Client client;
  std::string error;
  if (!ConnectWithRetry(&client, config, &error)) {
    result.errors += timed ? 1 : count;
    return result;
  }
  const double per_connection_rate =
      std::max(1e-6, config.rate / std::max(1, config.connections));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / per_connection_rate));

  std::mutex mu;  // guards send_times and result during the overlap
  std::unordered_map<uint64_t, Clock::time_point> send_times;
  std::atomic<bool> sender_failed{false};

  std::thread reader([&] {
    // Every submit produces exactly one reply (result or typed error);
    // count replies until the sender's quota is fully answered. In timed
    // mode the quota is unknown until the deadline hits, so the sender
    // finishes with a kGoodbye: the server flushes every outstanding
    // response before acking, making the ack the reader's end-of-stream.
    int answered = 0;
    while ((timed || answered < count) && !sender_failed.load()) {
      std::optional<net::ServerMessage> reply = client.ReadMessage();
      if (!reply.has_value()) break;
      if (reply->type == net::MsgType::kGoodbyeAck) break;
      std::lock_guard<std::mutex> lock(mu);
      Clock::time_point t0 = Clock::now();
      const uint64_t id = reply->type == net::MsgType::kSubmitResult
                              ? reply->result.request_id
                              : reply->error.request_id;
      const auto it = send_times.find(id);
      if (it != send_times.end()) {
        t0 = it->second;
        send_times.erase(it);
      }
      TallyReply(*reply, t0, &result);
      ++answered;
    }
  });

  Clock::time_point next_send = Clock::now();
  for (int i = 0; timed || i < count; ++i) {
    if (timed && next_send >= deadline) break;
    std::this_thread::sleep_until(next_send);
    next_send += interval;
    const int index = first + i * stride;
    net::SubmitRequest request;
    request.request_id = static_cast<uint64_t>(index) + 1;
    request.seed = gen::InstanceSeed(pattern.params, picker.Pick(index));
    request.blocking = !config.nonblocking;
    request.want_snapshot = config.want_snapshot;
    request.has_trace = config.trace;  // trace_id 0: entry point assigns
    request.strategy = config.strategy;
    request.sources = gen::MakeSourceBinding(pattern, request.seed);
    {
      std::lock_guard<std::mutex> lock(mu);
      send_times.emplace(request.request_id, Clock::now());
    }
    if (!client.SendSubmit(request)) {
      std::lock_guard<std::mutex> lock(mu);
      result.errors += timed ? 1 : count - i;
      sender_failed.store(true);
      break;
    }
  }
  if (timed && !sender_failed.load()) {
    // Drain handshake: the ack trails every pending response, so the
    // reader tallies the full send prefix before it exits.
    if (!client.SendGoodbye()) sender_failed.store(true);
  }
  reader.join();
  if (timed) {
    client.Close();  // goodbye (with ack) already consumed by the reader
  } else if (client.connected() && !sender_failed.load()) {
    client.Goodbye();
  }
  result.bytes_sent = client.bytes_sent();
  result.bytes_received = client.bytes_received();
  return result;
}

// Swarm: this worker owns many connections at once and drives each in a
// batch-closed loop over the v7 async Client surface — SubmitBatch ships
// B requests in one frame, DrainCompletions settles them. Rounds are
// two-phase on purpose: first a batch goes out on EVERY owned connection,
// then the answers are drained connection by connection, so while one
// connection's drain blocks, every other connection's batch is still in
// flight server-side. Concurrency scales with connections, not with
// worker threads.
WorkerResult RunSwarmWorker(const Config& config,
                            const gen::GeneratedSchema& pattern,
                            const ClassPicker& picker,
                            const std::vector<std::pair<int, int>>& slices,
                            std::atomic<int>* ready, int total_conns) {
  struct Conn {
    net::Client client;
    int first = 0;  // workload index range [first, first + count)
    int count = 0;
    int next = 0;  // offset of the first unsent index
    bool alive = false;
    net::TicketRange range;  // the in-flight batch (count 0 = none)
    int batch_base = 0;      // workload index answering under range.first
    Clock::time_point t0;    // when the in-flight batch was sent
  };
  WorkerResult result;
  std::vector<Conn> conns(slices.size());
  for (size_t k = 0; k < slices.size(); ++k) {
    conns[k].first = slices[k].first;
    conns[k].count = slices[k].second;
    std::string error;
    conns[k].alive = ConnectWithRetry(&conns[k].client, config, &error);
    if (!conns[k].alive) result.errors += conns[k].count;
    ready->fetch_add(1);
  }
  // Hold the fleet: drive only once every worker's connections are
  // established (or definitively failed), so the run really measures the
  // configured concurrency level, not a ramp.
  while (ready->load(std::memory_order_acquire) < total_conns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int batch = std::max(1, config.batch);
  net::BatchOptions options;
  options.blocking = !config.nonblocking;
  options.want_snapshot = config.want_snapshot;
  options.strategy = config.strategy;
  std::vector<net::BatchItem> items;
  bool progress = true;
  while (progress) {
    progress = false;
    for (Conn& conn : conns) {
      if (!conn.alive || conn.next >= conn.count) continue;
      const int n = std::min(batch, conn.count - conn.next);
      items.assign(static_cast<size_t>(n), net::BatchItem{});
      for (int i = 0; i < n; ++i) {
        const int index = conn.first + conn.next + i;
        items[static_cast<size_t>(i)].seed =
            gen::InstanceSeed(pattern.params, picker.Pick(index));
        items[static_cast<size_t>(i)].sources =
            gen::MakeSourceBinding(pattern, items[static_cast<size_t>(i)].seed);
      }
      conn.t0 = Clock::now();
      conn.range = conn.client.SubmitBatch(items, options);
      if (!conn.range.ok()) {
        result.errors += conn.count - conn.next;
        conn.alive = false;
        continue;
      }
      conn.batch_base = conn.first + conn.next;
      conn.next += n;
      progress = true;
    }
    for (Conn& conn : conns) {
      if (!conn.alive || !conn.range.ok()) continue;
      const bool drained = conn.client.DrainCompletions(
          [&](const net::Completion& completion) {
            const double ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - conn.t0)
                                  .count();
            // Map the auto-assigned correlation id back to the workload
            // index, so fingerprints (and the fold over them) are
            // comparable with the singleton modes.
            const uint64_t workload_id =
                static_cast<uint64_t>(conn.batch_base) +
                (completion.request_id - conn.range.first_id) + 1;
            if (completion.type == net::MsgType::kSubmitResult) {
              result.latencies_ms.push_back(ms);
              result.fingerprints.emplace_back(workload_id,
                                               completion.result.fingerprint);
              if (!completion.result.strategy.empty()) {
                ++result.strategies[completion.result.strategy];
              }
              // Batch submits carry no trace extension, but the server's own
              // sampler still traces a subset; fold those timing trailers
              // into the same stage summary the singleton modes build.
              if (completion.result.trace_id != 0 &&
                  !completion.result.spans.empty()) {
                for (const net::WireSpan& span : completion.result.spans) {
                  auto& stat = result.span_stats[span.kind];
                  ++stat.first;
                  stat.second += span.duration_ns;
                }
                if (config.trace && result.waterfalls.size() < kMaxWaterfalls) {
                  result.waterfalls.push_back(
                      FormatWaterfall(completion.result));
                }
              }
              if (config.trace) {
                ++result.batch_completions;
                result.batch_wait_ns += static_cast<uint64_t>(ms * 1e6);
              }
              ++result.ok;
            } else if (completion.error.code == net::WireError::kRejectedBusy) {
              ++result.rejected_busy;
            } else if (completion.error.code ==
                       net::WireError::kShuttingDown) {
              ++result.rejected_shutdown;
            } else {
              ++result.errors;
            }
          });
      if (!drained) {
        result.errors += conn.count - conn.next +
                         static_cast<int64_t>(conn.client.outstanding());
        conn.alive = false;
      }
      conn.range = net::TicketRange{};
    }
  }
  for (Conn& conn : conns) {
    if (conn.alive && conn.client.connected()) conn.client.Goodbye();
    result.bytes_sent += conn.client.bytes_sent();
    result.bytes_received += conn.client.bytes_received();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  net::ServerConfig flags(
      "dflow_load",
      "TCP load driver for dflow_serve / dflow_router: generates the Table "
      "1 pattern workload (pattern flags MUST match the server's) and "
      "drives it over the wire protocol in closed-loop, open-loop, or "
      "swarm (many held connections, batched submits) discipline.");
  flags.String("host", &config.host, "server to drive")
      .Int("port", &config.port, "server's wire-protocol port", 1, 65535)
      .Int("requests", &config.requests, "total request quota", 1)
      .Int("connections", &config.connections, "concurrent connections", 1,
           1 << 20)
      .Custom("mode", "closed|open|swarm",
              "loop discipline (see the file header)",
              [&config](const char* value, std::string* error) {
                config.open_loop = std::strcmp(value, "open") == 0;
                config.swarm = std::strcmp(value, "swarm") == 0;
                if (!config.open_loop && !config.swarm &&
                    std::strcmp(value, "closed") != 0) {
                  *error = "must be closed, open, or swarm";
                  return false;
                }
                return true;
              })
      .Double("rate", &config.rate,
              "open loop: total target arrivals/s across connections")
      .Double("duration", &config.duration_s,
              "drive for this many seconds instead of a fixed quota "
              "(requires --distinct)")
      .Int("batch", &config.batch,
           "swarm: requests per BATCH_SUBMIT frame", 1, 65536)
      .Int("swarm-threads", &config.swarm_threads,
           "swarm: worker threads owning the connections (0 = auto)", 0,
           4096)
      .Int("distinct", &config.distinct,
           "distinct request classes (0 = all unique)", 0)
      .String("dist", &config.dist,
              "class distribution: roundrobin, uniform, zipf:<theta>, or "
              "hotset:<k>:<pct>")
      .Uint64("dist-seed", &config.dist_seed, "class distribution PRNG seed")
      .Int("nodes", &config.nodes, "pattern schema size in nodes", 1)
      .Int("rows", &config.rows, "rows per pattern source", 1)
      .Uint64("pattern-seed", &config.pattern_seed, "pattern generator seed")
      .Int("info-every", &config.info_every,
           "closed loop: every Nth request per connection also queries "
           "Info (0 = never)",
           0)
      .String("strategy", &config.strategy,
              "strategy override sent on every submit (empty = server "
              "default)")
      .Double("connect-timeout", &config.connect_timeout_s,
              "seconds each connection retries the initial connect")
      .Custom("expect-fingerprint-match", "HEX",
              "exit nonzero unless every request succeeded and the "
              "workload fingerprint equals this value",
              [&config](const char* value, std::string* error) {
                char* end = nullptr;
                config.expected_fingerprint = std::strtoull(value, &end, 16);
                if (end == value || *end != '\0') {
                  *error = "must be a hex fingerprint";
                  return false;
                }
                config.expect_fingerprint = true;
                return true;
              })
      .Bool("nonblocking", &config.nonblocking,
            "nonblocking admission (rejects instead of waiting for queue "
            "room)")
      .Bool("snapshot", &config.want_snapshot,
            "request full result snapshots")
      .Bool("trace", &config.trace,
            "set the trace flag on every submit and fold the timing "
            "trailers into a per-stage summary (swarm mode folds the "
            "server-sampled trailers plus client batch waits)")
      .Bool("metrics-dump", &config.metrics_dump,
            "scrape and print the server's metrics text after the run")
      .Bool("json", &config.json,
            "print one machine-readable JSON object instead of the table")
      .Bool("fail-on-reject", &config.fail_on_reject,
            "exit nonzero on any REJECTED_BUSY/SHUTTING_DOWN response");
  std::string flag_error;
  switch (flags.Parse(argc, argv, &flag_error)) {
    case net::ServerConfig::ParseStatus::kHelp:
      std::fputs(flags.Help().c_str(), stdout);
      return 0;
    case net::ServerConfig::ParseStatus::kError:
      std::fprintf(stderr, "dflow_load: %s\n", flag_error.c_str());
      return 2;
    case net::ServerConfig::ParseStatus::kOk:
      break;
  }
  const bool timed = config.duration_s > 0;
  if (config.swarm && timed) {
    // Swarm rounds are quota-driven; a deadline would cut batches midway
    // and make the reported concurrency level a lie.
    std::fprintf(stderr,
                 "dflow_load: --mode=swarm is quota-bounded; drop "
                 "--duration\n");
    return 2;
  }
  if (timed && config.expect_fingerprint) {
    // The fingerprint gate attests a *fixed* workload answered in full; a
    // time-bounded run's request count is load-dependent by design.
    std::fprintf(stderr,
                 "dflow_load: --expect-fingerprint-match requires a fixed "
                 "--requests quota, not --duration\n");
    return 2;
  }
  if (timed && config.distinct == 0) {
    // "All unique" sizes the class space off --requests, which a timed run
    // ignores; demand an explicit class count instead of silently reusing
    // a quota the run will not honor.
    std::fprintf(stderr,
                 "dflow_load: --duration requires --distinct=K (the class "
                 "space cannot be sized by --requests)\n");
    return 2;
  }

  gen::PatternParams params;
  params.nb_nodes = config.nodes;
  params.nb_rows = config.rows;
  params.seed = config.pattern_seed;
  const gen::GeneratedSchema pattern = gen::GeneratePattern(params);

  ClassPicker picker;
  if (!picker.Init(config.dist,
                   config.distinct > 0 ? config.distinct : config.requests,
                   config.dist_seed)) {
    std::fprintf(stderr, "cannot parse --dist '%s'\n", config.dist.c_str());
    return 2;
  }

  // Split the request index space across connections: a fixed quota gets
  // contiguous stride-1 ranges (remainder to the first); a timed run gives
  // connection c the interleaved sequence c, c+N, c+2N, ... (count -1 =
  // "until the deadline").
  std::vector<std::pair<int, int>> ranges;
  const int stride = timed ? config.connections : 1;
  if (timed) {
    for (int c = 0; c < config.connections; ++c) ranges.emplace_back(c, -1);
  } else {
    const int base = config.requests / config.connections;
    int cursor = 0;
    for (int c = 0; c < config.connections; ++c) {
      const int count =
          base + (c < config.requests % config.connections ? 1 : 0);
      ranges.emplace_back(cursor, count);
      cursor += count;
    }
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      timed ? start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(config.duration_s))
            : Clock::time_point::max();
  std::vector<WorkerResult> results;
  std::vector<std::thread> workers;
  if (config.swarm) {
    // A few worker threads each own a block of connections; the swarm's
    // concurrency comes from held connections with batches in flight, not
    // from thread count.
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int num_workers = std::min(
        config.connections,
        config.swarm_threads > 0 ? config.swarm_threads
                                 : std::max(8, 2 * std::max(1, hw)));
    results.resize(static_cast<size_t>(num_workers));
    workers.reserve(static_cast<size_t>(num_workers));
    std::atomic<int> ready{0};
    const int per_worker = config.connections / num_workers;
    int cursor = 0;
    for (int w = 0; w < num_workers; ++w) {
      const int owned =
          per_worker + (w < config.connections % num_workers ? 1 : 0);
      std::vector<std::pair<int, int>> slices(
          ranges.begin() + cursor, ranges.begin() + cursor + owned);
      cursor += owned;
      workers.emplace_back([&, w, slices = std::move(slices)] {
        results[static_cast<size_t>(w)] =
            RunSwarmWorker(config, pattern, picker, slices, &ready,
                           config.connections);
      });
    }
  } else {
    results.resize(ranges.size());
    workers.reserve(ranges.size());
    for (size_t c = 0; c < ranges.size(); ++c) {
      workers.emplace_back([&, c] {
        results[c] =
            config.open_loop
                ? RunOpenWorker(config, pattern, picker, ranges[c].first,
                                ranges[c].second, stride, deadline)
                : RunClosedWorker(config, pattern, picker, ranges[c].first,
                                  ranges[c].second, stride, deadline);
      });
    }
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  WorkerResult total;
  for (WorkerResult& result : results) {
    total.ok += result.ok;
    total.rejected_busy += result.rejected_busy;
    total.rejected_shutdown += result.rejected_shutdown;
    total.errors += result.errors;
    total.info_ok += result.info_ok;
    total.bytes_sent += result.bytes_sent;
    total.bytes_received += result.bytes_received;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              result.latencies_ms.begin(),
                              result.latencies_ms.end());
    total.fingerprints.insert(total.fingerprints.end(),
                              result.fingerprints.begin(),
                              result.fingerprints.end());
    for (const auto& [strategy, count] : result.strategies) {
      total.strategies[strategy] += count;
    }
    for (const auto& [kind, stat] : result.span_stats) {
      auto& entry = total.span_stats[kind];
      entry.first += stat.first;
      entry.second += stat.second;
    }
    for (std::string& waterfall : result.waterfalls) {
      if (total.waterfalls.size() < kMaxWaterfalls) {
        total.waterfalls.push_back(std::move(waterfall));
      }
    }
    total.batch_completions += result.batch_completions;
    total.batch_wait_ns += result.batch_wait_ns;
  }
  // Workload fingerprint: per-request fingerprints folded in request_id
  // order, so it is independent of completion order, connection split, and
  // deployment topology — equal iff every request produced the same bytes.
  std::sort(total.fingerprints.begin(), total.fingerprints.end());
  uint64_t workload_fingerprint = 0x10adf1;
  workload_fingerprint =
      Rng::Mix(workload_fingerprint, total.fingerprints.size());
  for (const auto& [request_id, fingerprint] : total.fingerprints) {
    workload_fingerprint = Rng::Mix(workload_fingerprint, request_id);
    workload_fingerprint = Rng::Mix(workload_fingerprint, fingerprint);
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  const double p50 = Percentile(&total.latencies_ms, 0.50);
  const double p95 = Percentile(&total.latencies_ms, 0.95);
  const double p99 = Percentile(&total.latencies_ms, 0.99);
  const double lat_max =
      total.latencies_ms.empty() ? 0 : total.latencies_ms.back();
  const double rps = wall_s > 0 ? static_cast<double>(total.ok) / wall_s : 0;

  // One last look at the server's own counters: CI gates on its aggregate
  // decode_errors being zero, not just on this process's view.
  int64_t server_decode_errors = -1;
  int64_t server_completed = -1;
  net::RouterStats router_stats;  // is_router stays 0 against dflow_serve
  std::string metrics_text;
  {
    net::Client probe;
    std::string error;
    if (probe.Connect(config.host, static_cast<uint16_t>(config.port),
                      &error)) {
      if (const std::optional<net::ServerInfo> info = probe.Info()) {
        server_decode_errors = info->ingress.decode_errors;
        server_completed = info->completed;
        router_stats = info->router;
      }
      if (config.metrics_dump) {
        if (std::optional<net::StatsInfo> stats =
                probe.Stats(net::kStatsMetrics)) {
          metrics_text = std::move(stats->self.metrics);
        }
      }
      probe.Goodbye();
    }
  }

  const int64_t rejected = total.rejected_busy + total.rejected_shutdown;
  // Executed-strategy histogram as a JSON object fragment ({} when the
  // fleet predates the v3 strategy stamp).
  std::string strategies_json = "{";
  for (const auto& [strategy, count] : total.strategies) {
    if (strategies_json.size() > 1) strategies_json += ",";
    strategies_json +=
        "\"" + obs::JsonEscape(strategy) + "\":" + std::to_string(count);
  }
  strategies_json += "}";
  // Per-stage summary from the timing trailers ({} without --trace).
  std::string stages_json = "{";
  for (const auto& [kind, stat] : total.span_stats) {
    if (stages_json.size() > 1) stages_json += ",";
    char buffer[96];
    std::snprintf(
        buffer, sizeof(buffer), "\"%s\":{\"count\":%lld,\"mean_us\":%.1f}",
        obs::ToString(static_cast<obs::SpanKind>(kind)),
        static_cast<long long>(stat.first),
        stat.first > 0
            ? static_cast<double>(stat.second) / 1e3 /
                  static_cast<double>(stat.first)
            : 0.0);
    stages_json += buffer;
  }
  // Swarm --trace adds the client-side batch wait (send -> completion) as
  // its own stage; it is not a wire span kind, so it is appended by hand.
  if (total.batch_completions > 0) {
    if (stages_json.size() > 1) stages_json += ",";
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  "\"client.batch\":{\"count\":%lld,\"mean_us\":%.1f}",
                  static_cast<long long>(total.batch_completions),
                  static_cast<double>(total.batch_wait_ns) / 1e3 /
                      static_cast<double>(total.batch_completions));
    stages_json += buffer;
  }
  stages_json += "}";
  // Routing-tier fleet counters when the target is a dflow_router ({}
  // against a direct dflow_serve). CI's chaos stage gates on failovers
  // being nonzero and divergence_mismatches being zero.
  std::string router_json = "{";
  if (router_stats.is_router != 0) {
    char buffer[224];
    std::snprintf(buffer, sizeof(buffer),
                  "\"replicas\":%d,\"failovers\":%lld,"
                  "\"divergence_checks\":%lld,\"divergence_mismatches\":%lld,"
                  "\"divergence_incomplete\":%lld",
                  router_stats.replicas,
                  static_cast<long long>(router_stats.failovers),
                  static_cast<long long>(router_stats.divergence_checks),
                  static_cast<long long>(router_stats.divergence_mismatches),
                  static_cast<long long>(router_stats.divergence_incomplete));
    router_json += buffer;
  }
  router_json += "}";
  // A timed run's effective quota is whatever got answered before the
  // deadline; report that so "requests" always equals ok+rejected+errors
  // for the run that actually happened.
  const long long attempted =
      timed ? total.ok + rejected + total.errors
            : static_cast<long long>(config.requests);
  const char* mode_name =
      config.swarm ? "swarm" : (config.open_loop ? "open" : "closed");
  if (config.json) {
    std::printf(
        "{\"tool\":\"dflow_load\",\"mode\":\"%s\",\"batch\":%d,"
        "\"requests\":%lld,"
        "\"duration_s\":%.3f,"
        "\"connections\":%d,\"dist\":\"%s\",\"dist_seed\":%llu,"
        "\"ok\":%lld,\"rejected_busy\":%lld,"
        "\"rejected_shutdown\":%lld,\"errors\":%lld,\"info_ok\":%lld,"
        "\"wall_s\":%.6f,\"requests_per_second\":%.1f,"
        "\"latency_ms\":{\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,"
        "\"max\":%.3f},"
        "\"wall_latency_p50_us\":%.1f,\"wall_latency_p95_us\":%.1f,"
        "\"wall_latency_p99_us\":%.1f,"
        "\"bytes_sent\":%lld,\"bytes_received\":%lld,"
        "\"workload_fingerprint\":\"%016llx\",\"strategies\":%s,"
        "\"stages\":%s,\"router\":%s,"
        "\"server\":{\"completed\":%lld,\"decode_errors\":%lld}}\n",
        mode_name, config.swarm ? config.batch : 0, attempted,
        config.duration_s,
        config.connections, obs::JsonEscape(config.dist).c_str(),
        static_cast<unsigned long long>(config.dist_seed),
        static_cast<long long>(total.ok),
        static_cast<long long>(total.rejected_busy),
        static_cast<long long>(total.rejected_shutdown),
        static_cast<long long>(total.errors),
        static_cast<long long>(total.info_ok), wall_s, rps, p50, p95, p99,
        lat_max, p50 * 1000.0, p95 * 1000.0, p99 * 1000.0,
        static_cast<long long>(total.bytes_sent),
        static_cast<long long>(total.bytes_received),
        static_cast<unsigned long long>(workload_fingerprint),
        strategies_json.c_str(), stages_json.c_str(), router_json.c_str(),
        static_cast<long long>(server_completed),
        static_cast<long long>(server_decode_errors));
  } else {
    if (timed) {
      std::printf(
          "# dflow_load: %s loop, %.1fs timed run (%lld requests) over %d "
          "connections to %s:%d%s\n",
          config.open_loop ? "open" : "closed", config.duration_s, attempted,
          config.connections, config.host.c_str(), config.port,
          config.nonblocking ? " (nonblocking admission)" : "");
    } else {
      std::printf(
          "# dflow_load: %s loop, %d requests over %d connections to "
          "%s:%d%s%s\n",
          mode_name, config.requests,
          config.connections, config.host.c_str(), config.port,
          config.swarm
              ? (" (batch=" + std::to_string(config.batch) + ")").c_str()
              : "",
          config.nonblocking ? " (nonblocking admission)" : "");
    }
    std::printf("%-10s %-10s %-10s %-8s %-8s %-10s %-9s %-9s %-9s %-9s\n",
                "ok", "busy", "shutdown", "errors", "wall_s", "req/s",
                "p50_ms", "p95_ms", "p99_ms", "max_ms");
    std::printf(
        "%-10lld %-10lld %-10lld %-8lld %-8.3f %-10.1f %-9.3f %-9.3f "
        "%-9.3f %-9.3f\n",
        static_cast<long long>(total.ok),
        static_cast<long long>(total.rejected_busy),
        static_cast<long long>(total.rejected_shutdown),
        static_cast<long long>(total.errors), wall_s, rps, p50, p95, p99,
        lat_max);
    std::printf("# bytes: %lld sent, %lld received; server completed=%lld "
                "decode_errors=%lld\n",
                static_cast<long long>(total.bytes_sent),
                static_cast<long long>(total.bytes_received),
                static_cast<long long>(server_completed),
                static_cast<long long>(server_decode_errors));
    std::printf("# workload fingerprint: %016llx (over %lld results)\n",
                static_cast<unsigned long long>(workload_fingerprint),
                static_cast<long long>(total.ok));
    if (router_stats.is_router != 0) {
      std::printf("# fleet: replicas=%d failovers=%lld divergence "
                  "checks=%lld mismatches=%lld incomplete=%lld\n",
                  router_stats.replicas,
                  static_cast<long long>(router_stats.failovers),
                  static_cast<long long>(router_stats.divergence_checks),
                  static_cast<long long>(router_stats.divergence_mismatches),
                  static_cast<long long>(router_stats.divergence_incomplete));
    }
    std::printf("# dist: %s (seed %llu)", config.dist.c_str(),
                static_cast<unsigned long long>(config.dist_seed));
    if (!total.strategies.empty()) {
      std::printf("; strategies:");
      for (const auto& [strategy, count] : total.strategies) {
        std::printf(" %s=%lld", strategy.c_str(),
                    static_cast<long long>(count));
      }
    }
    std::printf("\n");
    if (!total.span_stats.empty() || total.batch_completions > 0) {
      std::printf("# stages (mean over traced requests):");
      for (const auto& [kind, stat] : total.span_stats) {
        std::printf(" %s=%.1fus/%lld",
                    obs::ToString(static_cast<obs::SpanKind>(kind)),
                    static_cast<double>(stat.second) / 1e3 /
                        static_cast<double>(std::max<int64_t>(1, stat.first)),
                    static_cast<long long>(stat.first));
      }
      if (total.batch_completions > 0) {
        std::printf(" client.batch=%.1fus/%lld",
                    static_cast<double>(total.batch_wait_ns) / 1e3 /
                        static_cast<double>(total.batch_completions),
                    static_cast<long long>(total.batch_completions));
      }
      std::printf("\n");
    }
  }
  // Waterfalls go to stderr so --json stdout stays one parseable line.
  for (const std::string& waterfall : total.waterfalls) {
    std::fputs(waterfall.c_str(), stderr);
  }
  if (config.metrics_dump) {
    if (metrics_text.empty()) {
      std::fprintf(stderr, "dflow_load: --metrics-dump: scrape failed\n");
      return 1;
    }
    // Raw exposition to stdout, after the report (CI greps for families).
    std::printf("--- metrics ---\n%s", metrics_text.c_str());
  }

  if (total.errors > 0) return 1;
  if (server_decode_errors != 0 && server_decode_errors != -1) return 1;
  if (config.fail_on_reject && rejected > 0) return 1;
  if (config.expect_fingerprint) {
    // A partial run cannot attest byte-identity: the match gate demands
    // every request answered successfully AND the digests equal.
    if (total.ok != config.requests ||
        workload_fingerprint != config.expected_fingerprint) {
      std::fprintf(stderr,
                   "dflow_load: workload fingerprint %016llx over %lld/%d "
                   "results does not match expected %016llx\n",
                   static_cast<unsigned long long>(workload_fingerprint),
                   static_cast<long long>(total.ok), config.requests,
                   static_cast<unsigned long long>(
                       config.expected_fingerprint));
      return 1;
    }
  }
  return 0;
}
