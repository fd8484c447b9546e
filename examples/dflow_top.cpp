// dflow_top: a live terminal dashboard over the fleet's STATS frames.
//
// Polls a dflow_router (or a single dflow_serve) with STATS_REQUEST frames
// asking for the health section and renders the fleet: per-node status
// verdict, request/failover rates, p95 wall latency, queue pressure, the
// divergence audit counters, and the tail of the structured event
// journal. Pointed at a router it shows the router's own entry plus one
// per backend (a backend that missed the router's 1 s poll deadline shows
// as critical); pointed at a server it shows that one node.
//
// Modes:
//   default        redraw every --interval seconds until Ctrl-C
//   --once         one poll, one render, exit (exit 1 if the poll failed)
//   --once --json  one poll printed as a single JSON object — what CI
//                  gates on (.self.status == "ok", journal contents,
//                  counter cross-checks against the Prometheus scrape).
//   --profile      the STATS profile section instead of health:
//                  fleet-merged hot-attribute work, condition
//                  selectivities, and request-class rollups (combines
//                  with --once/--json);
//                  --profile --plan prints the EXPLAIN-style annotated
//                  Graphviz plan instead of the tables.
//
// Build:  cmake --build build --target dflow_top
// Run:    ./build/dflow_top --port=4517
//         ./build/dflow_top --port=4517 --once --json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server_config.h"
#include "net/stats_wire.h"
#include "obs/event_log.h"
#include "obs/timeseries.h"

using namespace dflow;

namespace {

const char* StatusName(uint8_t status) {
  return obs::ToString(static_cast<obs::HealthStatus>(status));
}

const char* KindName(uint8_t kind) {
  return obs::ToString(static_cast<obs::EventKind>(kind));
}

const char* SeverityName(uint8_t severity) {
  return obs::ToString(static_cast<obs::Severity>(severity));
}

// The newest ring sample carries the node's current rates; a node whose
// collector is disabled ships an empty series and reads as zeros.
net::WireHealthSample LatestSample(const net::NodeHealth& node) {
  return node.series.empty() ? net::WireHealthSample{} : node.series.back();
}

void AppendNodeJson(const net::NodeStats& stats, std::string* out) {
  const net::NodeHealth& node = stats.health;
  const net::WireHealthSample last = LatestSample(node);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"node_id\":\"%s\",\"status\":\"%s\",\"is_router\":%d,"
      "\"completed\":%lld,\"failovers\":%lld,\"divergence_checks\":%lld,"
      "\"divergence_mismatches\":%lld,\"events_total\":%lld,"
      "\"requests_per_s\":%.3f,\"failovers_per_s\":%.3f,"
      "\"cache_hit_rate\":%.4f,\"p95_wall_ms\":%.3f,"
      "\"queue_depth_max\":%llu,\"queue_utilization\":%.4f,"
      "\"samples\":%zu,\"events\":[",
      obs::JsonEscape(stats.node_id).c_str(), StatusName(node.status),
      stats.is_router, static_cast<long long>(node.completed),
      static_cast<long long>(node.failovers),
      static_cast<long long>(node.divergence_checks),
      static_cast<long long>(node.divergence_mismatches),
      static_cast<long long>(node.events_total), last.requests_per_s,
      last.failovers_per_s, last.cache_hit_rate, last.p95_wall_ms,
      static_cast<unsigned long long>(last.queue_depth_max),
      last.queue_utilization, node.series.size());
  *out += buf;
  for (size_t i = 0; i < node.events.size(); ++i) {
    const net::WireEvent& event = node.events[i];
    if (i > 0) *out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"ts_ms\":%lld,\"severity\":\"%s\",\"kind\":\"%s\","
                  "\"node\":\"%s\",\"detail\":\"%s\"}",
                  static_cast<long long>(event.wall_ms),
                  SeverityName(event.severity), KindName(event.kind),
                  obs::JsonEscape(event.node).c_str(),
                  obs::JsonEscape(event.detail).c_str());
    *out += buf;
  }
  *out += "]}";
}

std::string ToJson(const net::StatsInfo& stats) {
  std::string out = "{\"status\":\"";
  out += StatusName(stats.self.health.status);
  out += "\",\"self\":";
  AppendNodeJson(stats.self, &out);
  out += ",\"backends\":[";
  for (size_t i = 0; i < stats.backends.size(); ++i) {
    if (i > 0) out += ',';
    AppendNodeJson(stats.backends[i], &out);
  }
  out += "]}";
  return out;
}

void PrintNodeRow(const net::NodeStats& stats) {
  const net::NodeHealth& node = stats.health;
  const net::WireHealthSample last = LatestSample(node);
  char queue[16] = "    -";
  if (last.queue_utilization > 0 || last.queue_depth_max > 0) {
    std::snprintf(queue, sizeof(queue), "%4.0f%%",
                  last.queue_utilization * 100.0);
  }
  char diverg[24] = "      -";
  if (node.divergence_checks > 0 || node.divergence_mismatches > 0) {
    std::snprintf(diverg, sizeof(diverg), "%5lld/%lld",
                  static_cast<long long>(node.divergence_checks),
                  static_cast<long long>(node.divergence_mismatches));
  }
  std::printf("%-22s %-8s %8.1f %8.2f %s %11lld %9lld %s %7lld\n",
              stats.node_id.c_str(), StatusName(node.status),
              last.requests_per_s, last.p95_wall_ms, queue,
              static_cast<long long>(node.completed),
              static_cast<long long>(node.failovers), diverg,
              static_cast<long long>(node.events_total));
}

void Render(const std::string& host, int port, const net::StatsInfo& stats,
            bool clear) {
  if (clear) std::printf("\x1b[H\x1b[2J");
  const std::time_t now = std::time(nullptr);
  char clock[32];
  std::strftime(clock, sizeof(clock), "%H:%M:%S", std::localtime(&now));
  std::printf("dflow_top — %s:%d — fleet status: %s — %s\n\n", host.c_str(),
              port, StatusName(stats.self.health.status), clock);
  std::printf("%-22s %-8s %8s %8s %5s %11s %9s %7s %7s\n", "NODE", "STATUS",
              "REQ/S", "P95MS", "QUEUE", "COMPLETED", "FAILOVERS", "DIVERG",
              "EVENTS");
  PrintNodeRow(stats.self);
  for (const net::NodeStats& backend : stats.backends) PrintNodeRow(backend);
  // The merged event pane: the router's own journal tail already carries
  // the fleet story (deaths, failovers, divergence verdicts happen at the
  // routing tier); backend tails add node-local context (drains, advisor
  // explores). Show the router's tail plus warnings+ from the backends.
  std::printf("\nrecent events (newest last):\n");
  struct Line {
    int64_t ts;
    std::string text;
  };
  std::vector<Line> lines;
  const auto add = [&lines](const net::WireEvent& event) {
    const std::time_t ts = static_cast<std::time_t>(event.wall_ms / 1000);
    char when[32];
    std::strftime(when, sizeof(when), "%H:%M:%S", std::localtime(&ts));
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %s %-5s %-19s %-12s %s", when,
                  SeverityName(event.severity), KindName(event.kind),
                  event.node.c_str(), event.detail.c_str());
    lines.push_back({event.wall_ms, buf});
  };
  for (const net::WireEvent& event : stats.self.health.events) add(event);
  for (const net::NodeStats& backend : stats.backends) {
    for (const net::WireEvent& event : backend.health.events) {
      if (event.severity >= 1) add(event);
    }
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.ts < b.ts; });
  const size_t start = lines.size() > 16 ? lines.size() - 16 : 0;
  if (lines.empty()) std::printf("  (none)\n");
  for (size_t i = start; i < lines.size(); ++i) {
    std::printf("%s\n", lines[i].text.c_str());
  }
  std::fflush(stdout);
}

// --- The profiling view (--profile): fleet-merged per-attribute /
// per-condition execution profiles, class rollups, and the EXPLAIN-style
// plan dot.

struct FleetProfile {
  std::vector<net::WireAttrProfile> attrs;
  std::vector<net::WireCondProfile> conds;
  std::vector<net::WireClassProfile> classes;
  uint64_t profiled = 0;
  uint64_t total = 0;
  uint64_t sample_period = 0;
  int nodes = 0;
  // The fleet serves one schema, so any node's annotated plan stands for
  // it; the first non-empty one wins (a router's self entry ships none).
  std::string plan_dot;
};

FleetProfile MergeFleet(const net::StatsInfo& stats) {
  FleetProfile fleet;
  const auto fold = [&fleet](const net::NodeProfile& node) {
    net::MergeNodeProfile(node, &fleet.attrs, &fleet.conds, &fleet.classes);
    fleet.profiled += node.profiled_requests;
    fleet.total += node.total_requests;
    if (fleet.sample_period == 0) fleet.sample_period = node.sample_period;
    if (fleet.plan_dot.empty()) fleet.plan_dot = node.plan_dot;
    ++fleet.nodes;
  };
  fold(stats.self.profile);
  for (const net::NodeStats& backend : stats.backends) fold(backend.profile);
  // Hottest first, everywhere this is shown or emitted: work-units desc,
  // id asc for ties, so repeated polls of an idle fleet print identically.
  std::sort(fleet.attrs.begin(), fleet.attrs.end(),
            [](const net::WireAttrProfile& a, const net::WireAttrProfile& b) {
              if (a.work_units != b.work_units) {
                return a.work_units > b.work_units;
              }
              return a.attr < b.attr;
            });
  std::sort(fleet.conds.begin(), fleet.conds.end(),
            [](const net::WireCondProfile& a, const net::WireCondProfile& b) {
              if (a.evals != b.evals) return a.evals > b.evals;
              return a.attr < b.attr;
            });
  std::sort(fleet.classes.begin(), fleet.classes.end(),
            [](const net::WireClassProfile& a,
               const net::WireClassProfile& b) {
              if (a.requests != b.requests) return a.requests > b.requests;
              return a.class_key < b.class_key;
            });
  return fleet;
}

std::string ProfileToJson(const FleetProfile& fleet) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"nodes\":%d,\"sample_period\":%llu,"
                "\"profiled_requests\":%llu,\"total_requests\":%llu,"
                "\"attrs\":[",
                fleet.nodes,
                static_cast<unsigned long long>(fleet.sample_period),
                static_cast<unsigned long long>(fleet.profiled),
                static_cast<unsigned long long>(fleet.total));
  std::string out = buf;
  for (size_t i = 0; i < fleet.attrs.size(); ++i) {
    const net::WireAttrProfile& a = fleet.attrs[i];
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"attr\":%d,\"name\":\"%s\",\"launches\":%lld,"
                  "\"work_units\":%lld,\"speculative\":%lld,"
                  "\"wasted_work\":%lld,\"useful\":%lld}",
                  a.attr, obs::JsonEscape(a.name).c_str(),
                  static_cast<long long>(a.launches),
                  static_cast<long long>(a.work_units),
                  static_cast<long long>(a.speculative_launches),
                  static_cast<long long>(a.wasted_work),
                  static_cast<long long>(a.useful_completions));
    out += buf;
  }
  out += "],\"conds\":[";
  for (size_t i = 0; i < fleet.conds.size(); ++i) {
    const net::WireCondProfile& c = fleet.conds[i];
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"attr\":%d,\"name\":\"%s\",\"evals\":%lld,"
                  "\"true\":%lld,\"false\":%lld,\"unknown\":%lld,"
                  "\"eager_disables\":%lld,\"selectivity\":%.6f}",
                  c.attr, obs::JsonEscape(c.name).c_str(),
                  static_cast<long long>(c.evals),
                  static_cast<long long>(c.true_outcomes),
                  static_cast<long long>(c.false_outcomes),
                  static_cast<long long>(c.unknown_outcomes),
                  static_cast<long long>(c.eager_disables),
                  net::WireSelectivity(c));
    out += buf;
  }
  out += "],\"classes\":[";
  for (size_t i = 0; i < fleet.classes.size(); ++i) {
    const net::WireClassProfile& cls = fleet.classes[i];
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"class_key\":\"%016llx\",\"requests\":%lld,"
                  "\"work\":%lld,\"wasted_work\":%lld,\"cache_hits\":%lld,"
                  "\"cache_misses\":%lld}",
                  static_cast<unsigned long long>(cls.class_key),
                  static_cast<long long>(cls.requests),
                  static_cast<long long>(cls.work),
                  static_cast<long long>(cls.wasted_work),
                  static_cast<long long>(cls.cache_hits),
                  static_cast<long long>(cls.cache_misses));
    out += buf;
  }
  out += "]}";
  return out;
}

void RenderProfile(const std::string& host, int port,
                   const FleetProfile& fleet, bool clear) {
  if (clear) std::printf("\x1b[H\x1b[2J");
  const std::time_t now = std::time(nullptr);
  char clock[32];
  std::strftime(clock, sizeof(clock), "%H:%M:%S", std::localtime(&now));
  std::printf(
      "dflow_top --profile — %s:%d — %d node(s), profiled %llu/%llu "
      "requests (1/%llu sampling) — %s\n\n",
      host.c_str(), port, fleet.nodes,
      static_cast<unsigned long long>(fleet.profiled),
      static_cast<unsigned long long>(fleet.total),
      static_cast<unsigned long long>(fleet.sample_period), clock);
  std::printf("hot attributes (by measured work):\n");
  std::printf("%5s %-16s %10s %12s %10s %10s %10s\n", "ATTR", "NAME",
              "LAUNCHES", "WORK", "SPECUL", "WASTED", "USEFUL");
  const size_t attr_rows = std::min<size_t>(fleet.attrs.size(), 16);
  if (attr_rows == 0) std::printf("  (no profiled executions yet)\n");
  for (size_t i = 0; i < attr_rows; ++i) {
    const net::WireAttrProfile& a = fleet.attrs[i];
    std::printf("%5d %-16s %10lld %12lld %10lld %10lld %10lld\n", a.attr,
                a.name.c_str(), static_cast<long long>(a.launches),
                static_cast<long long>(a.work_units),
                static_cast<long long>(a.speculative_launches),
                static_cast<long long>(a.wasted_work),
                static_cast<long long>(a.useful_completions));
  }
  std::printf("\nenabling conditions (by evaluations):\n");
  std::printf("%5s %-16s %10s %8s %8s %8s %8s %7s\n", "ATTR", "NAME", "EVALS",
              "TRUE", "FALSE", "UNKNOWN", "EAGER", "SEL");
  const size_t cond_rows = std::min<size_t>(fleet.conds.size(), 16);
  if (cond_rows == 0) std::printf("  (no conditions observed yet)\n");
  for (size_t i = 0; i < cond_rows; ++i) {
    const net::WireCondProfile& c = fleet.conds[i];
    const double sel = net::WireSelectivity(c);
    char sel_text[16] = "      -";
    if (sel >= 0) std::snprintf(sel_text, sizeof(sel_text), "%6.1f%%",
                                sel * 100.0);
    std::printf("%5d %-16s %10lld %8lld %8lld %8lld %8lld %s\n", c.attr,
                c.name.c_str(), static_cast<long long>(c.evals),
                static_cast<long long>(c.true_outcomes),
                static_cast<long long>(c.false_outcomes),
                static_cast<long long>(c.unknown_outcomes),
                static_cast<long long>(c.eager_disables), sel_text);
  }
  std::printf("\nrequest classes (hottest first):\n");
  std::printf("%-18s %10s %12s %10s %8s %8s\n", "CLASS", "REQUESTS", "WORK",
              "WASTED", "HITS", "MISSES");
  const size_t class_rows = std::min<size_t>(fleet.classes.size(), 8);
  if (class_rows == 0) std::printf("  (no profiled requests yet)\n");
  for (size_t i = 0; i < class_rows; ++i) {
    const net::WireClassProfile& cls = fleet.classes[i];
    std::printf("%016llx   %10lld %12lld %10lld %8lld %8lld\n",
                static_cast<unsigned long long>(cls.class_key),
                static_cast<long long>(cls.requests),
                static_cast<long long>(cls.work),
                static_cast<long long>(cls.wasted_work),
                static_cast<long long>(cls.cache_hits),
                static_cast<long long>(cls.cache_misses));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 4517;
  double interval_s = 2.0;
  bool once = false;
  bool json = false;
  bool profile = false;
  bool plan = false;

  net::ServerConfig config(
      "dflow_top",
      "A live terminal dashboard over the fleet's STATS frames: polls a "
      "dflow_router (or a single dflow_serve) with STATS_REQUEST frames "
      "and renders per-node status, rates, latency, queue pressure, and "
      "the tail of the event journal.");
  config.String("host", &host, "node to poll")
      .Int("port", &port, "node's wire-protocol port", 1, 65535)
      .Double("interval", &interval_s, "seconds between polls")
      .Bool("once", &once, "one poll, one render, exit (exit 1 on failure)")
      .Bool("json", &json,
            "print one poll as a single JSON object and exit (implies "
            "--once); what CI gates on")
      .Bool("profile", &profile,
            "poll the profile section instead of health: fleet-merged "
            "hot-attribute work, condition selectivities, and request-class "
            "rollups (combines with --once/--json)")
      .Bool("plan", &plan,
            "with --profile: print the EXPLAIN-style Graphviz plan "
            "(the schema dot annotated with measured work and selectivity) "
            "instead of the tables; implies --once");
  std::string flag_error;
  switch (config.Parse(argc, argv, &flag_error)) {
    case net::ServerConfig::ParseStatus::kHelp:
      std::fputs(config.Help().c_str(), stdout);
      return 0;
    case net::ServerConfig::ParseStatus::kError:
      std::fprintf(stderr, "dflow_top: %s\n", flag_error.c_str());
      return 2;
    case net::ServerConfig::ParseStatus::kOk:
      break;
  }
  if (json) once = true;  // --json implies a single machine-readable poll
  if (plan) once = true;  // the plan is a one-shot artifact, not a dashboard
  if (plan && !profile) {
    std::fprintf(stderr, "dflow_top: --plan requires --profile\n");
    return 2;
  }
  if (interval_s <= 0) interval_s = 2.0;

  bool first = true;
  while (true) {
    // One short-lived connection per poll: dflow_top must keep working
    // across server restarts, and a poll every couple of seconds is far
    // below the cost of anything it observes.
    net::Client client;
    std::string error;
    std::optional<net::StatsInfo> stats;
    if (client.Connect(host, static_cast<uint16_t>(port), &error)) {
      client.SetRecvTimeout(5000);
      stats = client.Stats(profile ? net::kStatsProfile : net::kStatsHealth);
      client.Close();
    }
    if (!stats.has_value()) {
      if (once) {
        std::fprintf(stderr, "dflow_top: no STATS answer from %s:%d%s%s\n",
                     host.c_str(), port, error.empty() ? "" : ": ",
                     error.c_str());
        return 1;
      }
      std::printf("dflow_top: %s:%d unreachable, retrying...\n", host.c_str(),
                  port);
      std::fflush(stdout);
    } else if (profile) {
      const FleetProfile fleet = MergeFleet(*stats);
      if (plan) {
        if (fleet.plan_dot.empty()) {
          std::fprintf(stderr, "dflow_top: the fleet answered with no plan\n");
          return 1;
        }
        std::fputs(fleet.plan_dot.c_str(), stdout);
        return 0;
      }
      if (json) {
        std::printf("%s\n", ProfileToJson(fleet).c_str());
        return 0;
      }
      RenderProfile(host, port, fleet, /*clear=*/!first || !once);
      first = false;
    } else if (json) {
      std::printf("%s\n", ToJson(*stats).c_str());
      return 0;
    } else {
      Render(host, port, *stats, /*clear=*/!first || !once);
      first = false;
    }
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}
