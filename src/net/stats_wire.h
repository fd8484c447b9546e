#ifndef DFLOW_NET_STATS_WIRE_H_
#define DFLOW_NET_STATS_WIRE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/wire_protocol.h"
#include "obs/event_log.h"
#include "obs/flow_profiler.h"
#include "obs/timeseries.h"

namespace dflow::net {

// obs -> wire converters for the STATS sections, shared by the ingress,
// the router and dflow_top.

// --- The health section. The wire caps below bound it: both front doors
// ship at most this many journal entries / ring samples per node, so a
// fleet-wide response stays a few KB regardless of ring capacities.
inline constexpr size_t kHealthWireMaxEvents = 32;
inline constexpr size_t kHealthWireMaxSamples = 30;

inline WireEvent ToWire(const obs::Event& event) {
  WireEvent out;
  out.kind = static_cast<uint8_t>(event.kind);
  out.severity = static_cast<uint8_t>(event.severity);
  out.wall_ms = event.wall_ms;
  out.node = event.node;
  out.detail = event.detail;
  return out;
}

inline WireHealthSample ToWire(const obs::HealthSample& sample) {
  WireHealthSample out;
  out.wall_ms = sample.wall_ms;
  out.interval_s = sample.interval_s;
  out.requests_per_s = sample.requests_per_s;
  out.failovers_per_s = sample.failovers_per_s;
  out.cache_hit_rate = sample.cache_hit_rate;
  out.p95_wall_ms = sample.p95_wall_ms;
  out.queue_depth_max = sample.queue_depth_max;
  out.queue_utilization = sample.queue_utilization;
  out.status = static_cast<uint8_t>(sample.status);
  return out;
}

// Fills a NodeHealth's journal tail and rate series from a node's own
// plane (the counters are the caller's business).
inline void FillNodeHealthPlane(const obs::EventLog& journal,
                                const obs::HealthCollector* collector,
                                NodeHealth* node) {
  node->events_total = journal.total();
  for (const obs::Event& event : journal.Tail(kHealthWireMaxEvents)) {
    node->events.push_back(ToWire(event));
  }
  if (collector != nullptr) {
    node->status = static_cast<uint8_t>(collector->status());
    for (const obs::HealthSample& sample :
         collector->Recent(kHealthWireMaxSamples)) {
      node->series.push_back(ToWire(sample));
    }
  }
}


// --- The profile section. The class-rollup cap bounds it against
// adversarial source diversity (class keys are hashes of the source
// binding, so their count is unbounded); the shipped subset is chosen
// deterministically — hottest by request count, ties by key — so repeated
// scrapes of an idle node are byte-identical.
inline constexpr size_t kProfileWireMaxClasses = 64;

// Flattens a merged ProfileSnapshot into one NodeProfile's tables.
// plan_dot is the caller's business. Attr rows are shipped for every launched attribute, cond rows
// for every attribute with a real (non-literal-true) enabling condition
// that was observed at least once — silent zero rows carry no signal and
// would bloat fleet responses linearly in schema size.
inline void FillNodeProfile(const obs::ProfileSnapshot& profile,
                            NodeProfile* node) {
  node->sample_period = profile.sample_period;
  node->profiled_requests = profile.profiled_requests;
  node->total_requests = profile.total_requests;
  for (size_t i = 0; i < profile.attrs.size(); ++i) {
    const obs::AttrProfile& a = profile.attrs[i];
    if (a.launches == 0) continue;
    WireAttrProfile row;
    row.attr = static_cast<AttributeId>(i);
    row.name = i < profile.attr_names.size() ? profile.attr_names[i] : "";
    row.launches = a.launches;
    row.work_units = a.work_units;
    row.speculative_launches = a.speculative_launches;
    row.wasted_work = a.wasted_work;
    row.useful_completions = a.useful_completions;
    node->attrs.push_back(std::move(row));
  }
  for (size_t i = 0; i < profile.conds.size(); ++i) {
    const obs::CondProfile& c = profile.conds[i];
    const bool has_condition =
        i < profile.has_condition.size() && profile.has_condition[i] != 0;
    const bool observed = c.evals != 0 || c.true_outcomes != 0 ||
                          c.false_outcomes != 0 || c.unknown_outcomes != 0;
    if (!has_condition || !observed) continue;
    WireCondProfile row;
    row.attr = static_cast<AttributeId>(i);
    row.name = i < profile.attr_names.size() ? profile.attr_names[i] : "";
    row.evals = c.evals;
    row.true_outcomes = c.true_outcomes;
    row.false_outcomes = c.false_outcomes;
    row.unknown_outcomes = c.unknown_outcomes;
    row.eager_disables = c.eager_disables;
    node->conds.push_back(std::move(row));
  }
  for (const auto& [key, cls] : profile.classes) {
    WireClassProfile row;
    row.class_key = key;
    row.requests = cls.requests;
    row.work = cls.work;
    row.wasted_work = cls.wasted_work;
    row.cache_hits = cls.cache_hits;
    row.cache_misses = cls.cache_misses;
    node->classes.push_back(row);
  }
  if (node->classes.size() > kProfileWireMaxClasses) {
    std::sort(node->classes.begin(), node->classes.end(),
              [](const WireClassProfile& a, const WireClassProfile& b) {
                if (a.requests != b.requests) return a.requests > b.requests;
                return a.class_key < b.class_key;
              });
    node->classes.resize(kProfileWireMaxClasses);
    // Re-sort by key so the shipped subset is in the same order a smaller
    // rollup would travel in (map order), keeping decode-side consumers
    // order-agnostic but byte-stable.
    std::sort(node->classes.begin(), node->classes.end(),
              [](const WireClassProfile& a, const WireClassProfile& b) {
                return a.class_key < b.class_key;
              });
  }
}

// Sums a wire NodeProfile back into a merge accumulator — dflow_top's
// fleet rollup. Rows merge by attribute id, classes by key; names adopt
// the first non-empty spelling seen.
inline void MergeNodeProfile(const NodeProfile& node,
                             std::vector<WireAttrProfile>* attrs,
                             std::vector<WireCondProfile>* conds,
                             std::vector<WireClassProfile>* classes) {
  for (const WireAttrProfile& row : node.attrs) {
    auto it = std::find_if(
        attrs->begin(), attrs->end(),
        [&row](const WireAttrProfile& a) { return a.attr == row.attr; });
    if (it == attrs->end()) {
      attrs->push_back(row);
      continue;
    }
    if (it->name.empty()) it->name = row.name;
    it->launches += row.launches;
    it->work_units += row.work_units;
    it->speculative_launches += row.speculative_launches;
    it->wasted_work += row.wasted_work;
    it->useful_completions += row.useful_completions;
  }
  for (const WireCondProfile& row : node.conds) {
    auto it = std::find_if(
        conds->begin(), conds->end(),
        [&row](const WireCondProfile& c) { return c.attr == row.attr; });
    if (it == conds->end()) {
      conds->push_back(row);
      continue;
    }
    if (it->name.empty()) it->name = row.name;
    it->evals += row.evals;
    it->true_outcomes += row.true_outcomes;
    it->false_outcomes += row.false_outcomes;
    it->unknown_outcomes += row.unknown_outcomes;
    it->eager_disables += row.eager_disables;
  }
  for (const WireClassProfile& row : node.classes) {
    auto it = std::find_if(classes->begin(), classes->end(),
                           [&row](const WireClassProfile& c) {
                             return c.class_key == row.class_key;
                           });
    if (it == classes->end()) {
      classes->push_back(row);
      continue;
    }
    it->requests += row.requests;
    it->work += row.work;
    it->wasted_work += row.wasted_work;
    it->cache_hits += row.cache_hits;
    it->cache_misses += row.cache_misses;
  }
}

// Measured selectivity of one wire cond row; -1 when unresolved.
inline double WireSelectivity(const WireCondProfile& row) {
  const int64_t resolved = row.true_outcomes + row.false_outcomes;
  if (resolved == 0) return -1.0;
  return static_cast<double>(row.true_outcomes) /
         static_cast<double>(resolved);
}

}  // namespace dflow::net

#endif  // DFLOW_NET_STATS_WIRE_H_
