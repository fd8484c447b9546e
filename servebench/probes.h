#ifndef SERVEBENCH_PROBES_H_
#define SERVEBENCH_PROBES_H_

// In-process layer probes: the benchmark times its own calls into each
// layer's public functions (core engine, simulator, runtime shard queue and
// result cache, wire codec) on the workload's generated inputs, with no
// network in the way.

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace servebench {

// One span of the benchmark's own in-process calls: a run of `calls`
// consecutive calls of one layer function, cycling over the requests of
// the probe pool. Many calls take well under a microsecond, so each run is
// timed as a whole and the clock reads do not swamp the calls.
struct ProbeSpan {
  std::string name;
  uint64_t calls = 0;
  uint64_t start_ns = 0;  // relative to the first probe
  uint64_t duration_ns = 0;
};

// Runs every in-process probe on `stream` (the workload's 64-node stream;
// the 256-node probes build their own stream with the same seed) and
// returns the core.*, sim.*, runtime.* and net.* codec metrics.
std::vector<Metric> RunLayerProbes(const WorkloadSpec& spec,
                                   const RequestStream& stream, uint64_t seed,
                                   std::vector<ProbeSpan>* spans);

}  // namespace servebench

#endif  // SERVEBENCH_PROBES_H_
