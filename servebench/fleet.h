#ifndef SERVEBENCH_FLEET_H_
#define SERVEBENCH_FLEET_H_

// The server processes one workload talks to: dflow_serve, and for the
// routed workload two dflow_serve backends behind dflow_router. They are
// the real binaries, started as child processes and read through /proc.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace servebench {

// One child server process, its stdout on a pipe. Ready once it prints
// "listening on 127.0.0.1:<port>".
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Forks and execs argv[0]; the child dies with this process.
  bool Launch(const std::vector<std::string>& argv, std::string* error);
  // Blocks until the listening line (false on exit or a 30 s timeout).
  bool WaitReady(std::string* error);
  // SIGTERM, read stdout to EOF and reap; SIGKILL if the drain takes more
  // than 20 s. True iff the process exited with status 0. Idempotent.
  bool Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  // User plus system CPU so far, from /proc/<pid>/stat.
  double CpuSeconds() const;
  // Peak resident set (VmHWM) so far, from /proc/<pid>/status.
  double PeakRssMb() const;
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string output_;
};

// The machine's CPU time so far, from the first line of /proc/stat. On a
// virtual machine, steal is time the hypervisor gave to other guests while
// this one had work to run: the usual cause of a run slower than its peers.
struct MachineCpu {
  uint64_t total = 0;  // clock ticks, every state
  uint64_t steal = 0;

  static MachineCpu Read();
  // Share of CPU time stolen between `before` and this reading.
  double StealShareSince(const MachineCpu& before) const;
};

struct FleetOptions {
  std::string bin_dir;  // holds dflow_serve and dflow_router
  bool routed = false;
  bool traced = false;  // every server samples traces 1/1
};

// Direct: one dflow_serve with 2 shards and a 256-entry cache per shard.
// Routed: dflow_router over two dflow_serve backends with 1 shard and the
// same cache each. Every process runs one event-loop thread, so on four
// cores the shards, the loops and the client threads fit.
class Fleet {
 public:
  bool Start(const FleetOptions& options, std::string* error);
  // Stops the router before its backends. True iff all exited cleanly.
  bool Stop();

  // Where clients connect: the router when routed, else the server.
  uint16_t entry_port() const;
  // Every dflow_serve process (not the router).
  std::vector<uint16_t> backend_ports() const;
  double CpuSeconds() const;
  double PeakRssMb() const;
  // One line per process: name, pid, CPU so far and peak RSS.
  std::string Describe() const;

 private:
  std::vector<std::unique_ptr<ServerProcess>> backends_;
  std::unique_ptr<ServerProcess> router_;
};

}  // namespace servebench

#endif  // SERVEBENCH_FLEET_H_
