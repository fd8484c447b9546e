#include "fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kListening = "listening on 127.0.0.1:";
constexpr std::chrono::seconds kReadyTimeout{30};
constexpr std::chrono::seconds kDrainTimeout{20};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream out;
  out << in.rdbuf();
  return out.str();
}

// Common flags: the fixed schema, strategy and cache of every workload.
std::vector<std::string> ServeArgs(const FleetOptions& options, int shards) {
  std::vector<std::string> argv = {
      options.bin_dir + "/dflow_serve", "--port=0",
      "--shards=" + std::to_string(shards), "--cache=256",
      "--event-threads=1", "--nodes=64", "--rows=4", "--pattern-seed=1",
      "--strategy=PSE100"};
  if (options.traced) argv.push_back("--trace-sample=1");
  return argv;
}

}  // namespace

bool ServerProcess::Launch(const std::vector<std::string>& argv,
                           std::string* error) {
  name_ = argv.at(0).substr(argv[0].rfind('/') + 1);
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];
  return true;
}

bool ServerProcess::WaitReady(std::string* error) {
  const Clock::time_point deadline = Clock::now() + kReadyTimeout;
  while (Clock::now() < deadline) {
    const size_t at = output_.find(kListening);
    if (at != std::string::npos &&
        output_.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::atoi(output_.c_str() + at + std::strlen(kListening)));
      return true;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 100) < 0 && errno != EINTR) break;
    if (pfd.revents == 0) continue;
    char buffer[4096];
    const ssize_t n = read(stdout_fd_, buffer, sizeof(buffer));
    if (n <= 0) break;  // EOF: the server exited before it was ready
    output_.append(buffer, static_cast<size_t>(n));
  }
  *error = name_ + " did not become ready; its output: " + output_;
  return false;
}

bool ServerProcess::Stop() {
  if (pid_ < 0) return true;
  kill(pid_, SIGTERM);
  // Drain stdout to EOF so the final report never blocks on a full pipe.
  const Clock::time_point deadline = Clock::now() + kDrainTimeout;
  bool killed = false;
  while (stdout_fd_ >= 0) {
    if (!killed && Clock::now() >= deadline) {
      kill(pid_, SIGKILL);
      killed = true;
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 100) < 0 && errno != EINTR) break;
    if (pfd.revents == 0) continue;
    char buffer[4096];
    if (read(stdout_fd_, buffer, sizeof(buffer)) <= 0) break;
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double ServerProcess::CpuSeconds() const {
  const std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0;
  // Fields after "(comm)": state is field 3, utime 14, stime 15.
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  const std::string status =
      ReadFile("/proc/" + std::to_string(pid_) + "/status");
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;  // kB
}

MachineCpu MachineCpu::Read() {
  std::istringstream fields(ReadFile("/proc/stat"));
  std::string label;
  fields >> label;  // "cpu"
  MachineCpu cpu;
  unsigned long long ticks = 0;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8 && fields >> ticks; ++i) {
    cpu.total += ticks;
    if (i == 7) cpu.steal = ticks;
  }
  return cpu;
}

double MachineCpu::StealShareSince(const MachineCpu& before) const {
  const uint64_t total_delta = total - before.total;
  return total_delta > 0
             ? static_cast<double>(steal - before.steal) /
                   static_cast<double>(total_delta)
             : 0;
}

bool Fleet::Start(const FleetOptions& options, std::string* error) {
  const int backends = options.routed ? 2 : 1;
  for (int i = 0; i < backends; ++i) {
    backends_.push_back(std::make_unique<ServerProcess>());
    if (!backends_.back()->Launch(ServeArgs(options, options.routed ? 1 : 2),
                                  error)) {
      return false;
    }
  }
  for (const auto& backend : backends_) {
    if (!backend->WaitReady(error)) return false;
  }
  if (!options.routed) return true;
  std::vector<std::string> argv = {
      options.bin_dir + "/dflow_router", "--port=0", "--event-threads=1",
      "--backends=" + std::to_string(backends_[0]->port()) + "," +
          std::to_string(backends_[1]->port())};
  if (options.traced) argv.push_back("--trace-sample=1");
  router_ = std::make_unique<ServerProcess>();
  // The router prints its listening line only after the backend handshake.
  return router_->Launch(argv, error) && router_->WaitReady(error);
}

bool Fleet::Stop() {
  bool clean = router_ == nullptr || router_->Stop();
  for (const auto& backend : backends_) clean = backend->Stop() && clean;
  return clean;
}

uint16_t Fleet::entry_port() const {
  return router_ != nullptr ? router_->port() : backends_.at(0)->port();
}

std::vector<uint16_t> Fleet::backend_ports() const {
  std::vector<uint16_t> ports;
  for (const auto& backend : backends_) ports.push_back(backend->port());
  return ports;
}

double Fleet::CpuSeconds() const {
  double total = router_ != nullptr ? router_->CpuSeconds() : 0;
  for (const auto& backend : backends_) total += backend->CpuSeconds();
  return total;
}

double Fleet::PeakRssMb() const {
  double total = router_ != nullptr ? router_->PeakRssMb() : 0;
  for (const auto& backend : backends_) total += backend->PeakRssMb();
  return total;
}

std::string Fleet::Describe() const {
  std::vector<const ServerProcess*> all;
  if (router_ != nullptr) all.push_back(router_.get());
  for (const auto& backend : backends_) all.push_back(backend.get());
  std::string out;
  for (const ServerProcess* p : all) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "# %s pid %d port %u: cpu %.2f s, peak rss %.2f MB\n",
                  p->name().c_str(), static_cast<int>(p->pid()), p->port(),
                  p->CpuSeconds(), p->PeakRssMb());
    out += line;
  }
  return out;
}

}  // namespace servebench
