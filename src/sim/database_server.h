#ifndef DFLOW_SIM_DATABASE_SERVER_H_
#define DFLOW_SIM_DATABASE_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/query_service.h"
#include "sim/simulator.h"

namespace dflow::sim {

// Physical parameters of the simulated database, matching the last six rows
// of Table 1. Times are in milliseconds of simulated time.
struct DatabaseParams {
  int num_cpus = 4;          // # of CPUs in the database
  int num_disks = 10;        // # of disks in the database
  double unit_cpu_ms = 1.0;  // CPU time consumed per unit of processing
  int unit_io_pages = 1;     // IO pages accessed per unit of processing
  double io_hit = 0.5;       // probability an IO page hits the buffer pool
  double io_delay_ms = 5.0;  // disk service time per missed page
};

// Bounded-resource database server in the style of [ACL87] (and of the
// paper's CSIM model): CPUs form one multi-server FIFO queue; each disk is
// its own single-server FIFO queue. A query of cost c executes c units of
// processing sequentially; each unit takes one CPU burst of unit_cpu_ms and
// then, for each of unit_io_pages pages, a disk access of io_delay_ms with
// probability (1 - io_hit), on a uniformly chosen disk.
//
// The multiprogramming level Gmpl (number of queries concurrently inside
// the server) is what determines the per-unit response time Db(Gmpl) of
// Figure 9(a); `DbProfiler` measures that curve empirically.
class DatabaseServer : public QueryService {
 public:
  DatabaseServer(Simulator* sim, DatabaseParams params, uint64_t seed);
  ~DatabaseServer() override;

  DatabaseServer(const DatabaseServer&) = delete;
  DatabaseServer& operator=(const DatabaseServer&) = delete;

  void Submit(int cost_units, Completion done) override;

  // Resets the random stream (buffer-pool hit draws, disk choices) so the
  // next query sequence is a pure function of `seed`. The serving runtime
  // reseeds before each instance: together with running one instance at a
  // time against a quiescent server, this makes every bounded execution
  // independent of what ran before on the same harness (the core::FlowHarness
  // determinism contract, extended to the bounded backend).
  void Reseed(uint64_t seed) { rng_ = Rng(seed); }

  // Queries currently inside the server (the instantaneous Gmpl).
  int active_queries() const { return active_queries_; }
  int64_t units_completed() const { return units_completed_; }
  int64_t queries_completed() const { return queries_completed_; }
  // Time-averaged multiprogramming level since construction.
  double MeanGmpl() const;

  const DatabaseParams& params() const { return params_; }

 private:
  // One query's progress through its units of processing.
  struct QueryJob {
    int remaining_units = 0;
    int remaining_pages = 0;  // IO pages left in the current unit
    Completion done;
  };

  // A k-server FIFO service center.
  class ServiceCenter {
   public:
    ServiceCenter(Simulator* sim, int servers) : sim_(sim), free_(servers) {}
    // Enqueues a job with the given service demand; `done` runs at service
    // completion.
    void Enqueue(Time service_ms, Completion done);

   private:
    struct Pending {
      Time service_ms;
      Completion done;
    };
    void StartNext();

    Simulator* sim_;
    int free_;
    std::deque<Pending> queue_;
  };

  void StartUnit(QueryJob* job);
  void AfterCpu(QueryJob* job);
  void StartIo(QueryJob* job);
  void UnitDone(QueryJob* job);
  void AccumulateGmpl();

  Simulator* sim_;
  DatabaseParams params_;
  Rng rng_;
  ServiceCenter cpus_;
  std::vector<std::unique_ptr<ServiceCenter>> disks_;

  // Jobs live in a server-owned slab: finished slots are recycled through
  // `free_jobs_`, and jobs still in flight when the server is destroyed
  // (a simulation stopped mid-query) are released with it.
  std::deque<QueryJob> jobs_;
  std::vector<QueryJob*> free_jobs_;

  int active_queries_ = 0;
  int64_t units_completed_ = 0;
  int64_t queries_completed_ = 0;
  // For MeanGmpl(): integral of active_queries over time.
  double gmpl_area_ = 0;
  Time gmpl_last_update_ = 0;
};

}  // namespace dflow::sim

#endif  // DFLOW_SIM_DATABASE_SERVER_H_
