#include "sim/database_server.h"

#include <cassert>
#include <utility>

namespace dflow::sim {

void DatabaseServer::ServiceCenter::Enqueue(Time service_ms, Completion done) {
  queue_.push_back(Pending{service_ms, std::move(done)});
  if (free_ > 0) {
    --free_;
    StartNext();
  }
}

void DatabaseServer::ServiceCenter::StartNext() {
  // Precondition: a server slot has been claimed and the queue is non-empty.
  Pending job = std::move(queue_.front());
  queue_.pop_front();
  sim_->Schedule(job.service_ms, [this, done = std::move(job.done)]() {
    done();
    if (!queue_.empty()) {
      StartNext();  // keep the claimed slot busy
    } else {
      ++free_;
    }
  });
}

DatabaseServer::DatabaseServer(Simulator* sim, DatabaseParams params,
                               uint64_t seed)
    : sim_(sim),
      params_(params),
      rng_(seed),
      cpus_(sim, params.num_cpus) {
  disks_.reserve(static_cast<size_t>(params_.num_disks));
  for (int d = 0; d < params_.num_disks; ++d) {
    disks_.push_back(std::make_unique<ServiceCenter>(sim, 1));
  }
}

DatabaseServer::~DatabaseServer() = default;

void DatabaseServer::AccumulateGmpl() {
  gmpl_area_ += active_queries_ * (sim_->now() - gmpl_last_update_);
  gmpl_last_update_ = sim_->now();
}

double DatabaseServer::MeanGmpl() const {
  const Time elapsed = sim_->now();
  if (elapsed <= 0) return 0;
  return (gmpl_area_ + active_queries_ * (elapsed - gmpl_last_update_)) /
         elapsed;
}

void DatabaseServer::Submit(int cost_units, Completion done) {
  assert(cost_units >= 0);
  if (cost_units == 0) {
    // Synthesis-style instant work: completes "now" via the event queue.
    sim_->Schedule(0, std::move(done));
    return;
  }
  AccumulateGmpl();
  ++active_queries_;
  QueryJob* job;
  if (free_jobs_.empty()) {
    job = &jobs_.emplace_back();
  } else {
    job = free_jobs_.back();
    free_jobs_.pop_back();
  }
  job->remaining_units = cost_units;
  job->done = std::move(done);
  StartUnit(job);
}

void DatabaseServer::StartUnit(QueryJob* job) {
  job->remaining_pages = params_.unit_io_pages;
  cpus_.Enqueue(params_.unit_cpu_ms, [this, job]() { AfterCpu(job); });
}

void DatabaseServer::AfterCpu(QueryJob* job) { StartIo(job); }

void DatabaseServer::StartIo(QueryJob* job) {
  // Walk the unit's IO pages; buffer hits cost nothing.
  while (job->remaining_pages > 0) {
    --job->remaining_pages;
    if (!rng_.Chance(params_.io_hit)) {
      const int disk =
          static_cast<int>(rng_.UniformInt(0, params_.num_disks - 1));
      disks_[static_cast<size_t>(disk)]->Enqueue(
          params_.io_delay_ms, [this, job]() { StartIo(job); });
      return;  // resume remaining pages after this disk access
    }
  }
  UnitDone(job);
}

void DatabaseServer::UnitDone(QueryJob* job) {
  ++units_completed_;
  if (--job->remaining_units > 0) {
    StartUnit(job);
    return;
  }
  AccumulateGmpl();
  --active_queries_;
  ++queries_completed_;
  Completion done = std::move(job->done);
  job->done = nullptr;
  free_jobs_.push_back(job);
  done();
}

}  // namespace dflow::sim
