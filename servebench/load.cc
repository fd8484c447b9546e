#include "load.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/runner.h"
#include "core/strategy.h"
#include "obs/trace.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kKeepEvery = 256;    // span-file sample of traced requests
constexpr uint64_t kSnapshotEvery = 64;  // hot answers whose snapshot is compared

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

uint64_t Nanos(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Folds one traced answer into the span statistics.
void RecordSpans(uint64_t index, Clock::time_point window_start,
                 Clock::time_point sent, uint64_t latency_ns,
                 const net::SubmitResult& result, TraceStats* stats) {
  uint64_t forward_ns = 0;
  uint64_t backend_ns = 0;
  bool routed = false;
  for (const net::WireSpan& span : result.spans) {
    const auto kind = static_cast<dflow::obs::SpanKind>(span.kind);
    stats->durations_us[dflow::obs::ToString(kind)].push_back(
        static_cast<double>(span.duration_ns) / 1e3);
    if (kind == dflow::obs::SpanKind::kRouterForward) {
      routed = true;
      forward_ns += span.duration_ns;
    } else {
      backend_ns += span.duration_ns;
    }
  }
  // The server spans of one node are sequential; router.forward encloses
  // the backend's. So the outermost server time is router.forward when
  // routed and the sum of the spans otherwise.
  const uint64_t outer_ns = routed ? forward_ns : backend_ns;
  const auto self_us = [](uint64_t total, uint64_t children) {
    return (static_cast<double>(total) - static_cast<double>(children)) / 1e3;
  };
  stats->durations_us["client.request"].push_back(
      static_cast<double>(latency_ns) / 1e3);
  stats->durations_us["client.self"].push_back(self_us(latency_ns, outer_ns));
  if (routed) {
    stats->durations_us["router.forward.self"].push_back(
        self_us(forward_ns, backend_ns));
  }
  ++stats->traced;
  if (index % kKeepEvery == 0) {
    stats->kept.push_back(TracedRequest{index, result.trace_id,
                                        Nanos(sent - window_start), latency_ns,
                                        result.spans});
  }
}

// One connection's share of the window.
struct Worker {
  LoadResult result;
  std::atomic<int64_t>* answered_total = nullptr;  // shared by all workers
};

// The sub-window an event at `at` falls in; the few answers that arrive
// after the window closes join the last one.
SubWindow& WindowAt(Clock::time_point window_start, Clock::duration subwindow,
                    Clock::time_point at, LoadResult* out) {
  const auto slice = static_cast<size_t>((at - window_start) / subwindow);
  return out->windows[std::min(slice, out->windows.size() - 1)];
}

void RecordAnswer(const LoadOptions& options, Clock::time_point window_start,
                  Clock::duration subwindow, uint64_t index,
                  Clock::time_point sent, Clock::time_point answered,
                  const net::Completion& completion, Worker* worker) {
  LoadResult& out = worker->result;
  out.tally.RecordReply(completion);
  SubWindow& window = WindowAt(window_start, subwindow, answered, &out);
  if (completion.type != net::MsgType::kSubmitResult) {
    ++window.failed;
    return;
  }
  if (options.mark_answers > 0 &&
      worker->answered_total->fetch_add(1) + 1 == options.mark_answers) {
    options.at_mark();
  }
  const net::SubmitResult& result = completion.result;
  const uint64_t latency_ns = Nanos(answered - sent);
  window.latencies_ms.push_back(static_cast<double>(latency_ns) / 1e6);
  if (answered - window_start < subwindow * out.windows.size()) {
    ++window.answers;
  }
  if (options.spec->hot) {
    const int k = options.stream->ClassOf(index);
    out.checker.Check("class " + std::to_string(k) + " answer",
                      options.classes->fingerprints[static_cast<size_t>(k)],
                      result.fingerprint);
    if (index % kSnapshotEvery == 0 &&
        result.snapshot != options.classes->snapshots[static_cast<size_t>(k)]) {
      out.checker.Fail("class " + std::to_string(k) + " snapshot differs");
    }
  } else if (Checked(index)) {
    out.answers.emplace_back(index, result.fingerprint);
  }
  if (options.trace && result.trace_id != 0 && !result.spans.empty()) {
    RecordSpans(index, window_start, sent, latency_ns, result, &out.trace);
  }
}

void RunWorker(net::Client* client, const LoadOptions& options,
               std::atomic<uint64_t>* next_index,
               Clock::time_point window_start, Clock::time_point window_end,
               Worker* worker) {
  const WorkloadSpec& spec = *options.spec;
  const Clock::duration subwindow =
      (window_end - window_start) / kSubWindows;
  Tally& tally = worker->result.tally;
  // The connection broke: the requests still owed are lost.
  const auto lose = [&](size_t count) {
    tally.unanswered += static_cast<int64_t>(count);
    WindowAt(window_start, subwindow, Clock::now(), &worker->result).failed +=
        static_cast<int64_t>(count);
  };
  std::vector<net::BatchItem> items(static_cast<size_t>(spec.batch()));
  net::BatchOptions batch_options;
  batch_options.want_snapshot = spec.want_snapshot();
  while (Clock::now() < window_end) {
    const uint64_t base = next_index->fetch_add(items.size());
    for (size_t j = 0; j < items.size(); ++j) {
      items[j] = options.stream->Item(base + j);
    }
    tally.attempted += static_cast<int64_t>(items.size());
    const Clock::time_point sent = Clock::now();
    uint64_t first_id = base + 1;
    if (spec.batch() == 1) {
      net::SubmitRequest request;
      request.request_id = first_id;
      request.seed = items[0].seed;
      request.want_snapshot = spec.want_snapshot();
      request.has_trace = options.trace;  // trace_id 0: the server mints it
      request.sources = std::move(items[0].sources);
      if (!client->SendSubmit(request)) return lose(1);
    } else {
      const net::TicketRange range = client->SubmitBatch(items, batch_options);
      if (!range.ok()) return lose(items.size());
      first_id = range.first_id;
    }
    for (size_t answered = 0; answered < items.size(); ++answered) {
      const std::optional<net::Completion> completion =
          client->NextCompletion();
      if (!completion.has_value()) return lose(items.size() - answered);
      const uint64_t offset = completion->request_id - first_id;
      // An answer to a request never sent: the connection cannot be trusted.
      if (offset >= items.size()) return lose(items.size() - answered);
      RecordAnswer(options, window_start, subwindow, base + offset, sent,
                   Clock::now(), *completion, worker);
    }
  }
}

}  // namespace

bool ClientPool::Connect(uint16_t port, std::string* error) {
  for (int i = 0; i < kConnections; ++i) {
    clients_.push_back(std::make_unique<net::Client>());
    if (!clients_.back()->Connect("127.0.0.1", port, error)) return false;
  }
  return true;
}

void ClientPool::Close() {
  for (const auto& client : clients_) {
    if (client->connected()) client->Goodbye();
  }
  clients_.clear();
}

int64_t ClientPool::bytes() const {
  int64_t total = 0;
  for (const auto& client : clients_) {
    total += client->bytes_sent() + client->bytes_received();
  }
  return total;
}

ClassReference ComputeClassReference(const RequestStream& stream,
                                     AnswerChecker* checker) {
  core::FlowHarness harness(&stream.pattern().schema,
                            *core::Strategy::Parse(kStrategy));
  ClassReference reference;
  for (int k = 0; k < kHotClasses; ++k) {
    const core::InstanceResult result =
        RunChecked(&harness, stream.ClassItem(k), checker);
    reference.fingerprints.push_back(net::FingerprintResult(result));
    reference.snapshots.push_back(WireSnapshot(result));
  }
  return reference;
}

bool WarmClasses(net::Client* client, const RequestStream& stream,
                 std::vector<uint64_t>* fingerprints, std::string* error) {
  std::vector<net::BatchItem> items;
  for (int k = 0; k < kHotClasses; ++k) items.push_back(stream.ClassItem(k));
  net::BatchOptions options;
  options.want_snapshot = true;  // as the hot workloads ask
  std::vector<net::TicketRange> ranges;
  for (size_t k = 0; k < items.size(); k += kHotBatch) {
    const size_t n = std::min<size_t>(kHotBatch, items.size() - k);
    ranges.push_back(client->SubmitBatch(
        std::span<const net::BatchItem>(items.data() + k, n), options));
    if (!ranges.back().ok()) {
      *error = "warm-up send failed";
      return false;
    }
  }
  fingerprints->assign(items.size(), 0);
  std::vector<bool> answered(items.size(), false);
  const bool drained = client->DrainCompletions(
      [&](const net::Completion& completion) {
        if (completion.type != net::MsgType::kSubmitResult) return;
        for (size_t b = 0; b < ranges.size(); ++b) {
          if (!ranges[b].Contains(completion.request_id)) continue;
          const size_t k = b * kHotBatch +
                           (completion.request_id - ranges[b].first_id);
          (*fingerprints)[k] = completion.result.fingerprint;
          answered[k] = true;
        }
      });
  for (size_t k = 0; k < answered.size(); ++k) {
    if (!answered[k]) {
      *error = drained ? "warm-up class " + std::to_string(k) + " refused"
                       : "warm-up stream broke";
      return false;
    }
  }
  return true;
}

LoadResult RunClosedLoop(ClientPool* pool, const LoadOptions& options) {
  std::vector<Worker> workers(pool->clients().size());
  for (Worker& worker : workers) {
    worker.result.windows.resize(kSubWindows);
  }
  std::atomic<uint64_t> next_index{0};
  std::atomic<int64_t> answered_total{0};
  for (Worker& worker : workers) worker.answered_total = &answered_total;
  const int64_t bytes_before = pool->bytes();
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < workers.size(); ++i) {
    threads.emplace_back(RunWorker, pool->clients()[i].get(),
                         std::cref(options), &next_index, start, end,
                         &workers[i]);
  }
  for (std::thread& thread : threads) thread.join();

  LoadResult total;
  total.client_cpu_s = ProcessCpuSeconds() - cpu_before;
  total.bytes = pool->bytes() - bytes_before;
  total.windows.resize(kSubWindows);
  for (Worker& worker : workers) {
    LoadResult& part = worker.result;
    total.tally.Merge(part.tally);
    total.checker.Merge(part.checker);
    for (size_t b = 0; b < total.windows.size(); ++b) {
      SubWindow& into = total.windows[b];
      const SubWindow& from = part.windows[b];
      into.answers += from.answers;
      into.failed += from.failed;
      into.latencies_ms.insert(into.latencies_ms.end(),
                               from.latencies_ms.begin(),
                               from.latencies_ms.end());
    }
    total.answers.insert(total.answers.end(), part.answers.begin(),
                         part.answers.end());
    for (auto& [name, values] : part.trace.durations_us) {
      std::vector<double>& into = total.trace.durations_us[name];
      into.insert(into.end(), values.begin(), values.end());
    }
    total.trace.traced += part.trace.traced;
    for (TracedRequest& kept : part.trace.kept) {
      total.trace.kept.push_back(std::move(kept));
    }
  }
  return total;
}

}  // namespace servebench
