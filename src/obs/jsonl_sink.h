#ifndef DFLOW_OBS_JSONL_SINK_H_
#define DFLOW_OBS_JSONL_SINK_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace dflow::obs {

// Escapes `text` for embedding inside a JSON string literal: quotes,
// backslashes and control bytes. Every hand-built JSON line in the system
// goes through it, because node ids, attribute names and strategies are
// operator- or schema-chosen strings.
std::string JsonEscape(const std::string& text);

// A thread-safe append-only JSONL file sink with an explicit Flush() hook
// and a byte-budget rotation rule, shared by the trace recorder and the
// event journal. Appends are line-buffered through stdio under one mutex;
// nothing is flushed per line (the per-request cost stays one fwrite), so
// owners call Flush() at drain/shutdown to make the tail durable before a
// SIGTERM exit.
//
// Rotation: when max_bytes > 0 and an append would push the current file
// past the budget, the file is closed, renamed to "<path>.1" (replacing
// any previous rotation), and a fresh file is opened — bounding disk use
// at ~2x max_bytes instead of growing without bound. max_bytes == 0 means
// never rotate (the pre-PR-8 behavior).
class JsonlSink {
 public:
  JsonlSink() = default;
  ~JsonlSink();
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  // Opens (appending) the sink. Returns false and logs to stderr when the
  // file cannot be opened; the sink then swallows appends silently.
  bool Open(const std::string& path, uint64_t max_bytes = 0);

  bool open() const;

  // Appends one JSON line (the trailing newline is added here).
  void Append(const std::string& line);

  // Flushes buffered bytes to the OS. Safe to call at any time, including
  // on a never-opened sink.
  void Flush();

  // Flushes and closes. Subsequent appends are dropped.
  void Close();

  int64_t lines_written() const;
  int64_t rotations() const;

 private:
  void RotateLocked();

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t max_bytes_ = 0;
  uint64_t bytes_written_ = 0;
  int64_t lines_written_ = 0;
  int64_t rotations_ = 0;
};

}  // namespace dflow::obs

#endif  // DFLOW_OBS_JSONL_SINK_H_
