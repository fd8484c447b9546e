#include "obs/jsonl_sink.h"

#include <sys/stat.h>

namespace dflow::obs {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonlSink::~JsonlSink() { Close(); }

bool JsonlSink::Open(const std::string& path, uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_ = path;
  max_bytes_ = max_bytes;
  bytes_written_ = 0;
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    std::fprintf(stderr, "[obs] cannot open jsonl sink %s\n", path.c_str());
    return false;
  }
  // Resume the byte budget from the existing file size, so a restart does
  // not double the cap before the first rotation.
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && st.st_size > 0) {
    bytes_written_ = static_cast<uint64_t>(st.st_size);
  }
  return true;
}

bool JsonlSink::open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

void JsonlSink::RotateLocked() {
  std::fclose(file_);
  file_ = nullptr;
  const std::string rotated = path_ + ".1";
  std::remove(rotated.c_str());
  std::rename(path_.c_str(), rotated.c_str());
  file_ = std::fopen(path_.c_str(), "a");
  bytes_written_ = 0;
  ++rotations_;
  if (file_ == nullptr) {
    std::fprintf(stderr, "[obs] cannot reopen jsonl sink %s after rotation\n",
                 path_.c_str());
  }
}

void JsonlSink::Append(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  if (max_bytes_ > 0 && bytes_written_ > 0 &&
      bytes_written_ + line.size() + 1 > max_bytes_) {
    RotateLocked();
    if (file_ == nullptr) return;
  }
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  bytes_written_ += line.size() + 1;
  ++lines_written_;
}

void JsonlSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

void JsonlSink::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

int64_t JsonlSink::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_written_;
}

int64_t JsonlSink::rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

}  // namespace dflow::obs
