#include "net/server_config.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace dflow::net {
namespace {

// Strict integer parse: the whole token must be one base-10 integer.
bool ParseInt64(const char* text, long long* out) {
  if (*text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  *out = parsed;
  return true;
}

bool ParseUint64(const char* text, uint64_t* out) {
  if (*text == '\0' || *text == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  *out = parsed;
  return true;
}

// Strict finite number: "nan", "inf" and overflowing values are refused.
bool ParseDouble(const char* text, double* out) {
  if (*text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0' ||
      !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

std::string RangeError(long long min_value, long long max_value) {
  return "must be an integer in [" + std::to_string(min_value) + ", " +
         std::to_string(max_value) + "]";
}

// Appends `doc` word-wrapped to `width` columns with a hanging indent.
void AppendWrapped(const std::string& doc, size_t indent, size_t width,
                   std::string* out) {
  size_t column = out->size() - out->rfind('\n') - 1;
  size_t start = 0;
  while (start < doc.size()) {
    size_t end = doc.find(' ', start);
    if (end == std::string::npos) end = doc.size();
    const size_t word_len = end - start;
    if (column + word_len + 1 > width && column > indent) {
      *out += '\n';
      out->append(indent, ' ');
      column = indent;
    } else if (column > indent) {
      *out += ' ';
      ++column;
    }
    out->append(doc, start, word_len);
    column += word_len;
    start = end + 1;
  }
  *out += '\n';
}

}  // namespace

ServerConfig::ServerConfig(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

ServerConfig& ServerConfig::AddRow(Row row) {
  rows_.push_back(std::move(row));
  return *this;
}

const ServerConfig::Row* ServerConfig::Find(const std::string& name) const {
  for (const Row& row : rows_) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

ServerConfig& ServerConfig::Int(const char* name, int* target, const char* doc,
                                long long min_value, long long max_value) {
  Row row;
  row.name = name;
  row.value_name = "N";
  row.doc = doc;
  row.default_text = std::to_string(*target);
  row.parse = [target, min_value, max_value](const char* value,
                                             std::string* error) {
    long long parsed = 0;
    if (!ParseInt64(value, &parsed) || parsed < min_value ||
        parsed > max_value || parsed < INT32_MIN || parsed > INT32_MAX) {
      *error = RangeError(min_value < INT32_MIN ? INT32_MIN : min_value,
                          max_value > INT32_MAX ? INT32_MAX : max_value);
      return false;
    }
    *target = static_cast<int>(parsed);
    return true;
  };
  return AddRow(std::move(row));
}

ServerConfig& ServerConfig::Int64(const char* name, long long* target,
                                  const char* doc, long long min_value,
                                  long long max_value) {
  Row row;
  row.name = name;
  row.value_name = "N";
  row.doc = doc;
  row.default_text = std::to_string(*target);
  row.parse = [target, min_value, max_value](const char* value,
                                             std::string* error) {
    long long parsed = 0;
    if (!ParseInt64(value, &parsed) || parsed < min_value ||
        parsed > max_value) {
      *error = RangeError(min_value, max_value);
      return false;
    }
    *target = parsed;
    return true;
  };
  return AddRow(std::move(row));
}

ServerConfig& ServerConfig::Uint64(const char* name, uint64_t* target,
                                   const char* doc) {
  Row row;
  row.name = name;
  row.value_name = "N";
  row.doc = doc;
  row.default_text = std::to_string(*target);
  row.parse = [target](const char* value, std::string* error) {
    uint64_t parsed = 0;
    if (!ParseUint64(value, &parsed)) {
      *error = "must be a non-negative integer";
      return false;
    }
    *target = parsed;
    return true;
  };
  return AddRow(std::move(row));
}

ServerConfig& ServerConfig::Double(const char* name, double* target,
                                   const char* doc) {
  Row row;
  row.name = name;
  row.value_name = "X";
  row.doc = doc;
  row.default_text = std::to_string(*target);
  // Trim trailing zeros ("2.000000" -> "2"); keeps the help readable.
  while (row.default_text.find('.') != std::string::npos &&
         (row.default_text.back() == '0' || row.default_text.back() == '.')) {
    const char dropped = row.default_text.back();
    row.default_text.pop_back();
    if (dropped == '.') break;
  }
  row.parse = [target](const char* value, std::string* error) {
    if (!ParseDouble(value, target)) {
      *error = "must be a finite number";
      return false;
    }
    return true;
  };
  return AddRow(std::move(row));
}

ServerConfig& ServerConfig::String(const char* name, std::string* target,
                                   const char* doc) {
  Row row;
  row.name = name;
  row.value_name = "TEXT";
  row.doc = doc;
  row.default_text = target->empty() ? "" : *target;
  row.parse = [target](const char* value, std::string*) {
    *target = value;
    return true;
  };
  return AddRow(std::move(row));
}

ServerConfig& ServerConfig::Bool(const char* name, bool* target,
                                 const char* doc) {
  Row row;
  row.name = name;
  row.doc = doc;
  row.bool_target = target;
  return AddRow(std::move(row));
}

ServerConfig& ServerConfig::SamplePeriod(const char* name, uint32_t* target,
                                         const char* doc) {
  Row row;
  row.name = name;
  row.value_name = "N|1/N";
  row.doc = doc;
  row.default_text = std::to_string(*target);
  row.parse = [target](const char* value, std::string* error) {
    // "--flag=64" and "--flag=1/64" both mean "1 in 64"; 0 disables.
    if (std::strncmp(value, "1/", 2) == 0) value += 2;
    long long parsed = 0;
    if (!ParseInt64(value, &parsed) || parsed < 0 || parsed > UINT32_MAX) {
      *error = "must be N or 1/N with N a non-negative integer";
      return false;
    }
    *target = static_cast<uint32_t>(parsed);
    return true;
  };
  return AddRow(std::move(row));
}

ServerConfig& ServerConfig::Megabytes(const char* name, uint64_t* target,
                                      const char* doc) {
  Row row;
  row.name = name;
  row.value_name = "MB";
  row.doc = doc;
  row.default_text = std::to_string(*target / (1024.0 * 1024.0));
  while (row.default_text.find('.') != std::string::npos &&
         (row.default_text.back() == '0' || row.default_text.back() == '.')) {
    const char dropped = row.default_text.back();
    row.default_text.pop_back();
    if (dropped == '.') break;
  }
  row.parse = [target](const char* value, std::string* error) {
    double megabytes = 0;
    // 2^64 bytes is the first count a uint64_t cannot hold.
    if (!ParseDouble(value, &megabytes) || megabytes < 0 ||
        megabytes * 1024 * 1024 >= 18446744073709551616.0) {
      *error = "must be a non-negative number of megabytes below 2^44";
      return false;
    }
    *target = static_cast<uint64_t>(megabytes * 1024 * 1024);
    return true;
  };
  return AddRow(std::move(row));
}

ServerConfig& ServerConfig::Custom(
    const char* name, const char* value_name, const char* doc,
    std::function<bool(const char* value, std::string* error)> parse) {
  Row row;
  row.name = name;
  row.value_name = value_name;
  row.doc = doc;
  row.parse = std::move(parse);
  return AddRow(std::move(row));
}

ServerConfig::ParseStatus ServerConfig::Parse(int argc, char** argv,
                                              std::string* error) const {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      return ParseStatus::kHelp;
    }
    if (std::strncmp(arg, "--", 2) != 0) {
      *error = "unexpected argument '" + std::string(arg) +
               "' (flags are --name=VALUE; see --help)";
      return ParseStatus::kError;
    }
    const char* eq = std::strchr(arg + 2, '=');
    const std::string name =
        eq == nullptr ? std::string(arg + 2)
                      : std::string(arg + 2, static_cast<size_t>(eq - arg - 2));
    const Row* row = Find(name);
    if (row == nullptr) {
      *error = "unknown flag '--" + name + "' (see --help)";
      return ParseStatus::kError;
    }
    if (row->bool_target != nullptr) {
      if (eq != nullptr) {
        *error = "--" + name + " takes no value";
        return ParseStatus::kError;
      }
      *row->bool_target = true;
      continue;
    }
    if (eq == nullptr) {
      *error = "--" + name + " needs a value (--" + name + "=" +
               row->value_name + ")";
      return ParseStatus::kError;
    }
    std::string detail;
    if (!row->parse(eq + 1, &detail)) {
      *error = "--" + name + "='" + std::string(eq + 1) + "': " +
               (detail.empty() ? "invalid value" : detail);
      return ParseStatus::kError;
    }
  }
  return ParseStatus::kOk;
}

std::string ServerConfig::Help() const {
  std::string out = "usage: " + program_ + " [--flag=VALUE ...]\n\n";
  AppendWrapped(summary_, 0, 78, &out);
  out += '\n';
  constexpr size_t kDocColumn = 30;
  for (const Row& row : rows_) {
    std::string head = "  --" + row.name;
    if (row.bool_target == nullptr) head += "=" + row.value_name;
    if (head.size() + 2 > kDocColumn) {
      out += head + '\n';
      out.append(kDocColumn, ' ');
    } else {
      head.append(kDocColumn - head.size(), ' ');
      out += head;
    }
    std::string doc = row.doc;
    if (!row.default_text.empty()) {
      doc += " [default " + row.default_text + "]";
    }
    AppendWrapped(doc, kDocColumn, 78, &out);
  }
  out += "  --help                      print this reference and exit\n";
  return out;
}

}  // namespace dflow::net
