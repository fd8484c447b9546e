#ifndef DFLOW_NET_SERVER_CONFIG_H_
#define DFLOW_NET_SERVER_CONFIG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dflow::net {

// Validated command-line parsing driven by a single flag table.
//
// Every dflow binary used to carry its own strcmp chain; the chains
// drifted (same flag, three slightly different doc comments, no --help
// anywhere). ServerConfig replaces them: a binary registers each flag
// once — name, typed target, one doc line — and both the parser and the
// generated --help text come from that same table, so a flag cannot
// exist undocumented and the help cannot drift from what Parse accepts.
//
//   net::ServerConfig config("dflow_serve", "The flow-serving runtime.");
//   config.Int("port", &port, "TCP listen port", 0, 65535)
//         .Bool("verbose", &verbose, "per-connection log lines");
//   switch (config.Parse(argc, argv, &error)) {
//     case net::ServerConfig::ParseStatus::kHelp: ... print Help(), exit 0
//     case net::ServerConfig::ParseStatus::kError: ... print error, exit 2
//     case net::ServerConfig::ParseStatus::kOk: break;
//   }
//
// Value flags are --name=VALUE only (no space-separated form — the old
// parsers never accepted one either). Bool flags are bare --name.
// --help / -h is built in. Targets keep their pre-registration values as
// defaults, and those defaults are captured into the help text at
// registration time.
class ServerConfig {
 public:
  enum class ParseStatus {
    kOk,     // every flag parsed and validated; targets are written
    kHelp,   // --help/-h seen; print Help() and exit 0
    kError,  // unknown flag or failed validation; *error says which
  };

  // `summary` is the one-paragraph description printed under the usage
  // line in --help.
  ServerConfig(std::string program, std::string summary);

  // Typed registrations. Each binds --name to *target with inclusive
  // range validation where a range makes sense. The doc string is one
  // sentence; Help() wraps it.
  ServerConfig& Int(const char* name, int* target, const char* doc,
                    long long min_value = INT64_MIN,
                    long long max_value = INT64_MAX);
  ServerConfig& Int64(const char* name, long long* target, const char* doc,
                      long long min_value = INT64_MIN,
                      long long max_value = INT64_MAX);
  ServerConfig& Uint64(const char* name, uint64_t* target, const char* doc);
  // Finite numbers only: "nan", "inf" and overflowing values are refused.
  ServerConfig& Double(const char* name, double* target, const char* doc);
  ServerConfig& String(const char* name, std::string* target, const char* doc);
  // Bare --name sets *target = true (there is no --no-name form; register
  // an inverse flag where the default must be on).
  ServerConfig& Bool(const char* name, bool* target, const char* doc);
  // 1-in-N sampling period: accepts "N" or "1/N"; 0 disables.
  ServerConfig& SamplePeriod(const char* name, uint32_t* target,
                             const char* doc);
  // Fractional megabytes to bytes ("--name=1.5" -> 1572864). Refuses
  // negative and non-finite values and any byte count past uint64_t.
  ServerConfig& Megabytes(const char* name, uint64_t* target, const char* doc);
  // Escape hatch for shapes the typed registrations don't cover (enum
  // words, address lists). `parse` returns false and fills *error with
  // the reason on bad input; `value_name` is the placeholder in --help
  // (e.g. "PORT[,PORT...]").
  ServerConfig& Custom(const char* name, const char* value_name,
                       const char* doc,
                       std::function<bool(const char* value,
                                          std::string* error)> parse);

  // Matches argv[1..] against the table. On kError, *error holds a
  // one-line message naming the offending flag.
  ParseStatus Parse(int argc, char** argv, std::string* error) const;

  // The full flag reference, generated from the table (usage line,
  // summary paragraph, one wrapped entry per flag with its default).
  std::string Help() const;

 private:
  struct Row {
    std::string name;        // without the leading --
    std::string value_name;  // placeholder in help; empty for bool flags
    std::string doc;
    std::string default_text;  // captured at registration
    bool* bool_target = nullptr;  // set => bare flag, no value
    std::function<bool(const char* value, std::string* error)> parse;
  };

  ServerConfig& AddRow(Row row);
  const Row* Find(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::vector<Row> rows_;
};

}  // namespace dflow::net

#endif  // DFLOW_NET_SERVER_CONFIG_H_
