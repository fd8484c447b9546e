// Unit tests for the flag table every dflow binary parses its command line
// with (net::ServerConfig), and for the router's --backends list parser
// (net::ParseBackendList): strict integers and ranges, sample periods,
// megabyte conversion, finite-number checks, flag-shape errors, --help,
// and the generated help text.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/router.h"
#include "net/server_config.h"

namespace dflow::net {
namespace {

// Runs config.Parse over `args` (argv[0] is supplied).
ServerConfig::ParseStatus ParseArgs(const ServerConfig& config,
                                    std::vector<std::string> args,
                                    std::string* error) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return config.Parse(static_cast<int>(argv.size()), argv.data(), error);
}

bool Accepts(const ServerConfig& config, const std::string& arg) {
  std::string error;
  return ParseArgs(config, {arg}, &error) == ServerConfig::ParseStatus::kOk;
}

// The error for a single refused argument (empty when it was accepted).
std::string ErrorFor(const ServerConfig& config, const std::string& arg) {
  std::string error;
  if (ParseArgs(config, {arg}, &error) != ServerConfig::ParseStatus::kError) {
    return "";
  }
  return error;
}

TEST(ServerConfigTest, IntegersAreStrictAndRangeChecked) {
  int port = 7;
  long long budget = 0;
  uint64_t epoch = 0;
  ServerConfig config("prog", "test");
  config.Int("port", &port, "port", 0, 65535)
      .Int64("budget", &budget, "budget", -5, 5)
      .Uint64("epoch", &epoch, "epoch");

  EXPECT_TRUE(Accepts(config, "--port=65535"));
  EXPECT_EQ(port, 65535);
  EXPECT_TRUE(Accepts(config, "--port=0"));
  EXPECT_EQ(port, 0);
  for (const char* bad : {"--port=65536", "--port=-1", "--port=12x",
                          "--port=", "--port=1.5", "--port=0x10"}) {
    EXPECT_FALSE(Accepts(config, bad)) << bad;
  }
  EXPECT_EQ(port, 0);  // a refused value never lands
  EXPECT_NE(ErrorFor(config, "--port=65536").find("[0, 65535]"),
            std::string::npos);

  EXPECT_TRUE(Accepts(config, "--budget=-5"));
  EXPECT_EQ(budget, -5);
  EXPECT_FALSE(Accepts(config, "--budget=6"));
  EXPECT_FALSE(Accepts(config, "--budget=99999999999999999999"));

  EXPECT_TRUE(Accepts(config, "--epoch=18446744073709551615"));
  EXPECT_EQ(epoch, UINT64_MAX);
  EXPECT_FALSE(Accepts(config, "--epoch=18446744073709551616"));
  EXPECT_FALSE(Accepts(config, "--epoch=-1"));
  EXPECT_FALSE(Accepts(config, "--epoch=3k"));
}

TEST(ServerConfigTest, IntClampsItsDefaultRangeToInt32) {
  int value = 0;
  ServerConfig config("prog", "test");
  config.Int("n", &value, "n");  // default range: all of int64
  EXPECT_TRUE(Accepts(config, "--n=2147483647"));
  EXPECT_EQ(value, INT32_MAX);
  EXPECT_TRUE(Accepts(config, "--n=-2147483648"));
  EXPECT_EQ(value, INT32_MIN);
  EXPECT_FALSE(Accepts(config, "--n=2147483648"));
  EXPECT_FALSE(Accepts(config, "--n=-2147483649"));
  EXPECT_EQ(value, INT32_MIN);
  // The message names the clamped range, not the int64 one asked for.
  EXPECT_NE(ErrorFor(config, "--n=2147483648")
                .find("[-2147483648, 2147483647]"),
            std::string::npos);
}

TEST(ServerConfigTest, SamplePeriodTakesNOrOneOverN) {
  uint32_t period = 5;
  ServerConfig config("prog", "test");
  config.SamplePeriod("sample", &period, "sampling");
  EXPECT_TRUE(Accepts(config, "--sample=64"));
  EXPECT_EQ(period, 64u);
  EXPECT_TRUE(Accepts(config, "--sample=1/8"));
  EXPECT_EQ(period, 8u);
  EXPECT_TRUE(Accepts(config, "--sample=0"));
  EXPECT_EQ(period, 0u);
  EXPECT_TRUE(Accepts(config, "--sample=4294967295"));
  EXPECT_EQ(period, UINT32_MAX);
  for (const char* bad : {"--sample=4294967296", "--sample=-1",
                          "--sample=2/8", "--sample=1/", "--sample=1/x"}) {
    EXPECT_FALSE(Accepts(config, bad)) << bad;
  }
}

TEST(ServerConfigTest, MegabytesConvertToBytes) {
  uint64_t bytes = 0;
  ServerConfig config("prog", "test");
  config.Megabytes("max-mb", &bytes, "budget");
  EXPECT_TRUE(Accepts(config, "--max-mb=1.5"));
  EXPECT_EQ(bytes, 1572864u);
  EXPECT_TRUE(Accepts(config, "--max-mb=0"));
  EXPECT_EQ(bytes, 0u);
  EXPECT_TRUE(Accepts(config, "--max-mb=64"));
  EXPECT_EQ(bytes, 64u * 1024 * 1024);
  EXPECT_FALSE(Accepts(config, "--max-mb=-1"));
  EXPECT_FALSE(Accepts(config, "--max-mb=1MB"));
}

// A non-finite or overflowing size must be refused: cast to uint64_t, "inf"
// and 1e20 MB land as 0 bytes ("never rotate") and "nan" as 2^63.
TEST(ServerConfigTest, MegabytesRefuseNonFiniteAndOverflowingValues) {
  uint64_t bytes = 123;
  ServerConfig config("prog", "test");
  config.Megabytes("trace-max-mb", &bytes, "budget");
  for (const char* bad :
       {"--trace-max-mb=inf", "--trace-max-mb=-inf", "--trace-max-mb=nan",
        "--trace-max-mb=1e20", "--trace-max-mb=17592186044416",
        "--trace-max-mb=1e400"}) {
    const std::string error = ErrorFor(config, bad);
    EXPECT_NE(error.find("--trace-max-mb"), std::string::npos) << bad;
  }
  EXPECT_EQ(bytes, 123u);
  // The largest whole megabyte count that still fits.
  EXPECT_TRUE(Accepts(config, "--trace-max-mb=17592186044415"));
  EXPECT_EQ(bytes, 17592186044415ull * 1024 * 1024);
}

TEST(ServerConfigTest, DoublesMustBeFinite) {
  double timeout = 10;
  double slo = 0;
  ServerConfig config("prog", "test");
  config.Double("connect-timeout", &timeout, "seconds")
      .Double("slo-ms", &slo, "ms");
  EXPECT_TRUE(Accepts(config, "--connect-timeout=2.5"));
  EXPECT_DOUBLE_EQ(timeout, 2.5);
  EXPECT_TRUE(Accepts(config, "--slo-ms=-1"));
  EXPECT_DOUBLE_EQ(slo, -1);
  EXPECT_NE(
      ErrorFor(config, "--connect-timeout=nan").find("--connect-timeout"),
      std::string::npos);
  EXPECT_NE(ErrorFor(config, "--slo-ms=inf").find("--slo-ms"),
            std::string::npos);
  for (const char* bad : {"--slo-ms=-inf", "--slo-ms=NAN", "--slo-ms=1e999",
                          "--slo-ms=1.5x", "--slo-ms="}) {
    EXPECT_FALSE(Accepts(config, bad)) << bad;
  }
  EXPECT_DOUBLE_EQ(timeout, 2.5);
  EXPECT_DOUBLE_EQ(slo, -1);
}

TEST(ServerConfigTest, FlagShapeErrors) {
  bool verbose = false;
  int port = 0;
  ServerConfig config("prog", "test");
  config.Bool("verbose", &verbose, "log").Int("port", &port, "port", 0, 9);

  EXPECT_NE(ErrorFor(config, "--verbose=1").find("takes no value"),
            std::string::npos);
  EXPECT_FALSE(verbose);
  EXPECT_NE(ErrorFor(config, "--port").find("needs a value"),
            std::string::npos);
  EXPECT_NE(ErrorFor(config, "--colour=red").find("unknown flag '--colour'"),
            std::string::npos);
  EXPECT_NE(ErrorFor(config, "port=3").find("unexpected argument"),
            std::string::npos);
  EXPECT_TRUE(Accepts(config, "--verbose"));
  EXPECT_TRUE(verbose);
}

TEST(ServerConfigTest, HelpStopsParsingAndListsCapturedDefaults) {
  int shards = 4;
  double slo = 2.5;
  uint64_t budget = 3 * 1024 * 1024;
  std::string node = "edge-1";
  bool verbose = false;
  ServerConfig config("dflow_test", "A test binary.");
  config.Int("shards", &shards, "worker shards", 1, 64)
      .Double("slo-ms", &slo, "latency objective")
      .Megabytes("max-mb", &budget, "sink budget")
      .String("node-id", &node, "identity")
      .Bool("verbose", &verbose, "log lines");

  std::string error;
  // --help ends the parse: an unknown flag after it is never looked at.
  EXPECT_EQ(ParseArgs(config, {"--shards=2", "--help", "--nope"}, &error),
            ServerConfig::ParseStatus::kHelp);
  EXPECT_EQ(ParseArgs(config, {"-h"}, &error),
            ServerConfig::ParseStatus::kHelp);

  const std::string help = config.Help();
  EXPECT_EQ(help.rfind("usage: dflow_test [--flag=VALUE ...]", 0), 0u);
  EXPECT_NE(help.find("A test binary."), std::string::npos);
  EXPECT_NE(help.find("--shards=N"), std::string::npos);
  EXPECT_NE(help.find("[default 4]"), std::string::npos);
  EXPECT_NE(help.find("[default 2.5]"), std::string::npos);
  EXPECT_NE(help.find("[default 3]"), std::string::npos);
  EXPECT_NE(help.find("[default edge-1]"), std::string::npos);
  EXPECT_NE(help.find("--verbose "), std::string::npos);
  EXPECT_EQ(help.find("--verbose="), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(ParseBackendListTest, AcceptsPortsHostsAndMixedLists) {
  std::vector<BackendAddress> backends;
  ASSERT_TRUE(ParseBackendList("4521,4522", &backends));
  ASSERT_EQ(backends.size(), 2u);
  EXPECT_EQ(backends[0].host, "127.0.0.1");
  EXPECT_EQ(backends[0].port, 4521);
  EXPECT_EQ(backends[1].port, 4522);

  backends.clear();
  ASSERT_TRUE(ParseBackendList("10.0.0.2:1,4522,localhost:65535", &backends));
  ASSERT_EQ(backends.size(), 3u);
  EXPECT_EQ(backends[0].host, "10.0.0.2");
  EXPECT_EQ(backends[0].port, 1);
  EXPECT_EQ(backends[1].host, "127.0.0.1");
  EXPECT_EQ(backends[1].port, 4522);
  EXPECT_EQ(backends[2].host, "localhost");
  EXPECT_EQ(backends[2].port, 65535);
}

// Every port token is parsed whole: "4521x" must not route to 4521, and a
// colon needs a host before it.
TEST(ParseBackendListTest, RefusesEveryBadForm) {
  for (const char* bad :
       {"", ",", "4521,", ",4521", "4521,,4522", "4521x,4522", "x4521",
        "0", "65536", "-1", "+4521", " 4521", "4521 ", "0x11d9", "4521.0",
        "99999999999", ":4521", "host:", "host:4521x", "4521,host:"}) {
    std::vector<BackendAddress> backends;
    EXPECT_FALSE(ParseBackendList(bad, &backends)) << "'" << bad << "'";
  }
}

TEST(ParseBackendListTest, DrivesACustomFlagRow) {
  std::vector<BackendAddress> backends;
  ServerConfig config("prog", "test");
  config.Custom("backends", "PORT[,PORT...]", "fleet",
                [&backends](const char* value, std::string* error) {
                  backends.clear();
                  if (!ParseBackendList(value, &backends)) {
                    *error = "cannot parse backend list";
                    return false;
                  }
                  return true;
                });
  EXPECT_TRUE(Accepts(config, "--backends=4521,host:4522"));
  EXPECT_EQ(backends.size(), 2u);
  EXPECT_EQ(ErrorFor(config, "--backends=4521x,4522"),
            "--backends='4521x,4522': cannot parse backend list");
}

}  // namespace
}  // namespace dflow::net
