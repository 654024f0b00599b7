#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/cli.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace baat::sim {
namespace {

TEST(Cli, DefaultsWithNoArguments) {
  const CliOptions o = parse_cli({});
  EXPECT_EQ(o.policy, core::PolicyKind::Baat);
  EXPECT_EQ(o.days, 30u);
  EXPECT_DOUBLE_EQ(o.sunshine_fraction, 0.5);
  EXPECT_EQ(o.nodes, 6u);
  EXPECT_FALSE(o.old_fleet);
  EXPECT_FALSE(o.show_help);
}

TEST(Cli, ParsesEveryFlag) {
  const CliOptions o = parse_cli({"--policy", "ebuff", "--days", "90", "--sunshine",
                                  "0.7", "--nodes", "12", "--ratio", "8", "--seed",
                                  "7", "--old-fleet", "--csv", "/tmp/out.csv"});
  EXPECT_EQ(o.policy, core::PolicyKind::EBuff);
  EXPECT_EQ(o.days, 90u);
  EXPECT_DOUBLE_EQ(o.sunshine_fraction, 0.7);
  EXPECT_EQ(o.nodes, 12u);
  EXPECT_DOUBLE_EQ(o.watts_per_ah, 8.0);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_TRUE(o.old_fleet);
  EXPECT_EQ(o.csv_path, "/tmp/out.csv");
}

TEST(Cli, PolicyNames) {
  EXPECT_EQ(parse_cli({"--policy", "baat-s"}).policy, core::PolicyKind::BaatS);
  EXPECT_EQ(parse_cli({"--policy", "baat-h"}).policy, core::PolicyKind::BaatH);
  EXPECT_EQ(parse_cli({"--policy", "baat-planned", "--cycles-plan", "500"}).policy,
            core::PolicyKind::BaatPlanned);
  EXPECT_THROW(parse_cli({"--policy", "frobnicate"}), util::PreconditionError);
}

TEST(Cli, PlannedRequiresCyclesPlan) {
  EXPECT_THROW(parse_cli({"--policy", "baat-planned"}), util::PreconditionError);
}

TEST(Cli, ParsesMathTier) {
  EXPECT_EQ(parse_cli({}).math, battery::MathMode::Exact);
  EXPECT_EQ(parse_cli({"--math", "exact"}).math, battery::MathMode::Exact);
  EXPECT_EQ(parse_cli({"--math", "fast"}).math, battery::MathMode::Fast);
  EXPECT_EQ(parse_cli({"--math", "simd"}).math, battery::MathMode::Simd);
  EXPECT_THROW(parse_cli({"--math", "sloppy"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--math"}), util::PreconditionError);
  EXPECT_EQ(scenario_from_cli(parse_cli({"--math", "fast"})).bank.math,
            battery::MathMode::Fast);
  EXPECT_EQ(scenario_from_cli(parse_cli({})).bank.math, battery::MathMode::Exact);
  EXPECT_EQ(scenario_from_cli(parse_cli({"--math", "simd"})).bank.math,
            battery::MathMode::Simd);
  // The ratio rewrite must not reset the tier.
  EXPECT_EQ(scenario_from_cli(parse_cli({"--math", "fast", "--ratio", "2.0"})).bank.math,
            battery::MathMode::Fast);
}

TEST(Cli, HelpFlag) {
  EXPECT_TRUE(parse_cli({"--help"}).show_help);
  EXPECT_TRUE(parse_cli({"-h"}).show_help);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(Cli, ParsesObservabilityFlags) {
  const CliOptions o =
      parse_cli({"--metrics-out", "/tmp/m.json", "--trace-out", "/tmp/t.json",
                 "--trace-events", "1024", "--log-level", "warn"});
  EXPECT_EQ(o.metrics_path, "/tmp/m.json");
  EXPECT_EQ(o.trace_path, "/tmp/t.json");
  EXPECT_EQ(o.trace_events, 1024u);
  ASSERT_TRUE(o.log_level.has_value());
  EXPECT_EQ(*o.log_level, util::LogLevel::Warn);

  const CliOptions defaults = parse_cli({});
  EXPECT_TRUE(defaults.metrics_path.empty());
  EXPECT_TRUE(defaults.trace_path.empty());
  EXPECT_EQ(defaults.trace_events, obs::TraceBuffer::kDefaultCapacity);
  EXPECT_FALSE(defaults.log_level.has_value());
}

TEST(Cli, RejectsBadObservabilityValues) {
  EXPECT_THROW(parse_cli({"--trace-events", "0"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--trace-events", "many"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--log-level", "bogus"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--metrics-out"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--trace-out"}), util::PreconditionError);
}

TEST(Cli, RejectsBadValues) {
  EXPECT_THROW(parse_cli({"--days", "0"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--days", "ten"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--days", "1.5"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--sunshine", "1.5"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--ratio", "-2"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--days"}), util::PreconditionError);  // missing value
  EXPECT_THROW(parse_cli({"--frobnicate"}), util::PreconditionError);
}

// Regression: --seed used to round-trip through double, so any value above
// 2^53 was silently rounded to a neighbouring seed. The full uint64 range
// must survive parsing exactly.
TEST(Cli, SeedRoundTripsAbove2Pow53) {
  EXPECT_EQ(parse_cli({"--seed", "9007199254740993"}).seed,
            9007199254740993ull);  // 2^53 + 1: first casualty of the double path
  EXPECT_EQ(parse_cli({"--seed", "18446744073709551615"}).seed,
            18446744073709551615ull);  // 2^64 - 1
  EXPECT_EQ(parse_cli({"--seed", "0"}).seed, 0ull);
}

TEST(Cli, SeedRejectsNonIntegers) {
  EXPECT_THROW(parse_cli({"--seed", "abc"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--seed", "12.5"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--seed", "-1"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--seed", "+7"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--seed", ""}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--seed", "18446744073709551616"}),
               util::PreconditionError);  // 2^64: out of range
  EXPECT_THROW(parse_cli({"--seed", "7seven"}), util::PreconditionError);
}

TEST(Cli, IntegerFlagsRejectOverflowNotSilentlyWrap) {
  EXPECT_THROW(parse_cli({"--days", "99999999999999999999"}),
               util::PreconditionError);
  EXPECT_THROW(parse_cli({"--nodes", "-3"}), util::PreconditionError);
}

TEST(Cli, ParsesSweepFlags) {
  const CliOptions o =
      parse_cli({"--sweep-sunshine", "0.2,0.5,0.8", "--jobs", "4"});
  ASSERT_EQ(o.sweep_sunshine.size(), 3u);
  EXPECT_DOUBLE_EQ(o.sweep_sunshine[0], 0.2);
  EXPECT_DOUBLE_EQ(o.sweep_sunshine[1], 0.5);
  EXPECT_DOUBLE_EQ(o.sweep_sunshine[2], 0.8);
  EXPECT_EQ(o.jobs, 4u);

  const CliOptions defaults = parse_cli({});
  EXPECT_TRUE(defaults.sweep_sunshine.empty());
  EXPECT_EQ(defaults.jobs, 0u);
}

TEST(Cli, RejectsBadSweepValues) {
  EXPECT_THROW(parse_cli({"--sweep-sunshine", ""}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--sweep-sunshine", "0.2,"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--sweep-sunshine", "0.2,1.5"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--sweep-sunshine", "0.2,x"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--jobs", "0"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--jobs", "many"}), util::PreconditionError);
}

// Regression for the comma-list parser: empty items (leading, trailing or
// doubled commas) used to slip through the substr/find loop as phantom sweep
// points. They must be rejected with an error that names both the flag and
// the mistake.
TEST(Cli, CommaListRejectsEmptyItemsByName) {
  for (const char* bad : {"0.2,", ",0.2", "0.2,,0.5", ",", ",,", "0.1,0.2,"}) {
    try {
      parse_cli({"--sweep-sunshine", bad});
      FAIL() << "'" << bad << "' must be rejected";
    } catch (const util::PreconditionError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("--sweep-sunshine"), std::string::npos) << msg;
      EXPECT_NE(msg.find("comma"), std::string::npos) << msg;
    }
  }
}

// Fuzz companion to the fault-plan grammar fuzz: random comma/digit soup
// must either parse into only in-range fractions or throw PreconditionError
// — never crash, never fabricate a phantom entry.
TEST(Cli, CommaListFuzzNeverCrashesOrFabricatesEntries) {
  const std::string alphabet = "0123456789.,-+eE ";
  util::Rng rng{0xC0FFEEu};
  for (int iter = 0; iter < 500; ++iter) {
    std::string input;
    const int len = 1 + static_cast<int>(rng.uniform(0.0, 12.0));
    for (int i = 0; i < len; ++i) {
      input.push_back(
          alphabet[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                            static_cast<double>(alphabet.size() - 1))]);
    }
    try {
      const CliOptions o = parse_cli({"--sweep-sunshine", input});
      // Parsed: every entry is a real in-range fraction, and the entry count
      // matches the comma structure (no empty item became a point).
      ASSERT_FALSE(o.sweep_sunshine.empty()) << "'" << input << "'";
      for (double f : o.sweep_sunshine) {
        EXPECT_GE(f, 0.0) << "'" << input << "'";
        EXPECT_LE(f, 1.0) << "'" << input << "'";
      }
      const std::size_t commas =
          static_cast<std::size_t>(std::count(input.begin(), input.end(), ','));
      EXPECT_EQ(o.sweep_sunshine.size(), commas + 1) << "'" << input << "'";
    } catch (const util::PreconditionError&) {
      // Readable rejection is the other acceptable outcome.
    }
  }
}

TEST(Cli, ScenarioReflectsOptions) {
  CliOptions o;
  o.nodes = 4;
  o.seed = 99;
  o.policy = core::PolicyKind::BaatS;
  o.watts_per_ah = 10.0;
  const ScenarioConfig cfg = scenario_from_cli(o);
  EXPECT_EQ(cfg.nodes, 4u);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.policy, core::PolicyKind::BaatS);
  EXPECT_NEAR(cfg.bank.chemistry.capacity_c20.value(), 15.0, 1e-9);  // 150 W / 10
}

TEST(Cli, RunHelpReturnsZero) {
  CliOptions o;
  o.show_help = true;
  EXPECT_EQ(run_cli(o), 0);
}

TEST(Cli, EndToEndTinyRunWithCsv) {
  CliOptions o;
  o.days = 2;
  o.nodes = 3;
  o.csv_path = ::testing::TempDir() + "baatsim_cli_test.csv";
  EXPECT_EQ(run_cli(o), 0);
  std::ifstream in{o.csv_path};
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "day,weather,work,worst_ah,worst_low_soc_h,downtime_h,migrations,dvfs");
  int rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, 2);
  std::remove(o.csv_path.c_str());
}

TEST(Cli, EndToEndTinyRunWithObservability) {
  CliOptions o;
  o.days = 2;
  o.nodes = 3;
  o.metrics_path = ::testing::TempDir() + "baatsim_cli_metrics.json";
  o.trace_path = ::testing::TempDir() + "baatsim_cli_trace.json";
  EXPECT_EQ(run_cli(o), 0);

  std::ifstream min{o.metrics_path};
  ASSERT_TRUE(min.good());
  std::stringstream mbuf;
  mbuf << min.rdbuf();
  const std::string metrics = mbuf.str();
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("policy.decisions{"), std::string::npos);
  EXPECT_NE(metrics.find("\"battery.low_soc_ticks\""), std::string::npos);
  EXPECT_NE(metrics.find("\"node.health{0}\""), std::string::npos);
  // --metrics-out turns profiling on, so the hot-path histograms have samples.
  EXPECT_NE(metrics.find("\"profile.cluster_run_day_ns\""), std::string::npos);

  std::ifstream tin{o.trace_path};
  ASSERT_TRUE(tin.good());
  std::stringstream tbuf;
  tbuf << tin.rdbuf();
  const std::string trace = tbuf.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"day_start\""), std::string::npos);
  EXPECT_NE(trace.find("\"day_end\""), std::string::npos);

  std::remove(o.metrics_path.c_str());
  std::remove(o.trace_path.c_str());
}

TEST(Cli, TraceOutJsonlSuffixSwitchesFormat) {
  CliOptions o;
  o.days = 1;
  o.nodes = 2;
  o.trace_path = ::testing::TempDir() + "baatsim_cli_trace.jsonl";
  o.metrics_path = ::testing::TempDir() + "baatsim_cli_metrics.csv";
  EXPECT_EQ(run_cli(o), 0);

  std::ifstream tin{o.trace_path};
  ASSERT_TRUE(tin.good());
  std::string first_line;
  std::getline(tin, first_line);
  // JSONL: every line is a bare event object, no Chrome wrapper.
  EXPECT_EQ(first_line.front(), '{');
  EXPECT_NE(first_line.find("\"kind\""), std::string::npos);
  EXPECT_EQ(first_line.find("traceEvents"), std::string::npos);

  std::ifstream min{o.metrics_path};
  ASSERT_TRUE(min.good());
  std::string header;
  std::getline(min, header);
  EXPECT_EQ(header, "type,name,field,value");

  std::remove(o.trace_path.c_str());
  std::remove(o.metrics_path.c_str());
}

TEST(Cli, ParsesShardAndDemandFlags) {
  const CliOptions o = parse_cli({"--shards", "8", "--shard-workers", "4", "--demand",
                                  "users=2000000,spread=3"});
  EXPECT_EQ(o.shards, 8u);
  EXPECT_EQ(o.shard_workers, 4u);
  EXPECT_EQ(o.demand.users, 2000000u);
  EXPECT_DOUBLE_EQ(o.demand.region_spread_hours, 3.0);
  // Defaults: one shard, the fixed daily job plan.
  const CliOptions d = parse_cli({});
  EXPECT_EQ(d.shards, 0u);
  EXPECT_TRUE(d.demand.empty());
}

TEST(Cli, RejectsBadShardValues) {
  EXPECT_THROW(parse_cli({"--shards", "0"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--shards", "-2"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--shards", "5000"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--shards"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--shard-workers", "0"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--demand", "users=oops"}), util::PreconditionError);
  EXPECT_THROW(parse_cli({"--demand", ""}), util::PreconditionError);
}

TEST(Cli, ShardWorkersRequiresDatacenterMode) {
  try {
    parse_cli({"--shard-workers", "4"});
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--shards"), std::string::npos);
  }
  // --demand alone is datacenter mode (one shard), so workers are fine.
  EXPECT_NO_THROW(parse_cli({"--demand", "users=5", "--shard-workers", "2"}));
}

TEST(Cli, DatacenterModeConflictsAreNamed) {
  EXPECT_THROW(parse_cli({"--shards", "2", "--sweep-sunshine", "0.4,0.6"}),
               util::PreconditionError);
  EXPECT_THROW(parse_cli({"--demand", "users=5", "--sweep-sunshine", "0.5"}),
               util::PreconditionError);
  EXPECT_THROW(parse_cli({"--shards", "2", "--report", "r.md"}),
               util::PreconditionError);
  // One shard renders a single cluster; --report stays available.
  EXPECT_NO_THROW(parse_cli({"--shards", "1", "--report", "r.md"}));
  EXPECT_THROW(parse_cli({"--demand", "users=5", "--demand", "users=6"}),
               util::PreconditionError);
}

TEST(Cli, UsageDocumentsDatacenterFlags) {
  const std::string usage = cli_usage();
  EXPECT_NE(usage.find("--shards"), std::string::npos);
  EXPECT_NE(usage.find("--shard-workers"), std::string::npos);
  EXPECT_NE(usage.find("--demand"), std::string::npos);
}

TEST(Cli, EndToEndShardedRunMatchesRepeatRun) {
  // The datacenter path through run_cli is deterministic end to end.
  CliOptions o;
  o.days = 2;
  o.nodes = 2;
  o.shards = 2;
  o.seed = 5;
  o.blackbox = false;
  o.demand = workload::parse_demand_spec("users=1000000");
  o.csv_path = testing::TempDir() + "dc_cli_a.csv";
  ASSERT_EQ(run_cli(o), 0);
  CliOptions o2 = o;
  o2.shard_workers = 3;
  o2.csv_path = testing::TempDir() + "dc_cli_b.csv";
  ASSERT_EQ(run_cli(o2), 0);
  std::ifstream a{o.csv_path}, b{o2.csv_path};
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_NE(sa.str().find("day,weather"), std::string::npos);
  std::remove(o.csv_path.c_str());
  std::remove(o2.csv_path.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Cli, ReportCarriesShardCountersAndExportsThemOnce) {
  // Regression: with --shards 1 the report was written before the shard
  // registries were merged into the caller's, so it lost every counter and
  // hot-path profile row the plain run shows. Every single run now takes
  // that path; the merge happens once, before the report and the export.
  for (const std::size_t shards : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    CliOptions o;
    o.days = 4;
    o.nodes = 3;
    o.seed = 7;
    o.shards = shards;
    o.blackbox = false;
    o.report_path = testing::TempDir() + "cli_report_counters.md";
    o.metrics_path = testing::TempDir() + "cli_report_counters.json";
    ASSERT_EQ(run_cli(o), 0);
    const std::string report = slurp(o.report_path);
    for (const char* row : {"| `policy.control_ticks` |", "| `router.ticks` |",
                            "| `sim.jobs_deployed` |", "| `sim.days_run` | 4 |",
                            "| `profile.battery_step_ns` |",
                            "| `profile.cluster_run_day_ns` |",
                            "| `profile.router_route_ns` |"}) {
      EXPECT_NE(report.find(row), std::string::npos) << row << "\n" << report;
    }
    // Combining --report with --metrics-out must not fold the shard
    // registries in twice.
    EXPECT_NE(slurp(o.metrics_path).find("\"sim.days_run\": 4,"), std::string::npos);
    std::remove(o.report_path.c_str());
    std::remove(o.metrics_path.c_str());
  }
}

}  // namespace
}  // namespace baat::sim
