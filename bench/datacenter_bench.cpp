// Perf harness for the sharded datacenter pipeline (DESIGN.md §5h).
//
// Where kernel_bench times the inner tick kernel in isolation, this bench
// times the full day pipeline — router, policy, telemetry, watchdog, fault
// layer, demand scheduling and the shard merge — at datacenter scale, up
// to the 100k-cell / 16-shard flagship config. The unit of work is the
// node-tick (one server-battery node advanced one dt), so ns/node-tick is
// directly comparable across shard counts: a perfect sharding layer adds
// zero ns/node-tick over the single-cluster pipeline.
//
// Rows:
//   dc_ref_6250        1 shard  x 6250 nodes — the unsharded reference the
//                      sharding-tax gate rule divides against
//   dc_100k_16shard   16 shards x 6250 nodes = 100,000 cells, the paper's
//                      green-datacenter scale, with a diurnal demand model
//   dc_8x250_w{1,2,4}  worker-scaling triplet (same work, more threads) —
//                      on a multi-core host these document near-linear
//                      scaling; single-core CI reports them without gating
//   li_48_faulted      1 shard x 48 li_nmc nodes, built by scenario_from_cli
//                      from the flags the perfbench sweep_li_faulted
//                      workload passes for one point (guard on, its fault
//                      plan): the only row on the Li path, whose telemetry
//                      stage runs the Newton-solved NmcCubic inversion
//
// Every other row is lead-acid under --math simd.
// Each row also reports sim-days/hour and the projected wall-clock for one
// simulated year, which is how the flagship config's "a year of 100k cells
// is an overnight run, not a cluster job" claim is tracked (see
// EXPERIMENTS.md).
//
// Methodology matches kernel_bench: only Datacenter::run_day is timed (one
// segment per simulated day, min-over-days rejects background noise), the
// JSON carries the same calibration scalar, and tools/perf_gate.py compares
// machine-normalized ns/node-tick under the ns_per_cell_tick key plus a
// within-run sharding-tax rule (dc_100k_16shard vs dc_ref_6250).
//
// Usage: datacenter_bench [--quick] [--out <path>]
//   --quick   tiny configs — the ctest smoke mode. Numbers are noisy;
//             only the committed full run is gate-worthy.
//   --out     JSON output path (default: BENCH_datacenter.json in the cwd).

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "sim/cli.hpp"
#include "sim/datacenter.hpp"
#include "sim/scenario.hpp"
#include "util/logging.hpp"
#include "util/sim_clock.hpp"
#include "workload/demand.hpp"

namespace {

// Allocation counter (see kernel_bench.cpp). The day pipeline legitimately
// allocates — per-day result vectors, trace strings — so the number is
// reported per node-tick for trend-watching rather than gated at zero.
std::size_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace baat;

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Same dependent multiply-add chain as kernel_bench: the machine-speed
/// scalar the perf gate divides by before comparing hosts. Min over five
/// ~10 ms repetitions — contention can only inflate the chain, so the min
/// is the clean measurement (a single shot poisoned by a scheduler hiccup
/// would skew every normalized comparison against this file's baseline).
double calibration_ns() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    volatile double seed = 1.0;
    double x = seed;
    const long kIters = 5'000'000;
    const auto t0 = Clock::now();
    for (long i = 0; i < kIters; ++i) {
      x = x * 0.999999999 + 1e-9;
    }
    const auto t1 = Clock::now();
    volatile double sink = x;
    (void)sink;
    best = std::min(best, elapsed_ns(t0, t1));
  }
  return best;
}

struct BenchResult {
  std::string name;
  std::size_t shards = 0;
  std::size_t nodes = 0;  ///< total across shards
  std::size_t workers = 0;
  long days = 0;
  double ns_per_node_tick = 0.0;
  double sim_days_per_hour = 0.0;
  double year_projection_s = 0.0;  ///< projected wall-clock for 365 days
  double allocs_per_node_tick = 0.0;
  double health_sink = 0.0;  ///< min health after the run — result checksum
};

/// The lead-acid `--math simd` datacenter the dc_* rows time.
sim::DatacenterConfig lead_acid_config(std::size_t shards, std::size_t nodes_per_shard,
                                       std::size_t workers, bool with_demand) {
  sim::DatacenterConfig cfg;
  cfg.scenario = sim::prototype_scenario();
  cfg.scenario.nodes = nodes_per_shard;
  cfg.scenario.policy = core::PolicyKind::Baat;
  cfg.scenario.seed = 42;
  cfg.scenario.bank.math = battery::MathMode::Simd;
  cfg.shards = shards;
  cfg.workers = workers;
  if (with_demand) {
    cfg.demand = workload::parse_demand_spec(
        "users=" + std::to_string(shards * nodes_per_shard * 1000) +
        ",requests=150,peak=14,amplitude=0.6,spread=8");
  }
  return cfg;
}

/// One point of the perfbench sweep_li_faulted workload as one shard: the
/// same scenario flags, minus the sweep's own (points, jobs, days).
sim::DatacenterConfig li_faulted_config(std::size_t nodes) {
  sim::DatacenterConfig cfg;
  cfg.scenario = sim::scenario_from_cli(sim::parse_cli(
      {"--nodes", std::to_string(nodes), "--chemistry", "li_nmc", "--policy", "baat",
       "--faults",
       "sensor_noise:soc:0.03,pv_dropout:day=2:hours=4,cell_weak:bank=1:capacity=0.8,"
       "probe_stale:p=0.01",
       "--seed", "42"}));
  cfg.workers = 1;
  return cfg;
}

/// Times `days` calls of Datacenter::run_day (alternating weather so the
/// solar and demand paths both stay hot) and reports the per-day minimum —
/// one day is one segment in kernel_bench terms.
BenchResult bench_datacenter(const char* name, const sim::DatacenterConfig& cfg,
                             long warmup_days, long days) {
  util::set_sim_time(0.0);
  sim::Datacenter dc{cfg};

  const double ticks_per_day = 86400.0 / cfg.scenario.dt.value();
  const double node_ticks_per_day =
      static_cast<double>(dc.node_count()) * ticks_per_day;
  auto weather_for = [](long day) {
    return day % 3 == 1 ? solar::DayType::Cloudy : solar::DayType::Sunny;
  };

  for (long d = 0; d < warmup_days; ++d) (void)dc.run_day(weather_for(d));

  const std::size_t allocs0 = g_allocs;
  double best_day_ns = std::numeric_limits<double>::infinity();
  double total_ns = 0.0;
  double min_health = 1.0;
  for (long d = 0; d < days; ++d) {
    const auto t0 = Clock::now();
    const sim::DayResult r = dc.run_day(weather_for(warmup_days + d));
    const auto t1 = Clock::now();
    const double day_ns = elapsed_ns(t0, t1);
    best_day_ns = std::min(best_day_ns, day_ns);
    total_ns += day_ns;
    for (const sim::NodeDayStats& n : r.nodes) min_health = std::min(min_health, n.health);
  }
  const std::size_t allocs = g_allocs - allocs0;
  util::set_sim_time(-1.0);

  BenchResult r;
  r.name = name;
  r.shards = cfg.shards;
  r.nodes = dc.node_count();
  r.workers = cfg.workers;
  r.days = days;
  r.ns_per_node_tick = best_day_ns / node_ticks_per_day;
  r.sim_days_per_hour = 3600.0e9 / best_day_ns;
  r.year_projection_s = 365.0 * best_day_ns / 1e9;
  r.allocs_per_node_tick =
      static_cast<double>(allocs) /
      (node_ticks_per_day * static_cast<double>(days));
  r.health_sink = min_health;
  return r;
}

void write_json(const std::string& path, double calib,
                const std::vector<BenchResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "datacenter_bench: cannot open %s for writing\n",
                 path.c_str());
    std::exit(1);
  }
  char buf[320];
  out << "{\n";
  std::snprintf(buf, sizeof buf, "  \"calibration_ns\": %.0f,\n", calib);
  out << buf;
  // Host stamp: worker-scaling rows are only comparable on equal core counts.
  std::snprintf(buf, sizeof buf, "  \"hardware_concurrency\": %u,\n",
                std::thread::hardware_concurrency());
  out << buf;
  out << "  \"benches\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    // ns_per_cell_tick / allocs_per_tick are the key names tools/perf_gate.py
    // compares on; here they carry ns (and allocs) per node-tick.
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"shards\": %zu, \"nodes\": %zu, "
                  "\"workers\": %zu, \"days\": %ld, "
                  "\"ns_per_cell_tick\": %.3f, \"sim_days_per_hour\": %.1f, "
                  "\"year_projection_s\": %.1f, \"allocs_per_tick\": %.4f}%s\n",
                  r.name.c_str(), r.shards, r.nodes, r.workers, r.days,
                  r.ns_per_node_tick, r.sim_days_per_hour, r.year_projection_s,
                  r.allocs_per_node_tick, i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_datacenter.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: datacenter_bench [--quick] [--out <path>]\n");
      return 2;
    }
  }

  // Large fleets under demand brown out nodes by design; the per-node WARN
  // replay would swamp stderr (and perturb the timing) at 100k nodes.
  util::set_log_sink([](util::LogLevel, const std::string&) {});

  const double calib = calibration_ns();
  std::vector<BenchResult> results;

  if (quick) {
    // Smoke scale: same code paths (sharding, demand, worker pool), tiny
    // fleets — finishes in seconds so it can ride in the ctest perf label.
    // Distinct names keep these rows out of the baseline comparison.
    results.push_back(bench_datacenter("dc_smoke_1x48", lead_acid_config(1, 48, 1, true), 1, 2));
    results.push_back(bench_datacenter("dc_smoke_4x48", lead_acid_config(4, 48, 1, true), 1, 2));
    results.push_back(bench_datacenter("dc_smoke_w2", lead_acid_config(4, 12, 2, false), 0, 2));
    results.push_back(bench_datacenter("dc_smoke_w4", lead_acid_config(4, 12, 4, false), 0, 2));
    results.push_back(bench_datacenter("li_smoke_8", li_faulted_config(8), 1, 2));
  } else {
    // The unsharded reference and the 100k-cell flagship run the same
    // per-shard node count AND the same per-shard demand (users scale with
    // total nodes, split evenly across shards), so the within-run sharding
    // tax is an apples-to-apples ratio of ns/node-tick.
    results.push_back(bench_datacenter("dc_ref_6250", lead_acid_config(1, 6250, 1, true), 1, 3));
    results.push_back(
        bench_datacenter("dc_100k_16shard", lead_acid_config(16, 6250, 1, true), 0, 3));
    results.push_back(bench_datacenter("dc_8x250_w1", lead_acid_config(8, 250, 1, false), 1, 4));
    results.push_back(bench_datacenter("dc_8x250_w2", lead_acid_config(8, 250, 2, false), 1, 4));
    results.push_back(bench_datacenter("dc_8x250_w4", lead_acid_config(8, 250, 4, false), 1, 4));
    results.push_back(bench_datacenter("li_48_faulted", li_faulted_config(48), 2, 40));
  }

  std::printf("calibration_ns: %.0f%s\n", calib, quick ? "  (quick mode)" : "");
  for (const BenchResult& r : results) {
    std::printf(
        "%-16s shards=%-3zu nodes=%-7zu workers=%zu  ns/node-tick=%8.2f  "
        "sim-days/h=%8.1f  year=%7.0fs  allocs/node-tick=%.4f  (min health %.6f)\n",
        r.name.c_str(), r.shards, r.nodes, r.workers, r.ns_per_node_tick,
        r.sim_days_per_hour, r.year_projection_s, r.allocs_per_node_tick,
        r.health_sink);
  }

  write_json(out_path, calib, results);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
