// Golden-file regression tests: two canonical scenarios rendered to a
// deterministic document (markdown report + full-precision per-day rows)
// and compared byte-for-byte against tests/golden/*.golden.
//
// Updating the goldens after an INTENDED behavior change:
//
//   BAAT_UPDATE_GOLDEN=1 ./build/tests/golden_test
//
// then review the diff of tests/golden/ like any other code change. The
// goldens deliberately exclude the obs registry (counters accumulate across
// tests in this binary) and the wall-clock profile histograms — everything
// in them is a pure function of (scenario, seed).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "battery/bank.hpp"
#include "fault/fault.hpp"
#include "sim/cluster.hpp"
#include "sim/datacenter.hpp"
#include "sim/multiday.hpp"
#include "sim/report.hpp"
#include "util/csv.hpp"
#include "util/sim_clock.hpp"
#include "workload/demand.hpp"

#include <filesystem>

#ifndef BAAT_GOLDEN_DIR
#error "BAAT_GOLDEN_DIR must point at tests/golden"
#endif

namespace baat {
namespace {

std::string render_scenario(const sim::ScenarioConfig& cfg,
                            const std::vector<solar::DayType>& weather,
                            const std::string& title) {
  sim::Cluster cluster{cfg};
  sim::MultiDayOptions opt;
  opt.days = weather.size();
  opt.weather = weather;
  opt.probe_every_days = 2;
  const sim::MultiDayResult result = sim::run_multi_day(cluster, opt);

  std::ostringstream out;
  sim::ReportInputs inputs;
  inputs.title = title;
  inputs.config = &cfg;
  inputs.result = &result;
  inputs.cluster = &cluster;
  sim::write_report(out, inputs);

  // Full-precision per-day rows — the markdown tables round for humans;
  // these rows are the bytes that catch a 1-ulp behavior drift.
  out << "## Per-day values (full precision)\n\n";
  out << "day,weather,work,worst_ah,low_soc_h,downtime_h,migrations,dvfs\n";
  for (std::size_t d = 0; d < result.days.size(); ++d) {
    const sim::DayResult& day = result.days[d];
    out << d << "," << solar::day_type_name(day.day_type) << ","
        << util::CsvWriter::cell(day.throughput_work) << ","
        << util::CsvWriter::cell(day.nodes[day.worst_node()].ah_discharged.value())
        << "," << util::CsvWriter::cell(day.worst_low_soc_time().value() / 3600.0)
        << "," << util::CsvWriter::cell(day.total_downtime().value() / 3600.0) << ","
        << day.migrations << "," << day.dvfs_transitions << "\n";
  }
  out << "\n## Final fleet state (full precision)\n\n";
  out << "node,soc,health\n";
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    out << i << "," << util::CsvWriter::cell(cluster.batteries()[i].soc()) << ","
        << util::CsvWriter::cell(cluster.batteries()[i].health()) << "\n";
  }
  return out.str();
}

void compare_against_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(BAAT_GOLDEN_DIR) + "/" + name + ".golden";
  if (std::getenv("BAAT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path, std::ios::binary};
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path << " — review the diff";
  }
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — generate with BAAT_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "output drifted from " << path
      << "\nIf the change is intended, refresh with BAAT_UPDATE_GOLDEN=1 "
         "./golden_test and review the golden diff.";
}

// Canonical scenario 1: a clean sunny week on the prototype config.
TEST(Golden, SunnyCleanWeek) {
  sim::ScenarioConfig cfg = sim::prototype_scenario();
  cfg.nodes = 3;
  cfg.policy = core::PolicyKind::Baat;
  cfg.seed = 7;
  const std::vector<solar::DayType> weather(4, solar::DayType::Sunny);
  compare_against_golden(
      "sunny_clean", render_scenario(cfg, weather, "Golden: clean sunny week"));
}

// Canonical scenario 2: cloudy weather under a representative fault plan —
// locks down the fault layer's end-to-end behavior, not just the clean path.
TEST(Golden, CloudyFaulted) {
  sim::ScenarioConfig cfg = sim::prototype_scenario();
  cfg.nodes = 3;
  cfg.policy = core::PolicyKind::Baat;
  cfg.seed = 11;
  cfg.faults = fault::parse_fault_plan(
      "sensor_noise:soc:0.03,pv_dropout:day=1:hours=3,cell_weak:bank=2:capacity=0.8,"
      "meter_glitch:p=0.02,probe_stale:p=0.5");
  cfg.guard.enabled = true;
  const std::vector<solar::DayType> weather{
      solar::DayType::Cloudy, solar::DayType::Rainy, solar::DayType::Cloudy,
      solar::DayType::Sunny};
  compare_against_golden(
      "cloudy_faulted", render_scenario(cfg, weather, "Golden: faulted cloudy run"));
}

// Canonical scenario 3: the LFP chemistry preset under mixed weather — locks
// the Li backend's end-to-end bytes (flat-OCV SoC estimation, rainflow cycle
// aging, calendar fade) the way sunny_clean locks lead-acid's. The metrics
// rebase below mirrors scenario_from_cli's `--chemistry li_lfp` handling.
TEST(Golden, LfpMixedWeek) {
  sim::ScenarioConfig cfg = sim::prototype_scenario();
  cfg.nodes = 3;
  cfg.policy = core::PolicyKind::Baat;
  cfg.seed = 7;
  battery::apply_chemistry_preset(cfg.bank, battery::Chemistry::LiLfp);
  cfg.metrics.nameplate = cfg.bank.chemistry.capacity_c20;
  cfg.metrics.lifetime_throughput = util::ampere_hours(
      cfg.bank.chemistry.capacity_c20.value() * cfg.bank.cycle_curve.cycles_at_full);
  cfg.policy_params.planned.total_throughput = cfg.metrics.lifetime_throughput;
  cfg.policy_params.planned.nameplate = cfg.metrics.nameplate;
  const std::vector<solar::DayType> weather{
      solar::DayType::Sunny, solar::DayType::Cloudy, solar::DayType::Sunny,
      solar::DayType::Rainy};
  compare_against_golden(
      "lfp_mixed", render_scenario(cfg, weather, "Golden: LFP mixed week"));
}

// Canonical NMC scenario: the li_nmc preset under the perf sweep's fault plan
// with the guard on — locks the NmcCubic voltage inversion (the only curve that
// runs a Newton solve) end-to-end, together with a weak bank, sensor noise
// on the SoC channel, a PV dropout and stale probes.
TEST(Golden, NmcFaultedWeek) {
  sim::ScenarioConfig cfg = sim::prototype_scenario();
  cfg.nodes = 4;
  cfg.policy = core::PolicyKind::Baat;
  cfg.seed = 5;
  battery::apply_chemistry_preset(cfg.bank, battery::Chemistry::LiNmc);
  cfg.metrics.nameplate = cfg.bank.chemistry.capacity_c20;
  cfg.metrics.lifetime_throughput = util::ampere_hours(
      cfg.bank.chemistry.capacity_c20.value() * cfg.bank.cycle_curve.cycles_at_full);
  cfg.policy_params.planned.total_throughput = cfg.metrics.lifetime_throughput;
  cfg.policy_params.planned.nameplate = cfg.metrics.nameplate;
  cfg.faults = fault::parse_fault_plan(
      "sensor_noise:soc:0.03,pv_dropout:day=2:hours=4,cell_weak:bank=1:capacity=0.8,"
      "probe_stale:p=0.01");
  cfg.guard.enabled = true;
  const std::vector<solar::DayType> weather{
      solar::DayType::Sunny, solar::DayType::Cloudy, solar::DayType::Rainy,
      solar::DayType::Sunny, solar::DayType::Cloudy, solar::DayType::Sunny,
      solar::DayType::Rainy};
  compare_against_golden(
      "nmc_faulted", render_scenario(cfg, weather, "Golden: NMC faulted week"));
}

// ---------------------------------------------------------------------------
// Sharded datacenter goldens. The markdown report is single-cluster-only,
// so these render the same full-precision rows plus per-shard fleet state —
// every byte a pure function of (config, demand, weather).
// ---------------------------------------------------------------------------

std::string render_datacenter(sim::Datacenter& dc, const sim::MultiDayResult& result,
                              const std::string& title) {
  std::ostringstream out;
  out << "# " << title << "\n\n";
  out << "shards," << dc.shard_count() << "\n";
  out << "nodes_per_shard," << dc.config().scenario.nodes << "\n";
  out << "demand," << dc.config().demand.to_string() << "\n";
  out << "\n## Per-day values (full precision)\n\n";
  out << "day,weather,work,jobs,worst_ah,low_soc_h,downtime_h,migrations,dvfs\n";
  for (std::size_t d = 0; d < result.days.size(); ++d) {
    const sim::DayResult& day = result.days[d];
    out << d << "," << solar::day_type_name(day.day_type) << ","
        << util::CsvWriter::cell(day.throughput_work) << "," << day.jobs_finished << ","
        << util::CsvWriter::cell(day.nodes[day.worst_node()].ah_discharged.value())
        << "," << util::CsvWriter::cell(day.worst_low_soc_time().value() / 3600.0)
        << "," << util::CsvWriter::cell(day.total_downtime().value() / 3600.0) << ","
        << day.migrations << "," << day.dvfs_transitions << "\n";
  }
  out << "\n## Final fleet state (full precision)\n\n";
  out << "shard,node,soc,health\n";
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    const sim::Cluster& shard = dc.shard(s);
    for (std::size_t i = 0; i < shard.node_count(); ++i) {
      out << s << "," << i << ","
          << util::CsvWriter::cell(shard.batteries()[i].soc()) << ","
          << util::CsvWriter::cell(shard.batteries()[i].health()) << "\n";
    }
  }
  return out.str();
}

sim::DatacenterConfig diurnal_datacenter_config() {
  sim::DatacenterConfig cfg;
  cfg.scenario = sim::prototype_scenario();
  cfg.scenario.nodes = 2;
  cfg.scenario.policy = core::PolicyKind::Baat;
  cfg.scenario.seed = 17;
  cfg.shards = 3;
  cfg.workers = 1;
  cfg.demand = workload::parse_demand_spec(
      "users=3000000,requests=150,peak=14,amplitude=0.6,spread=8");
  return cfg;
}

const std::vector<solar::DayType> kDatacenterWeather{
    solar::DayType::Sunny, solar::DayType::Cloudy, solar::DayType::Sunny,
    solar::DayType::Rainy, solar::DayType::Sunny};

// Canonical scenario 3: a 3-shard datacenter under diurnal demand staggered
// across regions — locks down shard keying, demand scheduling and the
// shard-ordered merge end-to-end.
TEST(Golden, ShardedDiurnalDemand) {
  sim::DatacenterConfig cfg = diurnal_datacenter_config();
  util::set_sim_time(0.0);
  sim::Datacenter dc{cfg};
  sim::MultiDayOptions opt;
  opt.days = kDatacenterWeather.size();
  opt.weather = kDatacenterWeather;
  opt.probe_every_days = 2;
  const sim::MultiDayResult result = sim::run_datacenter_multi_day(dc, opt);
  util::set_sim_time(-1.0);
  compare_against_golden(
      "sharded_diurnal",
      render_datacenter(dc, result, "Golden: 3-shard diurnal demand"));
}

// The same scenario interrupted at day 2 and resumed from the sectioned
// checkpoint must land on the exact golden bytes — checkpoint/resume is a
// bit-identical continuation, not an approximation. Compares against the
// SAME golden file as ShardedDiurnalDemand.
TEST(Golden, ShardedDiurnalDemandSurvivesCheckpointResume) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "baat_golden_dc_ckpt";
  fs::create_directories(dir);
  sim::DatacenterConfig cfg = diurnal_datacenter_config();
  cfg.workers = 2;  // resume under a different worker count on purpose

  sim::MultiDayOptions opt;
  opt.days = kDatacenterWeather.size();
  opt.weather = kDatacenterWeather;
  opt.probe_every_days = 2;
  opt.checkpoint.every_days = 2;
  opt.checkpoint.dir = dir.string();

  util::set_sim_time(0.0);
  {
    sim::Datacenter first{cfg};
    (void)sim::run_datacenter_multi_day(first, opt);
  }

  util::set_sim_time(0.0);
  sim::Datacenter resumed{cfg};
  sim::MultiDayOptions ropt = opt;
  ropt.checkpoint.every_days = 0;
  ropt.checkpoint.resume_path = (dir / "checkpoint-day-2.snap").string();
  const sim::MultiDayResult result = sim::run_datacenter_multi_day(resumed, ropt);
  util::set_sim_time(-1.0);
  fs::remove_all(dir);

  // Only days 2..4 re-ran, so splice the resumed tail onto the golden head
  // by re-rendering: per-day rows 0..1 come from the checkpointed result.
  ASSERT_EQ(result.days.size(), kDatacenterWeather.size());
  compare_against_golden(
      "sharded_diurnal",
      render_datacenter(resumed, result, "Golden: 3-shard diurnal demand"));
}

// Canonical scenario 4: a flash crowd slamming every region at once, on top
// of faults — the stress case for demand-driven scheduling under duress.
TEST(Golden, ShardedFlashCrowdFaulted) {
  sim::DatacenterConfig cfg;
  cfg.scenario = sim::prototype_scenario();
  cfg.scenario.nodes = 2;
  cfg.scenario.policy = core::PolicyKind::Baat;
  cfg.scenario.seed = 23;
  cfg.scenario.faults = fault::parse_fault_plan(
      "sensor_noise:soc:0.03,pv_dropout:day=1:hours=3,meter_glitch:p=0.02");
  cfg.scenario.guard.enabled = true;
  cfg.shards = 2;
  cfg.workers = 1;
  cfg.demand = workload::parse_demand_spec(
      "users=2000000,requests=200,peak=13,amplitude=0.5,"
      "flash:day=1:mult=5:hour=12:hours=2");
  util::set_sim_time(0.0);
  sim::Datacenter dc{cfg};
  sim::MultiDayOptions opt;
  opt.days = 3;
  opt.weather = {solar::DayType::Sunny, solar::DayType::Cloudy, solar::DayType::Sunny};
  opt.probe_every_days = 0;
  const sim::MultiDayResult result = sim::run_datacenter_multi_day(dc, opt);
  util::set_sim_time(-1.0);
  compare_against_golden(
      "sharded_flash_crowd",
      render_datacenter(dc, result, "Golden: 2-shard flash crowd under faults"));
}

}  // namespace
}  // namespace baat
