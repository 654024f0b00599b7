// Crash flight-recorder tests (DESIGN.md §5g): a NaN-poisoned run must abort
// through the watchdog (exit 3) and leave a readable blackbox-<day>/ bundle;
// --no-blackbox keeps the abort but suppresses the bundle.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sim/cli.hpp"
#include "sim/cluster.hpp"
#include "snapshot/sections.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / ("baat_blackbox_" + name)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

void reset_globals() {
  obs::set_profiling_enabled(false);
  obs::set_trace_enabled(false);
  obs::global_registry().reset();
  obs::global_trace().clear();
  util::set_sim_time(-1.0);
}

CliOptions poisoned_run(const ScratchDir& dir) {
  CliOptions o;
  o.days = 3;
  o.nodes = 2;
  o.seed = 7;
  o.faults = fault::parse_fault_plan("nan_poison:bank=1");
  o.blackbox_dir = dir.path().string();
  return o;
}

TEST(Blackbox, NanPoisonedRunAbortsWithExitThreeAndShipsABundle) {
  ScratchDir dir{"poisoned"};
  reset_globals();
  EXPECT_EQ(run_cli(poisoned_run(dir)), 3);

  // The poison fires at day 0's start, so the bundle names day 0.
  const fs::path bundle = dir.path() / "blackbox-0";
  ASSERT_TRUE(fs::is_directory(bundle)) << bundle;
  for (const char* name :
       {"MANIFEST.json", "health.txt", "trace.jsonl", "metrics.json", "ledger.csv"}) {
    EXPECT_TRUE(fs::exists(bundle / name)) << name;
  }
  // cluster.snap is checked by DayStartDeathShipsASectionedClusterSnapshot;
  // a run dying mid-day would ship the bundle without one.

  const std::string manifest = slurp(bundle / "MANIFEST.json");
  EXPECT_NE(manifest.find("\"day\": 0"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("finite_state"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\"health_score\": "), std::string::npos) << manifest;

  const std::string health = slurp(bundle / "health.txt");
  EXPECT_NE(health.find("finite_state"), std::string::npos) << health;
  EXPECT_NE(health.find("value=nan"), std::string::npos) << health;
  EXPECT_NE(health.find("node 1"), std::string::npos) << health;

  // The attribution ledger survives to the bundle with its full header.
  const std::string ledger = slurp(bundle / "ledger.csv");
  EXPECT_EQ(ledger.substr(0, ledger.find(',')), "scope");
  EXPECT_NE(ledger.find("fade_corrosion"), std::string::npos);
  EXPECT_NE(ledger.find("\ntotal,cluster,"), std::string::npos);
  reset_globals();
}

TEST(Blackbox, DayStartDeathShipsASectionedClusterSnapshot) {
  // The poison trips the watchdog at day 0's start, before any VM exists,
  // so the bundle carries the cluster state: a one-section BAATSECT file
  // that restores into a cluster of the same scenario.
  ScratchDir dir{"snapshot"};
  reset_globals();
  const CliOptions o = poisoned_run(dir);
  EXPECT_EQ(run_cli(o), 3);
  snapshot::SectionFileReader in((dir.path() / "blackbox-0" / "cluster.snap").string(), 0);
  EXPECT_NE(in.header().config_hash, 0u);
  ASSERT_EQ(in.header().section_count, 1u);
  const std::vector<std::uint8_t> payload = in.read_section();
  in.finish();
  snapshot::SnapshotReader r{payload};
  Cluster restored{scenario_from_cli(o)};
  restored.load_state(r);
  EXPECT_TRUE(r.exhausted());
  reset_globals();
}

TEST(Blackbox, NoBlackboxStillAbortsButWritesNoBundle) {
  ScratchDir dir{"suppressed"};
  reset_globals();
  CliOptions o = poisoned_run(dir);
  o.blackbox = false;
  EXPECT_EQ(run_cli(o), 3);
  EXPECT_FALSE(fs::exists(dir.path() / "blackbox-0"));
  reset_globals();
}

TEST(Blackbox, CleanRunNeverWritesABundle) {
  ScratchDir dir{"clean"};
  reset_globals();
  CliOptions o;
  o.days = 2;
  o.nodes = 2;
  o.blackbox_dir = dir.path().string();
  EXPECT_EQ(run_cli(o), 0);
  EXPECT_TRUE(fs::is_empty(dir.path()));
  reset_globals();
}

}  // namespace
}  // namespace baat::sim
