// The checkpoint/restore invariant (DESIGN.md §5f): a run checkpointed at
// day N and resumed reproduces the uninterrupted run *bit-identically* —
// result accumulators, cluster state, metric exports and traces — clean or
// faulted, exact or fast math, at any sweep worker count. These tests pin
// that contract at the library level; the CLI-level equivalent (stdout/CSV/
// report byte-compares) rides in CI's snapshot shard.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "obs/obs.hpp"
#include "sim/experiment.hpp"
#include "sim/multiday.hpp"
#include "sim/sweep.hpp"
#include "snapshot/sections.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test checkpoint directory under the system temp root.
class CheckpointDir {
 public:
  explicit CheckpointDir(const std::string& name)
      : path_((fs::temp_directory_path() / ("baat_ckpt_" + name)).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~CheckpointDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string snap(std::size_t day) const {
    return path_ + "/checkpoint-day-" + std::to_string(day) + ".snap";
  }

 private:
  std::string path_;
};

ScenarioConfig small_scenario(bool faulted = false,
                              battery::MathMode math = battery::MathMode::Exact) {
  ScenarioConfig cfg = prototype_scenario();
  cfg.nodes = 3;
  cfg.seed = 20260806;
  if (faulted) {
    cfg.faults = fault::parse_fault_plan(
        "sensor_noise:soc:0.03,pv_dropout:day=1:hours=3,cell_weak:bank=1:capacity=0.85");
    cfg.guard.enabled = true;
  }
  cfg.bank.math = math;
  return cfg;
}

MultiDayOptions day_options(std::size_t days) {
  MultiDayOptions opts;
  opts.days = days;
  opts.sunshine_fraction = 0.5;
  opts.probe_every_days = 3;  // exercise the SoH-probe state across the boundary
  return opts;
}

/// Everything the invariant promises byte-for-byte. Wall-clock profiling
/// histograms are the documented determinism exception, so profiling stays
/// off and the registry/trace comparison is exact.
struct RunSignature {
  std::vector<std::uint8_t> result_bytes;
  std::vector<std::uint8_t> cluster_bytes;
  std::string registry_json;
  std::string trace_jsonl;

  bool operator==(const RunSignature&) const = default;
};

RunSignature run_and_sign(const ScenarioConfig& cfg, const MultiDayOptions& opts) {
  obs::set_profiling_enabled(false);
  obs::set_trace_enabled(true);
  obs::global_registry().reset();
  obs::global_trace().clear();
  // Model the fresh process of a real resume: construction-time trace events
  // (static fault injection) stamp from the sim clock, which would otherwise
  // leak the previous run's end time within this test binary.
  util::set_sim_time(-1.0);

  Cluster cluster{cfg};
  const MultiDayResult result = run_multi_day(cluster, opts);

  RunSignature sig;
  snapshot::SnapshotWriter rw;
  save_state(rw, result);
  sig.result_bytes = rw.bytes();
  snapshot::SnapshotWriter cw;
  cluster.save_state(cw);
  sig.cluster_bytes = cw.bytes();
  sig.registry_json = obs::global_registry().json();
  std::ostringstream trace;
  obs::global_trace().write_jsonl(trace);
  sig.trace_jsonl = trace.str();

  obs::set_trace_enabled(false);
  return sig;
}

void expect_identical(const RunSignature& a, const RunSignature& b) {
  EXPECT_EQ(a.result_bytes, b.result_bytes);
  EXPECT_EQ(a.cluster_bytes, b.cluster_bytes);
  EXPECT_EQ(a.registry_json, b.registry_json);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
}

/// One uninterrupted run vs. checkpoint-at-`every`-days + resume-from-`at`.
void check_resume_identity(const ScenarioConfig& cfg, std::size_t days,
                           std::size_t every, std::size_t at,
                           const std::string& dir_name) {
  CheckpointDir dir{dir_name};
  MultiDayOptions opts = day_options(days);
  const std::uint64_t hash = scenario_fingerprint(cfg, opts);

  const RunSignature uninterrupted = run_and_sign(cfg, opts);

  opts.checkpoint.every_days = every;
  opts.checkpoint.dir = dir.path();
  opts.checkpoint.config_hash = hash;
  run_and_sign(cfg, opts);
  ASSERT_TRUE(fs::exists(dir.snap(at))) << dir.snap(at);

  MultiDayOptions resume_opts = day_options(days);
  resume_opts.checkpoint.resume_path = dir.snap(at);
  resume_opts.checkpoint.config_hash = hash;
  const RunSignature resumed = run_and_sign(cfg, resume_opts);

  expect_identical(uninterrupted, resumed);
}

TEST(CheckpointResume, CleanRunBitIdentical) {
  check_resume_identity(small_scenario(), 8, 3, 6, "clean");
}

TEST(CheckpointResume, FaultedRunBitIdentical) {
  // The fault injector's forked per-node RNG streams and the guard's
  // degraded-mode state all cross the snapshot boundary.
  check_resume_identity(small_scenario(/*faulted=*/true), 8, 4, 4, "faulted");
}

TEST(CheckpointResume, FastMathRunBitIdentical) {
  check_resume_identity(small_scenario(false, battery::MathMode::Fast), 6, 2, 4, "fast");
}

TEST(CheckpointResume, SimdMathRunBitIdentical) {
  // The lane-batched tier shares the fast tier's snapshot story: the math
  // byte round-trips and the block kernel is deterministic, so a resumed
  // run must be bit-identical to the uninterrupted one.
  check_resume_identity(small_scenario(false, battery::MathMode::Simd), 6, 2, 4, "simd");
}

TEST(CheckpointResume, EveryDayBoundaryResumesIdentically) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"every_day"};
  MultiDayOptions opts = day_options(5);
  const RunSignature uninterrupted = run_and_sign(cfg, opts);

  opts.checkpoint.every_days = 1;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  for (std::size_t day = 1; day < 5; ++day) {
    ASSERT_TRUE(fs::exists(dir.snap(day)));
    MultiDayOptions resume_opts = day_options(5);
    resume_opts.checkpoint.resume_path = dir.snap(day);
    const RunSignature resumed = run_and_sign(cfg, resume_opts);
    SCOPED_TRACE("resumed from day " + std::to_string(day));
    expect_identical(uninterrupted, resumed);
  }
}

TEST(CheckpointResume, FinalDayWritesNoPointlessSnapshot) {
  // A checkpoint after the last day would never be resumed; the loop skips it.
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"final_day"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);
  EXPECT_TRUE(fs::exists(dir.snap(2)));
  EXPECT_FALSE(fs::exists(dir.snap(4)));
}

TEST(ScenarioFingerprint, SensitiveToEveryTrajectoryKnob) {
  const ScenarioConfig cfg = small_scenario();
  const MultiDayOptions opts = day_options(6);
  const std::uint64_t base = scenario_fingerprint(cfg, opts);
  EXPECT_EQ(base, scenario_fingerprint(small_scenario(), day_options(6)));
  EXPECT_NE(base, 0u);  // 0 means "unchecked" and must never be produced

  ScenarioConfig seed = cfg;
  seed.seed = cfg.seed + 1;
  EXPECT_NE(base, scenario_fingerprint(seed, opts));

  ScenarioConfig nodes = cfg;
  nodes.nodes = cfg.nodes + 1;
  EXPECT_NE(base, scenario_fingerprint(nodes, opts));

  EXPECT_NE(base, scenario_fingerprint(small_scenario(true), opts));
  EXPECT_NE(base,
            scenario_fingerprint(small_scenario(false, battery::MathMode::Fast), opts));
  EXPECT_NE(base,
            scenario_fingerprint(small_scenario(false, battery::MathMode::Simd), opts));
  EXPECT_NE(base, scenario_fingerprint(cfg, day_options(7)));

  MultiDayOptions sunshine = day_options(6);
  sunshine.sunshine_fraction = 0.75;
  EXPECT_NE(base, scenario_fingerprint(cfg, sunshine));
}

TEST(CheckpointResume, MismatchedConfigHashRefused) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"hash_mismatch"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  opts.checkpoint.config_hash = scenario_fingerprint(cfg, opts);
  run_and_sign(cfg, opts);

  MultiDayOptions resume_opts = day_options(4);
  resume_opts.checkpoint.resume_path = dir.snap(2);
  resume_opts.checkpoint.config_hash = opts.checkpoint.config_hash ^ 0x1;
  Cluster cluster{cfg};
  EXPECT_THROW(run_multi_day(cluster, resume_opts), snapshot::SnapshotError);
}

TEST(CheckpointResume, SnapshotPastTheRunEndRefused) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"past_end"};
  MultiDayOptions opts = day_options(6);
  opts.checkpoint.every_days = 4;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  MultiDayOptions resume_opts = day_options(3);  // shorter than the saved day 4
  resume_opts.checkpoint.resume_path = dir.snap(4);
  Cluster cluster{cfg};
  try {
    run_multi_day(cluster, resume_opts);
    FAIL() << "resuming past the end of the run must be refused";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("nothing left to resume"), std::string::npos);
  }
}

TEST(CheckpointResume, DifferentWeatherSequenceRefused) {
  // With config_hash checking disabled (0), the weather cross-check is the
  // backstop against resuming into a divergent trajectory.
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"weather"};
  MultiDayOptions opts = day_options(6);
  opts.weather = mixed_weather(6, 2, 1, 1);
  opts.checkpoint.every_days = 3;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  MultiDayOptions resume_opts = day_options(6);
  resume_opts.weather = mixed_weather(6, 1, 1, 2);
  resume_opts.checkpoint.resume_path = dir.snap(3);
  Cluster cluster{cfg};
  try {
    run_multi_day(cluster, resume_opts);
    FAIL() << "a different weather sequence must be refused";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("weather"), std::string::npos);
  }
}

TEST(CheckpointResume, TrailingBytesInPayloadRefused) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"trailing"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  std::vector<std::vector<std::uint8_t>> sections;
  {
    snapshot::SectionFileReader in(dir.snap(2), 0);
    ASSERT_EQ(in.header().section_count, 2u);
    for (int i = 0; i < 2; ++i) sections.push_back(in.read_section());
    in.finish();
  }
  // Re-commit the snapshot with one garbage byte appended to the loop
  // section, then to the shard section. The container (size + CRC) is
  // self-consistent, so only the state loaders' exhaustion checks can
  // catch it.
  for (std::size_t tampered = 0; tampered < sections.size(); ++tampered) {
    SCOPED_TRACE("tampered section " + std::to_string(tampered));
    {
      snapshot::SectionFileWriter out(dir.snap(2), 0, sections.size());
      for (std::size_t i = 0; i < sections.size(); ++i) {
        std::vector<std::uint8_t> payload = sections[i];
        if (i == tampered) payload.push_back(0xEE);
        out.append(payload);
      }
      out.commit();
    }
    MultiDayOptions resume_opts = day_options(4);
    resume_opts.checkpoint.resume_path = dir.snap(2);
    Cluster cluster{cfg};
    try {
      run_multi_day(cluster, resume_opts);
      FAIL() << "trailing payload bytes must be refused";
    } catch (const snapshot::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos) << e.what();
    }
  }
}

TEST(CheckpointResume, OneShardCheckpointHoldsEachStateOnce) {
  // A single-cluster checkpoint is a two-section file: the loop state
  // (which carries the caller's registry and trace ring) and one shard
  // section holding exactly the solar-day stream and the cluster — no
  // second registry.
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"layout"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  snapshot::SectionFileReader in(dir.snap(2), 0);
  ASSERT_EQ(in.header().section_count, 2u);
  (void)in.read_section();
  const std::vector<std::uint8_t> shard = in.read_section();
  in.finish();
  snapshot::SnapshotReader r{shard};
  util::Rng solar = util::Rng::stream(cfg.seed, "solar-days");
  solar.load_state(r);
  Cluster restored{cfg};
  restored.load_state(r);
  EXPECT_TRUE(r.exhausted()) << r.remaining() << " bytes past the cluster state";
  EXPECT_EQ(restored.days_run(), 2);
}

TEST(CheckpointResume, RetiredFlatSnapshotRefusedByName) {
  CheckpointDir dir{"retired"};
  const std::string path = dir.snap(2);
  {
    std::ofstream out{path, std::ios::binary};
    out << "BAATSNAP" << std::string(56, '\0');
  }
  MultiDayOptions resume_opts = day_options(4);
  resume_opts.checkpoint.resume_path = path;
  Cluster cluster{small_scenario()};
  try {
    run_multi_day(cluster, resume_opts);
    FAIL() << "a BAATSNAP checkpoint must be refused";
  } catch (const snapshot::SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("BAATSNAP"), std::string::npos) << msg;
  }
}

TEST(CheckpointResume, TruncatedSnapshotRefusedThroughTheRunPath) {
  const ScenarioConfig cfg = small_scenario();
  CheckpointDir dir{"truncated"};
  MultiDayOptions opts = day_options(4);
  opts.checkpoint.every_days = 2;
  opts.checkpoint.dir = dir.path();
  run_and_sign(cfg, opts);

  const auto full_size = fs::file_size(dir.snap(2));
  fs::resize_file(dir.snap(2), full_size / 2);

  MultiDayOptions resume_opts = day_options(4);
  resume_opts.checkpoint.resume_path = dir.snap(2);
  Cluster cluster{cfg};
  EXPECT_THROW(run_multi_day(cluster, resume_opts), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Sweep-level checkpointing: an interrupted sweep resumes only its
// unfinished jobs.

/// A sweep job computing a deterministic value, with save/restore wired and
/// an execution counter so tests can prove work() did or did not run.
SweepJob value_job(const std::string& name, double input, double* out,
                   std::atomic<int>* runs) {
  SweepJob job;
  job.name = name;
  job.work = [input, out, runs] {
    runs->fetch_add(1);
    *out = input * input + 1.0;
  };
  job.save_result = [out](snapshot::SnapshotWriter& w) { w.write_f64(*out); };
  job.restore_result = [out](snapshot::SnapshotReader& r) { *out = r.read_f64(); };
  return job;
}

TEST(SweepCheckpoint, FinishedJobsAreSkippedOnRerun) {
  CheckpointDir dir{"sweep_skip"};
  SweepOptions opts;
  opts.jobs = 2;
  opts.checkpoint_dir = dir.path();
  opts.config_hash = 0xFEED;

  std::vector<double> values(3, 0.0);
  std::atomic<int> runs{0};
  std::vector<SweepJob> jobs;
  for (std::size_t i = 0; i < 3; ++i) {
    jobs.push_back(value_job("point-" + std::to_string(i),
                             static_cast<double>(i + 1), &values[i], &runs));
  }
  const auto first = run_sweep(std::move(jobs), opts);
  EXPECT_EQ(runs.load(), 3);
  const std::vector<double> first_values = values;
  for (const auto& r : first) {
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.resumed);
    EXPECT_TRUE(fs::exists(dir.path() + "/" + r.name + ".ckpt"));
  }

  // Second pass: every point restores, no work() runs, values identical.
  std::fill(values.begin(), values.end(), 0.0);
  std::vector<SweepJob> again;
  for (std::size_t i = 0; i < 3; ++i) {
    again.push_back(value_job("point-" + std::to_string(i),
                              static_cast<double>(i + 1), &values[i], &runs));
  }
  const auto second = run_sweep(std::move(again), opts);
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(values, first_values);
  for (const auto& r : second) {
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.resumed);
  }
}

TEST(SweepCheckpoint, InterruptedSweepResumesOnlyUnfinishedJobs) {
  CheckpointDir dir{"sweep_partial"};
  SweepOptions opts;
  opts.jobs = 1;
  opts.checkpoint_dir = dir.path();

  // "Interruption": only the first two of four points completed.
  std::vector<double> values(4, 0.0);
  std::atomic<int> runs{0};
  std::vector<SweepJob> partial;
  for (std::size_t i = 0; i < 2; ++i) {
    partial.push_back(value_job("point-" + std::to_string(i),
                                static_cast<double>(i + 1), &values[i], &runs));
  }
  run_sweep(std::move(partial), opts);
  EXPECT_EQ(runs.load(), 2);

  // The re-run of the full sweep recomputes exactly the missing half.
  opts.jobs = 4;
  std::vector<SweepJob> full;
  for (std::size_t i = 0; i < 4; ++i) {
    full.push_back(value_job("point-" + std::to_string(i),
                             static_cast<double>(i + 1), &values[i], &runs));
  }
  const auto results = run_sweep(std::move(full), opts);
  EXPECT_EQ(runs.load(), 4);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].resumed);
  EXPECT_TRUE(results[1].resumed);
  EXPECT_FALSE(results[2].resumed);
  EXPECT_FALSE(results[3].resumed);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(values[i], static_cast<double>((i + 1) * (i + 1)) + 1.0);
  }
}

TEST(SweepCheckpoint, CorruptCheckpointDowngradesToRerun) {
  CheckpointDir dir{"sweep_corrupt"};
  SweepOptions opts;
  opts.jobs = 1;
  opts.checkpoint_dir = dir.path();

  double value = 0.0;
  std::atomic<int> runs{0};
  run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 1);

  // Truncate the committed checkpoint; the resume attempt must warn, re-run
  // the job, and leave a *valid* file behind.
  const std::string ckpt = dir.path() + "/point-0.ckpt";
  fs::resize_file(ckpt, fs::file_size(ckpt) - 3);
  value = 0.0;
  const auto rerun = run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_TRUE(rerun[0].ok);
  EXPECT_FALSE(rerun[0].resumed);
  EXPECT_DOUBLE_EQ(value, 10.0);

  const auto third = run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 2);  // healed: restores again
  EXPECT_TRUE(third[0].resumed);
}

TEST(SweepCheckpoint, RetiredFlatPointFileRerunsAndHeals) {
  CheckpointDir dir{"sweep_retired"};
  SweepOptions opts;
  opts.jobs = 1;
  opts.checkpoint_dir = dir.path();
  {
    std::ofstream out{dir.path() + "/point-0.ckpt", std::ios::binary};
    out << "BAATSNAP" << std::string(72, '\0');
  }
  double value = 0.0;
  std::atomic<int> runs{0};
  const auto rerun = run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_TRUE(rerun[0].ok);
  EXPECT_FALSE(rerun[0].resumed);
  EXPECT_DOUBLE_EQ(value, 10.0);

  value = 0.0;
  const auto healed = run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_TRUE(healed[0].resumed);
  EXPECT_DOUBLE_EQ(value, 10.0);
}

TEST(SweepCheckpoint, FormatV1PointFileRerunsAndHeals) {
  // A point file from a build before the power table dropped its sample
  // ring: a valid container whose header says format version 1.
  CheckpointDir dir{"sweep_v1"};
  SweepOptions opts;
  opts.jobs = 1;
  opts.checkpoint_dir = dir.path();
  double value = 0.0;
  std::atomic<int> runs{0};
  run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  const std::string ckpt = dir.path() + "/point-0.ckpt";
  {
    std::fstream f{ckpt, std::ios::binary | std::ios::in | std::ios::out};
    f.seekp(8);  // u32 version, right after the 8-byte magic
    const char v1[4] = {1, 0, 0, 0};
    f.write(v1, 4);
  }
  value = 0.0;
  const auto rerun = run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_TRUE(rerun[0].ok);
  EXPECT_FALSE(rerun[0].resumed);
  EXPECT_DOUBLE_EQ(value, 10.0);

  value = 0.0;
  const auto healed = run_sweep({value_job("point-0", 3.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_TRUE(healed[0].resumed);
  EXPECT_DOUBLE_EQ(value, 10.0);
}

TEST(SweepCheckpoint, HashMismatchedCheckpointReruns) {
  CheckpointDir dir{"sweep_hash"};
  SweepOptions opts;
  opts.jobs = 1;
  opts.checkpoint_dir = dir.path();
  opts.config_hash = 1;

  double value = 0.0;
  std::atomic<int> runs{0};
  run_sweep({value_job("point-0", 2.0, &value, &runs)}, opts);

  opts.config_hash = 2;  // "different sweep" — stale files must not leak in
  const auto rerun = run_sweep({value_job("point-0", 2.0, &value, &runs)}, opts);
  EXPECT_EQ(runs.load(), 2);
  EXPECT_FALSE(rerun[0].resumed);
}

TEST(SweepCheckpoint, MultiDayPointsResumeIdenticallyAtAnyWorkerCount) {
  // End-to-end: real multi-day points, checkpointed under --jobs 1, resumed
  // under --jobs 4, byte-compared against an uncheckpointed sweep.
  const ScenarioConfig cfg = small_scenario();
  const auto run_point = [&cfg](double sunshine) {
    Cluster cluster{cfg};
    MultiDayOptions opts;
    opts.days = 3;
    opts.sunshine_fraction = sunshine;
    opts.probe_every_days = 0;
    opts.keep_days = false;
    const MultiDayResult r = run_multi_day(cluster, opts);
    snapshot::SnapshotWriter w;
    save_state(w, r);
    return w.bytes();
  };
  const std::vector<double> fractions = {0.3, 0.6, 0.9};

  const auto sweep_bytes = [&](SweepOptions opts,
                               std::vector<bool>* resumed_out) {
    std::vector<std::vector<std::uint8_t>> bytes(fractions.size());
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      SweepJob job;
      job.name = "point-" + std::to_string(i);
      job.work = [&, i] { bytes[i] = run_point(fractions[i]); };
      job.save_result = [&bytes, i](snapshot::SnapshotWriter& w) {
        w.write_u8_vec(bytes[i]);
      };
      job.restore_result = [&bytes, i](snapshot::SnapshotReader& r) {
        bytes[i] = r.read_u8_vec();
      };
      jobs.push_back(std::move(job));
    }
    const auto results = run_sweep(std::move(jobs), opts);
    if (resumed_out != nullptr) {
      resumed_out->clear();
      for (const auto& r : results) resumed_out->push_back(r.resumed);
    }
    return bytes;
  };

  SweepOptions plain;
  plain.jobs = 2;
  const auto reference = sweep_bytes(plain, nullptr);

  CheckpointDir dir{"sweep_multiday"};
  SweepOptions writer;
  writer.jobs = 1;
  writer.checkpoint_dir = dir.path();
  EXPECT_EQ(sweep_bytes(writer, nullptr), reference);

  SweepOptions reader;
  reader.jobs = 4;
  reader.checkpoint_dir = dir.path();
  std::vector<bool> resumed;
  EXPECT_EQ(sweep_bytes(reader, &resumed), reference);
  EXPECT_EQ(resumed, std::vector<bool>(fractions.size(), true));
}

}  // namespace
}  // namespace baat::sim
