#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "sim/multiday.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/logging.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {
namespace {

TEST(SweepMap, SlotsResultsByIndexAtAnyWorkerCount) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    SweepOptions opts;
    opts.jobs = workers;
    const std::vector<std::size_t> out =
        sweep_map(16, [](std::size_t i) { return i * i; }, opts);
    ASSERT_EQ(out.size(), 16u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(Sweep, CapturesJobExceptionsPerResult) {
  std::vector<SweepJob> jobs;
  jobs.push_back({"ok-job", [] {}});
  jobs.push_back({"bad-job", [] {
                    throw util::PreconditionError("deliberate failure");
                  }});
  jobs.push_back({"late-job", [] {}});
  SweepOptions opts;
  opts.jobs = 2;
  const std::vector<SweepResult> results = run_sweep(std::move(jobs), opts);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("deliberate failure"), std::string::npos);
  EXPECT_EQ(results[1].name, "bad-job");
  EXPECT_TRUE(results[2].ok);
}

TEST(SweepMap, RethrowsJobFailureAfterJoin) {
  EXPECT_THROW(sweep_map(4,
                         [](std::size_t i) {
                           if (i == 2) {
                             throw util::PreconditionError("boom");
                           }
                           return i;
                         }),
               util::PreconditionError);
}

TEST(Sweep, RejectsEmptyWork) {
  std::vector<SweepJob> jobs;
  jobs.push_back({"no-op", {}});
  EXPECT_THROW(run_sweep(std::move(jobs)), util::PreconditionError);
}

TEST(Sweep, GaugeAndCounterMergeInJobIndexOrder) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    obs::Registry& reg = obs::global_registry();
    reg.reset();
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < 6; ++i) {
      jobs.push_back({"job-" + std::to_string(i), [i] {
                        obs::global_registry().counter("sweep.test.hits").inc();
                        obs::global_registry()
                            .gauge("sweep.test.last_index")
                            .set(static_cast<double>(i));
                      }});
    }
    SweepOptions opts;
    opts.jobs = workers;
    run_sweep(std::move(jobs), opts);
    // Counters accumulate across jobs; gauges take the highest-index job's
    // value regardless of which worker finished last.
    EXPECT_DOUBLE_EQ(reg.counter("sweep.test.hits").value(), 6.0);
    EXPECT_DOUBLE_EQ(reg.gauge("sweep.test.last_index").value(), 5.0);
    reg.reset();
  }
}

TEST(Sweep, MergeObsOffLeavesCallerRegistryUntouched) {
  obs::Registry& reg = obs::global_registry();
  reg.reset();
  std::vector<SweepJob> jobs;
  jobs.push_back({"isolated", [] {
                    obs::global_registry().counter("sweep.test.private").inc(7.0);
                  }});
  SweepOptions opts;
  opts.merge_obs = false;
  const std::vector<SweepResult> results = run_sweep(std::move(jobs), opts);
  EXPECT_DOUBLE_EQ(reg.counter("sweep.test.private").value(), 0.0);
  // The job's own registry still carries the value for the caller to read.
  auto it = results[0].metrics.counters().find("sweep.test.private");
  ASSERT_NE(it, results[0].metrics.counters().end());
  EXPECT_DOUBLE_EQ(it->second.value(), 7.0);
  reg.reset();
}

TEST(Sweep, LogLinesReplayInJobIndexOrder) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    util::CaptureLog capture;
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < 8; ++i) {
      jobs.push_back({"job-" + std::to_string(i), [i] {
                        util::log_warn() << "sweep line " << i;
                      }});
    }
    SweepOptions opts;
    opts.jobs = workers;
    run_sweep(std::move(jobs), opts);
    ASSERT_EQ(capture.lines().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_NE(capture.lines()[i].find("sweep line " + std::to_string(i)),
                std::string::npos)
          << "workers=" << workers << " line " << i << ": " << capture.lines()[i];
    }
  }
}

TEST(Sweep, CallerSimClockSurvivesJobs) {
  util::set_sim_time(1234.0);
  sweep_map(4, [](std::size_t i) {
    util::set_sim_time(static_cast<double>(i) * 1000.0);
    return i;
  });
  EXPECT_DOUBLE_EQ(util::sim_time(), 1234.0);
  util::set_sim_time(-1.0);
}

TEST(DefaultSweepJobs, ReadsEnvOverride) {
  ::setenv("BAAT_JOBS", "3", 1);
  EXPECT_EQ(default_sweep_jobs(), 3u);
  ::setenv("BAAT_JOBS", "not-a-number", 1);
  EXPECT_GE(default_sweep_jobs(), 1u);
  ::unsetenv("BAAT_JOBS");
  EXPECT_GE(default_sweep_jobs(), 1u);
}

// The tentpole guarantee: a grid of real simulations produces byte-identical
// merged metrics and trace exports whether it runs on one worker or eight.
TEST(Sweep, SimulationExportsByteIdenticalAcrossWorkerCounts) {
  const std::vector<double> fractions{0.2, 0.5, 0.8};
  auto run_grid = [&](std::size_t workers) {
    obs::Registry& reg = obs::global_registry();
    obs::TraceBuffer& trace = obs::global_trace();
    reg.reset();
    trace.clear();
    obs::set_profiling_enabled(false);  // wall-clock timers are the documented
                                        // exception to determinism
    obs::set_trace_enabled(true);
    SweepOptions opts;
    opts.jobs = workers;
    const std::vector<double> healths = sweep_map(
        fractions.size(),
        [&](std::size_t i) {
          ScenarioConfig cfg = prototype_scenario();
          cfg.nodes = 3;
          cfg.seed = 2026;
          Cluster cluster{cfg};
          MultiDayOptions md;
          md.days = 2;
          md.sunshine_fraction = fractions[i];
          md.probe_every_days = 0;
          md.keep_days = false;
          return run_multi_day(cluster, md).min_health_end;
        },
        opts);
    obs::set_trace_enabled(false);
    std::ostringstream trace_out;
    trace.write_jsonl(trace_out);
    struct Snapshot {
      std::vector<double> healths;
      std::string metrics_json;
      std::string metrics_csv;
      std::string trace_jsonl;
    };
    Snapshot snap{healths, reg.json(), reg.csv(), trace_out.str()};
    reg.reset();
    trace.clear();
    util::set_sim_time(-1.0);
    return snap;
  };

  const auto serial = run_grid(1);
  const auto parallel = run_grid(8);
  ASSERT_EQ(serial.healths.size(), parallel.healths.size());
  for (std::size_t i = 0; i < serial.healths.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.healths[i], parallel.healths[i]);
  }
  EXPECT_EQ(serial.metrics_json, parallel.metrics_json);
  EXPECT_EQ(serial.metrics_csv, parallel.metrics_csv);
  EXPECT_EQ(serial.trace_jsonl, parallel.trace_jsonl);
  EXPECT_GT(serial.trace_jsonl.size(), 0u);
}

TEST(SweepBlackbox, ConcurrentDayLoopsKeepTheFlightRecorderOn) {
  // Four day loops on four sweep workers, each registering its crash dump
  // hook; two of them trip the watchdog and ship bundles while the others
  // run. Registration must be race-free (the TSan job runs this), and the
  // results must not depend on the worker count.
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "baat_sweep_blackbox";
  const auto run_points = [&root](std::size_t jobs) {
    fs::remove_all(root);
    obs::global_registry().reset();
    std::vector<double> healths(4, 0.0);
    std::vector<SweepJob> list;
    for (std::size_t i = 0; i < 4; ++i) {
      SweepJob job;
      job.name = "point-" + std::to_string(i);
      job.work = [&healths, &root, i] {
        ScenarioConfig cfg = prototype_scenario();
        cfg.nodes = 2;
        cfg.seed = 7;
        if (i % 2 == 1) cfg.faults = fault::parse_fault_plan("nan_poison:bank=1");
        Cluster cluster{cfg};
        MultiDayOptions md;
        md.days = 3;
        md.probe_every_days = 0;
        md.keep_days = false;
        md.blackbox = true;
        md.blackbox_dir = (root / ("point-" + std::to_string(i))).string();
        healths[i] = run_multi_day(cluster, md).min_health_end;
      };
      list.push_back(std::move(job));
    }
    SweepOptions opts;
    opts.jobs = jobs;
    const std::vector<SweepResult> results = run_sweep(std::move(list), opts);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(results[i].ok, i % 2 == 0) << results[i].error;
      EXPECT_EQ(fs::exists(root / ("point-" + std::to_string(i)) / "blackbox-0" /
                           "MANIFEST.json"),
                i % 2 == 1);
    }
    fs::remove_all(root);
    util::set_sim_time(-1.0);
    return healths;
  };
  const std::vector<double> serial = run_points(1);
  EXPECT_EQ(serial, run_points(4));
  EXPECT_GT(serial[0], 0.0);
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    WorkerPool pool{workers};
    std::vector<std::atomic<int>> hits(100);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at " << workers << " workers";
    }
  }
}

TEST(WorkerPool, SingleWorkerRunsInlineWithoutThreads) {
  WorkerPool pool{1};
  EXPECT_EQ(pool.workers(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.run(1, [&](std::size_t) { seen = std::this_thread::get_id(); });
  // Inline execution is what keeps thread-local obs sinks trivially correct
  // in the serial case — pin it.
  EXPECT_EQ(seen, caller);
  WorkerPool zero{0};
  EXPECT_EQ(zero.workers(), 1u);
}

TEST(WorkerPool, PoolThreadsNeverRunOnTheCaller) {
  WorkerPool pool{4};
  EXPECT_EQ(pool.workers(), 4u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(32);
  pool.run(seen.size(), [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) EXPECT_NE(id, caller);
}

TEST(WorkerPool, ReusableAcrossManyBatches) {
  WorkerPool pool{3};
  std::atomic<long> sum{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.run(10, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  }
  EXPECT_EQ(sum.load(), 50 * 45);
}

TEST(WorkerPool, HandlesEmptyAndOversubscribedBatches) {
  WorkerPool pool{4};
  pool.run(0, [](std::size_t) { FAIL() << "no index should run"; });
  std::atomic<int> count{0};
  pool.run(1000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
  pool.run(2, [&](std::size_t) { count.fetch_add(1); });  // fewer tasks than lanes
  EXPECT_EQ(count.load(), 1002);
}

}  // namespace
}  // namespace baat::sim
