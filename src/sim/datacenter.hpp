#pragma once

// Sharded datacenter simulation (DESIGN.md §5h): N self-contained Cluster
// shards — one SoA battery fleet, power router, policy, watchdog and fault
// stream each — stepped in parallel by a persistent WorkerPool and merged
// deterministically at day boundaries. It is also the one multi-day engine:
// run_multi_day drives a single Cluster as a one-shard datacenter.
//
// Determinism contract (the PR 2 discipline, one level up):
//  * each shard permanently owns a private obs::Registry, obs::TraceBuffer
//    and log-line buffer; its Cluster binds metric handles into that
//    registry at construction and every run_day executes under an
//    ObsSinkScope installing those sinks on whichever worker thread picked
//    the shard up;
//  * after the pool joins, traces and log lines are drained into the
//    caller's global sinks in shard-index order and metric registries are
//    merged into an export registry only when asked (merge_metrics_into),
//    so every output byte is independent of the worker count and of which
//    worker ran which shard;
//  * all cross-shard reductions (DayResult merge, series rollup, probe
//    selection) run on the caller thread in shard order over IEEE-exact
//    sums, so a 1-shard datacenter reproduces the unsharded Cluster
//    pipeline byte-for-byte.
// The one exception is the inline shard of Datacenter(Cluster&): it runs on
// the caller's thread under the caller's sinks, with nothing to drain.
//
// Demand model: when DatacenterConfig::demand is non-empty, each shard's
// daily job plan is recomputed every morning from the request-level demand
// model (workload/demand.hpp) — a pure function of (spec, shard, day), so
// schedules survive checkpoint/resume without being serialized.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/multiday.hpp"
#include "sim/sweep.hpp"
#include "snapshot/sections.hpp"
#include "workload/demand.hpp"

namespace baat::sim {

struct DatacenterConfig {
  /// Per-shard scenario. `scenario.shard` must stay 0 — the datacenter
  /// stamps the shard index per clone. `scenario.nodes` is the per-shard
  /// node count; the datacenter totals shards × nodes.
  ScenarioConfig scenario{};
  std::size_t shards = 1;
  /// Worker threads stepping shards; 0 = default_sweep_jobs(), clamped to
  /// the shard count. Never affects any output byte.
  std::size_t workers = 0;
  /// Request-level demand model; empty keeps the scenario's fixed job plan.
  workload::DemandModel demand{};
};

class Datacenter {
 public:
  explicit Datacenter(DatacenterConfig cfg);
  /// A one-shard datacenter over a caller-owned cluster — the classic
  /// single-cluster run. The shard runs inline on the caller's thread under
  /// the caller's obs sinks: no private registry, trace ring or drain step.
  /// `cluster` must outlive the datacenter.
  explicit Datacenter(Cluster& cluster);

  [[nodiscard]] const DatacenterConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t node_count() const {
    return shards_.size() * cfg_.scenario.nodes;
  }
  [[nodiscard]] Cluster& shard(std::size_t i) { return *shards_[i]->cluster; }
  [[nodiscard]] const Cluster& shard(std::size_t i) const { return *shards_[i]->cluster; }
  /// Shard-ordered view for the series writer and other read-only walkers.
  [[nodiscard]] std::vector<const Cluster*> shard_ptrs() const;
  [[nodiscard]] long days_run() const { return day_counter_; }
  /// Shard whose run_day threw most recently (0 when none has) — the
  /// flight-recorder picks this shard's state for the blackbox bundle.
  [[nodiscard]] std::size_t last_failed_shard() const { return last_failed_shard_; }

  /// Advance every shard's solar-day stream once and return the sampled
  /// SolarDay per shard (caller thread, shard order) — the multi-day loop
  /// feeds these to run_day so the streams live in checkpointable state.
  [[nodiscard]] std::vector<solar::SolarDay> sample_solar_days(solar::DayType type);

  /// Step every shard through one simulated day in parallel and return the
  /// merged datacenter-wide result. `days` holds one solar trace per shard
  /// (sample_solar_days). If a shard throws, all shards' traces/logs are
  /// still drained in shard order, then the first failing shard's exception
  /// is rethrown with its original type (watchdog trips keep exit code 3).
  DayResult run_day(const std::vector<solar::SolarDay>& days);

  /// Convenience for tests/benches: every shard generates its own solar
  /// trace for `type` from its shard-keyed per-day stream.
  DayResult run_day(solar::DayType type);

  /// Fold every shard's metric registry into `target`, in shard order.
  /// Called once at export/blackbox time; counters add, gauges last-write-
  /// wins, histograms merge bucket-wise (obs::Registry::merge).
  void merge_metrics_into(obs::Registry& target) const;

  /// Append one "shard-i" section per shard (solar stream, metric registry,
  /// cluster state) to a sectioned checkpoint. Day-boundary only. The
  /// inline shard has no registry of its own: the caller's travels in the
  /// loop section.
  void save_shard_sections(snapshot::SectionFileWriter& out) const;
  /// Restore the per-shard sections save_shard_sections wrote, in order.
  void load_shard_sections(snapshot::SectionFileReader& in);
  /// Restore the day counter after load_shard_sections (the loop's global
  /// state lives in checkpoint section 0, not in any shard).
  void resume_at_day(long day) { day_counter_ = day; }

 private:
  /// A shard's private obs sinks, drained into the caller's after each day.
  struct ShardSinks {
    obs::Registry registry;
    obs::TraceBuffer trace;
    std::vector<std::pair<util::LogLevel, std::string>> log_lines;
    util::LogSink log_sink;
    explicit ShardSinks(std::size_t trace_capacity) : trace(trace_capacity) {}
  };
  struct Shard {
    util::Rng solar_rng;
    std::unique_ptr<Cluster> owned;
    Cluster* cluster = nullptr;  ///< `owned`, or the caller's for the inline shard
    std::unique_ptr<ShardSinks> sinks;  ///< null for the inline shard
    DayResult result;
    std::exception_ptr error;
    double failed_at = 0.0;  ///< the shard's sim clock when `error` was thrown
    explicit Shard(util::Rng rng) : solar_rng(rng) {}
  };

  /// Drain one shard's trace and log lines into the caller's global sinks
  /// (caller thread; invoked in shard order).
  static void drain_obs(Shard& s);
  DayResult dispatch_day(const std::function<DayResult(std::size_t, Cluster&)>& step_shard);
  void install_demand_jobs();

  DatacenterConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  WorkerPool pool_;
  long day_counter_ = 0;
  std::size_t last_failed_shard_ = 0;
};

/// Config fingerprint for sectioned checkpoints: the scenario fingerprint
/// folded with the shard count and the canonical demand spec. Worker count
/// is deliberately excluded — resuming under a different --shard-workers
/// must succeed (and stay byte-identical).
std::uint64_t datacenter_fingerprint(const DatacenterConfig& cfg,
                                     const MultiDayOptions& options);

/// The multi-day loop (DESIGN.md §5f): weather stream, probe cadence, series
/// cadence, blackbox hook and checkpoint cadence, with sectioned checkpoint
/// files (snapshot/sections.hpp) whose section 0 is the loop state and
/// sections 1..N are one shard each. run_multi_day is this loop over a
/// one-shard datacenter.
MultiDayResult run_datacenter_multi_day(Datacenter& dc, const MultiDayOptions& options);

}  // namespace baat::sim
