#pragma once

// Multi-day / multi-month simulation — the substitute for the paper's six
// months of wall-clock prototype operation. Chains daily runs over a
// weather sequence, aggregates results, and performs the monthly
// instrumented battery probes behind Figs 3–5.

#include <string>

#include "battery/probe.hpp"
#include "sim/cluster.hpp"
#include "sim/series.hpp"
#include "solar/location.hpp"

namespace baat::sim {

/// Crash-safe checkpointing of a multi-day run (DESIGN.md §5f). Checkpoints
/// are written at day boundaries — the only instants where the cluster's
/// workload microstate is empty — and capture everything the loop needs to
/// continue bit-identically: section 0 holds the SoH probe series, the
/// result accumulators and the caller's obs registry/trace; one section per
/// shard holds its solar-day RNG and cluster state.
struct CheckpointOptions {
  /// Write a snapshot every N completed days; 0 disables periodic
  /// checkpoints (a `resume_path` alone is still honoured).
  std::size_t every_days = 0;
  /// Directory for `checkpoint-day-<N>.snap` files (created on demand).
  std::string dir;
  /// Snapshot file to restore before the loop starts; empty = fresh run.
  std::string resume_path;
  /// Scenario fingerprint stamped into written snapshots and demanded from
  /// resumed ones; 0 skips the check (tests exercising raw files).
  std::uint64_t config_hash = 0;
};

struct MultiDayOptions {
  std::size_t days = 180;
  /// Explicit weather sequence; when empty it is sampled from
  /// `sunshine_fraction` with the run's seed.
  std::vector<solar::DayType> weather;
  double sunshine_fraction = 0.5;
  /// Probe cadence for the Fig 3–5 measurements; 0 disables probing.
  std::size_t probe_every_days = 30;
  /// Keep per-day results (memory grows with days); aggregates are always kept.
  bool keep_days = true;
  CheckpointOptions checkpoint{};
  /// Streamed per-day ledger/health time-series export (off when path empty).
  SeriesOptions series{};
  /// Crash flight recorder: dump a `blackbox-<day>/` bundle when the day
  /// loop dies (watchdog trip or any uncaught exception).
  bool blackbox = true;
  /// Parent directory for blackbox bundles; empty = current directory.
  std::string blackbox_dir{};
};

/// Runs `cluster` as a one-shard datacenter through the multi-day loop
/// (run_datacenter_multi_day, sim/datacenter.hpp). The cluster runs inline
/// on the calling thread and reports into the caller's obs sinks.
MultiDayResult run_multi_day(Cluster& cluster, const MultiDayOptions& options);

/// Fingerprint of everything that shapes a run's trajectory (scenario knobs,
/// fault plan, math tier, weather/probe options). Stamped into snapshot
/// headers so resuming under a different scenario fails loudly instead of
/// continuing a subtly different simulation.
std::uint64_t scenario_fingerprint(const ScenarioConfig& cfg, const MultiDayOptions& options);

/// A repeating Sunny→Cloudy→Rainy mix with the given counts — handy for
/// matched long-run comparisons.
std::vector<solar::DayType> mixed_weather(std::size_t days, std::size_t sunny,
                                          std::size_t cloudy, std::size_t rainy);

}  // namespace baat::sim
