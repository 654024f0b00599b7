#pragma once

// The digital twin of the paper's prototype (Fig 11): six server nodes, one
// battery node each, a shared solar line, the power switcher, per-battery
// sensors/power tables and the BAAT controller, stepped at a fixed period
// over simulated days.

#include <functional>
#include <memory>
#include <vector>

#include "battery/bank.hpp"
#include "core/guard.hpp"
#include "core/policy.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "power/meter.hpp"
#include "power/router.hpp"
#include "server/server.hpp"
#include "sim/results.hpp"
#include "sim/scenario.hpp"
#include "solar/solar_day.hpp"
#include "telemetry/power_table.hpp"
#include "telemetry/sensor.hpp"
#include "workload/vm.hpp"

namespace baat::sim {

/// Snapshot passed to the per-tick observer — the hook the Fig 12 runtime
/// profiling bench (and debugging) uses to sample intra-day state. The hook
/// is layered on top of the obs event stream: coarse-grained structured
/// events (policy switches, low-SoC crossings, brownouts, ...) go to
/// obs::global_trace(); this callback remains the raw per-tick firehose.
struct TickObservation {
  util::Seconds time_of_day{0.0};
  util::Watts solar{0.0};
  util::Watts total_demand{0.0};
  const power::RouteResult* route = nullptr;
  const std::vector<battery::Battery>* batteries = nullptr;
  const std::vector<telemetry::PowerTable>* day_tables = nullptr;
};

class Cluster {
 public:
  explicit Cluster(ScenarioConfig cfg);

  /// Simulate one full calendar day against a given solar trace. Jobs from
  /// the daily plan are deployed at their arrival offsets; all VMs are
  /// retired at day end ("each power management scheme is run one day",
  /// §VI-B).
  DayResult run_day(const solar::SolarDay& day);

  /// Convenience: generates the day's solar trace internally (deterministic
  /// in the cluster seed and the running day counter).
  DayResult run_day(solar::DayType type);

  /// Swap the management policy between days (Fig 13's matched comparisons).
  void set_policy(core::PolicyKind kind);

  /// Replace the daily job plan between days — the demand-model hook: a
  /// sharded datacenter recomputes each shard's schedule every morning.
  /// Only legal at a day boundary (no live VMs or queued jobs).
  void set_daily_jobs(std::vector<JobSpec> jobs);

  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t node_count() const { return batteries_.size(); }
  [[nodiscard]] const std::vector<battery::Battery>& batteries() const { return batteries_; }
  /// Mutable access for experiment setup (e.g. seeding an "old" fleet).
  [[nodiscard]] std::vector<battery::Battery>& batteries_mutable() { return batteries_; }
  [[nodiscard]] const core::AgingPolicy& policy() const { return *policy_; }
  [[nodiscard]] long days_run() const { return day_counter_; }
  /// Non-null iff the scenario carries a fault plan.
  [[nodiscard]] fault::FaultInjector* injector() { return injector_.get(); }
  /// The degraded-mode guard (disabled unless the scenario enables it).
  [[nodiscard]] const core::TelemetryGuard& guard() const { return guard_; }
  /// The run-health watchdog (on by default; see WatchdogParams).
  [[nodiscard]] const Watchdog& watchdog() const { return watchdog_; }

  // --- aging-attribution ledger ----------------------------------------------
  /// One node's ledger entry since the last ledger_advance() (non-advancing).
  [[nodiscard]] battery::CellLedgerEntry node_ledger_delta(std::size_t node) const;
  /// One node's lifetime ledger entry (since birth).
  [[nodiscard]] battery::CellLedgerEntry node_ledger_total(std::size_t node) const;
  /// Cluster-wide rollup of per-node entries (deltas or lifetime totals).
  [[nodiscard]] battery::LedgerRollup ledger_rollup(bool lifetime_totals) const;
  /// Move every node's ledger baseline to its current state (call after the
  /// deltas of a rollup window have been exported).
  void ledger_advance();
  /// Life-long metrics of one node, as the controller sees them.
  [[nodiscard]] telemetry::AgingMetrics life_metrics(std::size_t node) const;

  /// Install a per-tick observer (pass nullptr-like empty function to clear).
  void set_tick_observer(std::function<void(const TickObservation&)> observer) {
    observer_ = std::move(observer);
  }

  /// Checkpoint support (DESIGN.md §5f). Valid only at a day boundary —
  /// run_day drains every VM and powers servers off at day end, so the
  /// workload microstate never enters the snapshot; save refuses otherwise.
  /// load_state runs on a freshly constructed Cluster for the *same*
  /// scenario: construction makes its usual deterministic RNG draws, then
  /// every drawn-from stream and mutable field is overwritten with the
  /// checkpointed values, leaving exactly the state the saved cluster had.
  void save_state(snapshot::SnapshotWriter& w) const;
  void load_state(snapshot::SnapshotReader& r);

 private:
  struct VmRecord {
    workload::Vm vm;
    std::size_t host;
    double last_util = 0.0;
  };

  /// Try to place one job; returns false if no node can host it right now
  /// (the caller queues it for retry — a batch queue, not a silent drop).
  bool deploy_job(const JobSpec& job);
  /// Non-const: the telemetry guard advances its per-node acceptance state
  /// while filtering SoC estimates for the controller's view.
  core::PolicyContext build_context(util::Seconds now,
                                    const power::RouteResult* last_route,
                                    util::Watts solar_now = util::Watts{0.0});
  /// Count the control tick's decisions, then apply them.
  void apply_actions(const core::Actions& actions, DayResult& result);
  VmRecord* find_vm(workload::VmId id);

  ScenarioConfig cfg_;
  util::Rng rng_;
  /// All per-cell battery state, stepped through the batched fleet kernel.
  /// Declared before batteries_: the views must die before the fleet.
  std::unique_ptr<battery::FleetState> fleet_;
  std::vector<battery::Battery> batteries_;  ///< views into *fleet_, one per node
  std::vector<server::Server> servers_;
  /// Shared by every life and day table (one chemistry, curve and scheme).
  telemetry::PowerTableParams table_params_;
  std::vector<telemetry::PowerTable> life_tables_;
  /// Daily-reset logs: the "recent" metric horizon the slowdown check reads.
  std::vector<telemetry::PowerTable> day_tables_;
  std::vector<telemetry::BatterySensor> sensors_;
  std::unique_ptr<fault::FaultInjector> injector_;  ///< null = clean run
  core::TelemetryGuard guard_;
  Watchdog watchdog_;
  std::unique_ptr<core::AgingPolicy> policy_;
  std::vector<VmRecord> vms_;
  std::vector<JobSpec> pending_jobs_;  ///< arrived but not yet placeable
  std::vector<std::size_t> charge_priority_;
  /// True once the policy has installed an explicit charge order — switches
  /// the router from the physical proportional split to strict priority.
  bool charge_priority_explicit_ = false;
  std::vector<double> discharge_floor_;
  workload::VmId next_vm_id_ = 0;
  long day_counter_ = 0;
  std::function<void(const TickObservation&)> observer_;
  /// Reused per-tick buffers (run_day performs no per-tick allocation).
  std::vector<util::Watts> demands_;
  std::vector<telemetry::SensorReading> readings_;  ///< this tick's reading per node
  std::vector<double> voltage_soc_;                 ///< their voltage SoC, one batch
  power::RouterScratch router_scratch_;

  // --- observability ---------------------------------------------------------
  // Handles into obs::global_registry(), resolved once in the constructor
  // (registry entries are never erased, so the pointers stay valid). All of
  // this is read-only with respect to simulation state: metrics and events
  // must never perturb the deterministic run (regression-tested).
  struct ObsHandles {
    obs::Counter* jobs_deployed = nullptr;
    obs::Counter* deploy_retries = nullptr;
    obs::Counter* low_soc_ticks = nullptr;
    obs::Counter* critical_soc_ticks = nullptr;
    obs::Counter* brownouts = nullptr;
    obs::Counter* migrations = nullptr;
    obs::Counter* dvfs_transitions = nullptr;
    obs::Counter* days_run = nullptr;
    obs::Counter* control_ticks = nullptr;
    // policy.decisions{migration|dvfs|charge_priority|discharge_floor}
    obs::Counter* decided_migrations = nullptr;
    obs::Counter* decided_dvfs = nullptr;
    obs::Counter* decided_charge_priority = nullptr;
    obs::Counter* decided_discharge_floor = nullptr;
    std::vector<obs::Gauge*> node_soc;
    std::vector<obs::Gauge*> node_health;
  };
  ObsHandles obs_;
  std::vector<bool> node_low_soc_;   ///< per-node "currently below 40%" latch
  std::vector<bool> node_eol_seen_;  ///< per-node "EOL event already emitted"
};

}  // namespace baat::sim
