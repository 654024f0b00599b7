#pragma once

// The policy interface between the BAAT controller and the simulator (or a
// real cluster). A policy sees only what the prototype's control server
// sees — sensor-derived metrics, estimated SoC, server power readings and
// the VM inventory — and actuates only what it can actuate: VM migration,
// DVFS, battery charge priority and discharge floors (Fig 7).

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/demand.hpp"
#include "core/forecast.hpp"
#include "snapshot/serialize.hpp"
#include "core/weighted_aging.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/vm.hpp"

namespace baat::core {

using util::Seconds;
using util::Watts;
using workload::VmId;

/// What a policy knows about one VM on a node.
struct VmView {
  VmId id = -1;
  workload::Kind kind{};
  double cores = 0.0;
  double mem_gb = 0.0;
  bool migratable = false;
  DemandProfile demand{};
};

/// What a policy knows about one battery/server node.
struct NodeView {
  std::size_t index = 0;
  bool powered_on = true;
  double soc = 1.0;                       ///< estimated from telemetry
  /// Metrics over the recent control horizon (daily-reset log) — what the
  /// slowdown check (Fig 9) reads.
  telemetry::AgingMetrics metrics{};
  /// Life-long cumulative metrics — what the hiding scheduler (Fig 8) ranks
  /// nodes by, since aging variation is a lifetime property.
  telemetry::AgingMetrics metrics_life{};
  double cores_free = 0.0;
  double mem_free_gb = 0.0;
  int dvfs_level = 0;
  int dvfs_top = 0;
  Watts server_power{0.0};
  Watts battery_draw{0.0};                ///< current discharge power at the load
  /// Largest load power the battery can sustain for the 2-minute reserve
  /// window (the P_threshold of Fig 9).
  Watts sustainable_reserve_power{0.0};
  std::vector<VmView> vms;
};

struct PolicyContext {
  Seconds now{0.0};
  /// Seconds since midnight of the current day.
  Seconds time_of_day{0.0};
  /// Plant output right now (the IPDU-side reading a controller has).
  Watts solar_now{0.0};
  std::vector<NodeView> nodes;
};

struct MigrationAction {
  VmId vm = -1;
  std::size_t from = 0;
  std::size_t to = 0;
  /// Why the policy acted (static string: "low_soc_hiding",
  /// "aging_rebalance", ...). Carried into the actuation's trace event so
  /// the aging ledger's story can be joined with the decisions behind it.
  const char* cause = "";
};

struct DvfsAction {
  std::size_t node = 0;
  int level = 0;
  /// Why the policy acted (see MigrationAction::cause).
  const char* cause = "";
};

/// Everything a policy may request this control period. Empty vectors mean
/// "no change"; `charge_priority`, when set, must be a permutation of node
/// indices; `discharge_floor_soc`, when set, must be per-node.
struct Actions {
  std::vector<MigrationAction> migrations;
  std::vector<DvfsAction> dvfs;
  std::vector<std::size_t> charge_priority;
  std::vector<double> discharge_floor_soc;
};

enum class PolicyKind { EBuff, BaatS, BaatH, Baat, BaatPlanned, BaatPredictive };

[[nodiscard]] std::string_view policy_kind_name(PolicyKind k);

struct SlowdownParams {
  double soc_trigger = 0.40;       ///< Fig 9: act below 40% SoC
  double soc_recover = 0.55;       ///< hysteresis: restore DVFS above this
  double ddt_threshold = 0.05;     ///< Eq 5 fraction (recent log) that arms the response
  double dr_margin = 0.85;         ///< act when draw > margin × P_threshold
  /// DR also fires when the recent discharge C-rate exceeds this while deep
  /// discharged (§III-E: "high discharge rate during low SoC duration").
  double dr_c_threshold = 0.20;
  /// Below the knee, any sustained battery drain above this arms the
  /// response — this is what makes the knee (and Eq 7's planned override of
  /// it) actually modulate how deep the battery serves load before BAAT
  /// starts capping.
  double drain_watts_threshold = 25.0;
  Seconds reserve_window{120.0};   ///< T_threshold: 2-minute reserve ([42])
};

/// Parameters of the planned-aging extension (Eq 7); disabled when
/// `cycles_plan` is 0.
struct PlannedAgingParams {
  util::AmpereHours total_throughput{0.0};  ///< C_total: nameplate life-long Ah
  double cycles_plan = 0.0;                 ///< Cycle_plan: cycles until discard
  util::AmpereHours nameplate{35.0};        ///< per-cycle capacity for Eq 7's DoD
};

struct PolicyParams {
  SlowdownParams slowdown{};
  PlannedAgingParams planned{};
  AgingSignalParams signals{};
  DemandThresholds demand_thresholds{};
  std::uint64_t seed = 1;
  /// Minimum weighted-aging spread that justifies a hiding migration.
  double rebalance_threshold = 0.08;
  /// Ablation knob: when false, full BAAT leaves charging on the physical
  /// proportional split instead of steering surplus to the worst battery.
  bool use_charge_priority = true;
  /// Ablation knob: when set, placement uses these Eq 6 weights for every
  /// demand class instead of the Table 3 mapping.
  std::optional<AgingWeights> placement_weights_override{};
  /// End of the server-duty window — the horizon the predictive extension
  /// budgets solar energy against.
  Seconds day_end{util::hours(18.5)};
  /// Forecast configuration for the predictive extension.
  ForecastParams forecast{};
};

class AgingPolicy {
 public:
  virtual ~AgingPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual PolicyKind kind() const = 0;

  /// Called once per control period.
  virtual Actions on_control_tick(const PolicyContext& ctx) = 0;

  /// Choose the node for a new VM ("when datacenter operators deploy new
  /// applications", §IV-B.2). Returns nullopt if nothing can host it.
  virtual std::optional<std::size_t> place_vm(const PolicyContext& ctx,
                                              double cores, double mem_gb,
                                              const DemandProfile& demand) = 0;

  /// Checkpoint support. Stateless policies (e-Buff, BAAT-s, plain BAAT's
  /// parameters) keep the no-op default; policies carrying runtime state
  /// (migration cooldowns, the BAAT-h RNG, the predictive forecaster)
  /// override both. Save/load pairs must consume symmetric bytes.
  virtual void save_state(snapshot::SnapshotWriter& w) const { (void)w; }
  virtual void load_state(snapshot::SnapshotReader& r) { (void)r; }
};

std::unique_ptr<AgingPolicy> make_policy(PolicyKind kind, const PolicyParams& params);

}  // namespace baat::core
