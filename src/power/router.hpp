#pragma once

// The power switcher (§V-A.4): dynamically routes power among the solar
// line, the utility tie and the per-node batteries — "switch the power
// sources among utility, battery power and renewable energy ... and also
// switch the utility or renewable power to charge batteries".
//
// Dispatch order per tick (the prototype's relay logic):
//   1. solar feeds the server load, split proportionally to demand;
//   2. the utility budget (zero in pure-green operation) covers deficits;
//   3. each node's battery covers its remaining deficit through the
//      DC-AC inverter, limited by chemistry;
//   4. leftover solar charges batteries in a caller-chosen priority order
//      (BAAT points it at the most-aged unit first, §VI-B);
//   5. anything still left is curtailed.
//
// Every battery is stepped exactly once per call, including idle ones, so
// calendar aging and time counters always advance.

#include <cstdint>
#include <span>
#include <vector>

#include "battery/battery.hpp"
#include "util/units.hpp"

namespace baat::power {

using util::Amperes;
using util::Seconds;
using util::Watts;

/// How surplus solar is split across the chargers.
enum class ChargeAllocation {
  /// Parallel bus behaviour: every battery draws in proportion to its
  /// charge acceptance (the physical default without a controller).
  Proportional,
  /// Strict order: the first node in `charge_priority` charges at full
  /// acceptance before the next sees anything — the knob BAAT uses to give
  /// the most-aged unit "more solar charging chances" (§VI-B).
  PriorityOrder,
};

struct RouterParams {
  double charger_efficiency = 0.90;   ///< bus → battery terminals
  double inverter_efficiency = 0.92;  ///< battery terminals → load
  Watts utility_budget{0.0};          ///< 0 = pure green operation
  ChargeAllocation charge_allocation = ChargeAllocation::Proportional;
};

/// Per-node outcome of one routing tick.
struct NodeRoute {
  Watts demand{0.0};
  Watts solar_used{0.0};
  Watts utility_used{0.0};
  Watts battery_delivered{0.0};  ///< at the load, after inverter loss
  Watts unmet{0.0};              ///< demand nobody could cover (→ brownout)
  Watts charge_drawn{0.0};       ///< from the bus into the charger
  Amperes battery_current{0.0};  ///< signed, >0 discharge
  bool battery_cutoff = false;   ///< LVD curtailed the discharge
};

struct RouteResult {
  std::vector<NodeRoute> nodes;
  Watts solar_available{0.0};
  Watts solar_curtailed{0.0};
  Watts utility_drawn{0.0};
};

/// Reusable per-call working memory for route_power_into. Keeping one of
/// these alive across ticks (Cluster does) makes routing allocation-free in
/// steady state: the vectors grow once to the node count and are reused.
struct RouterScratch {
  std::vector<Amperes> requested;          ///< decided discharge current, 0 = idle
  std::vector<std::uint8_t> discharging;  ///< node discharges this tick
  std::vector<std::uint8_t> charged;      ///< stepped by the charge chain
  std::vector<battery::StepResult> steps;
};

/// Routes one tick. `demands[i]` is node i's server power; `batteries[i]` is
/// its battery (spans must be equal length). `charge_priority` lists node
/// indices in the order surplus solar should charge them; pass the natural
/// order for aging-oblivious policies. `discharge_floor_soc[i]` (optional)
/// forbids discharging node i below that SoC — the planned-aging knob (Eq 7).
/// Results are written into `out` (previous contents reset in place) using
/// `scratch` for working memory, so a caller looping over ticks performs no
/// per-tick allocation.
void route_power_into(Watts solar, std::span<const Watts> demands,
                      std::span<battery::Battery> batteries,
                      std::span<const std::size_t> charge_priority,
                      const RouterParams& params, Seconds dt,
                      std::span<const double> discharge_floor_soc, RouteResult& out,
                      RouterScratch& scratch);

/// Convenience wrapper over route_power_into with fresh result/scratch.
RouteResult route_power(Watts solar, std::span<const Watts> demands,
                        std::span<battery::Battery> batteries,
                        std::span<const std::size_t> charge_priority,
                        const RouterParams& params, Seconds dt,
                        std::span<const double> discharge_floor_soc = {});

/// Current that extracts `dc_power` from a source with open-circuit voltage
/// `ocv` and internal resistance `r` (solves I·(ocv − I·r) = P; returns the
/// small root, or the maximum-power current if P is unreachable).
Amperes current_for_dc_power(Watts dc_power, util::Volts ocv, double r);

}  // namespace baat::power
