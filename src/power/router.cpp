#include "power/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace baat::power {

Amperes current_for_dc_power(Watts dc_power, util::Volts ocv, double r) {
  BAAT_REQUIRE(dc_power.value() >= 0.0, "power must be >= 0");
  BAAT_REQUIRE(ocv.value() > 0.0 && r > 0.0, "ocv and resistance must be positive");
  const double p = dc_power.value();
  if (p == 0.0) return Amperes{0.0};
  const double v = ocv.value();
  const double disc = v * v - 4.0 * r * p;
  if (disc <= 0.0) {
    // Requested power exceeds the source's maximum (v²/4r): deliver at the
    // maximum-power current.
    return Amperes{v / (2.0 * r)};
  }
  return Amperes{(v - std::sqrt(disc)) / (2.0 * r)};
}

void route_power_into(Watts solar, std::span<const Watts> demands,
                      std::span<battery::Battery> batteries,
                      std::span<const std::size_t> charge_priority,
                      const RouterParams& params, Seconds dt,
                      std::span<const double> discharge_floor_soc, RouteResult& out,
                      RouterScratch& scratch) {
  BAAT_OBS_TIMED("router_route");
  const std::size_t n = demands.size();
  BAAT_REQUIRE(batteries.size() == n, "demands/batteries size mismatch");
  BAAT_REQUIRE(charge_priority.size() == n, "charge priority must list every node");
  BAAT_REQUIRE(discharge_floor_soc.empty() || discharge_floor_soc.size() == n,
               "discharge floor must be empty or per-node");
  BAAT_REQUIRE(solar.value() >= 0.0, "solar power must be >= 0");
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  BAAT_REQUIRE(params.charger_efficiency > 0.0 && params.charger_efficiency <= 1.0 &&
                   params.inverter_efficiency > 0.0 && params.inverter_efficiency <= 1.0,
               "efficiencies must be in (0, 1]");

  RouteResult& result = out;
  // assign (not resize): every slot must be reset to a default NodeRoute,
  // including the ones a previous tick already wrote.
  result.nodes.assign(n, NodeRoute{});
  result.solar_available = solar;
  result.solar_curtailed = Watts{0.0};
  result.utility_drawn = Watts{0.0};

  double total_demand = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    BAAT_REQUIRE(demands[i].value() >= 0.0, "demand must be >= 0");
    result.nodes[i].demand = demands[i];
    total_demand += demands[i].value();
  }

  // 1. Solar → load, proportional to demand.
  double solar_left = solar.value();
  if (total_demand > 0.0 && solar_left > 0.0) {
    const double coverage = std::min(1.0, solar_left / total_demand);
    for (std::size_t i = 0; i < n; ++i) {
      const double used = demands[i].value() * coverage;
      result.nodes[i].solar_used = Watts{used};
      solar_left -= used;
    }
  }
  solar_left = std::max(0.0, solar_left);

  // 2. Utility budget → remaining deficits, proportional.
  double deficit_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    deficit_total += (result.nodes[i].demand - result.nodes[i].solar_used).value();
  }
  if (params.utility_budget.value() > 0.0 && deficit_total > 0.0) {
    const double coverage = std::min(1.0, params.utility_budget.value() / deficit_total);
    for (std::size_t i = 0; i < n; ++i) {
      const double deficit = (result.nodes[i].demand - result.nodes[i].solar_used).value();
      const double used = deficit * coverage;
      result.nodes[i].utility_used = Watts{used};
      result.utility_drawn += Watts{used};
    }
  }

  // Steps 3-5 decide first and step last. Every discharge current is fixed
  // from pre-step state, the charge chain then runs sequentially (each
  // charge step's result sets the bus left for the next), and finally every
  // discharging and idle battery steps in one batch. A battery's step reads
  // and writes only that battery, so this order gives the same bytes as
  // stepping each one where it was decided.
  scratch.requested.assign(n, Amperes{0.0});
  scratch.discharging.assign(n, 0);
  scratch.charged.assign(n, 0);
  scratch.steps.resize(n);
  std::vector<Amperes>& requested = scratch.requested;
  std::vector<std::uint8_t>& discharging = scratch.discharging;
  std::vector<std::uint8_t>& charged = scratch.charged;
  std::vector<battery::StepResult>& steps = scratch.steps;

  // 3. Batteries → remaining per-node deficits (currents only).
  for (std::size_t i = 0; i < n; ++i) {
    auto& node = result.nodes[i];
    const double deficit =
        (node.demand - node.solar_used - node.utility_used).value();
    if (deficit <= 1e-12) continue;

    const battery::Battery& bat = batteries[i];
    const double floor = discharge_floor_soc.empty() ? 0.0 : discharge_floor_soc[i];
    if (bat.soc() <= floor) {
      node.unmet = Watts{deficit};
      node.battery_cutoff = true;
      continue;
    }
    // An open-cell failure leaves no source at all (0 V OCV) — skip it
    // instead of asking current_for_dc_power to divide by a dead battery.
    if (bat.open_circuit().value() <= 0.0) {
      node.unmet = Watts{deficit};
      node.battery_cutoff = true;
      continue;
    }

    const Watts dc_needed{deficit / params.inverter_efficiency};
    Amperes i_req = current_for_dc_power(dc_needed, bat.open_circuit(),
                                         bat.internal_resistance_ohms());
    i_req = std::min(i_req, bat.max_discharge_current());
    // Respect the policy's SoC floor: don't draw more charge than sits above it.
    const double cap_ah = bat.usable_capacity().value();
    const double ah_above_floor = std::max(0.0, bat.soc() - floor) * cap_ah;
    const double ah_requested = i_req.value() * dt.value() / 3600.0;
    if (ah_requested > ah_above_floor) {
      i_req = Amperes{ah_above_floor * 3600.0 / dt.value()};
      node.battery_cutoff = true;
    }
    requested[i] = i_req;
    discharging[i] = 1;
  }

  // 4. Leftover solar → charging. Under Proportional allocation every
  // eligible battery draws a share of the bus scaled by its acceptance;
  // under PriorityOrder the listed order is strict. Either way a battery
  // that discharges this tick cannot also charge.
  const bool proportional =
      params.charge_allocation == ChargeAllocation::Proportional;
  double acceptance_power_total = 0.0;
  if (proportional) {
    for (std::size_t i = 0; i < n; ++i) {
      if (discharging[i]) continue;
      const Amperes accept = batteries[i].max_charge_current();
      if (accept.value() <= 0.0) continue;
      acceptance_power_total +=
          accept.value() *
          batteries[i].terminal_voltage(Amperes{-accept.value()}).value();
    }
  }
  const double terminal_bus = solar_left * params.charger_efficiency;
  const double share_scale =
      acceptance_power_total > 0.0 ? std::min(1.0, terminal_bus / acceptance_power_total)
                                   : 0.0;

  for (std::size_t rank = 0; rank < n && solar_left > 1e-9; ++rank) {
    const std::size_t i = charge_priority[rank];
    BAAT_REQUIRE(i < n, "charge priority index out of range");
    if (discharging[i] || charged[i]) continue;
    battery::Battery& bat = batteries[i];
    const Amperes accept = bat.max_charge_current();
    if (accept.value() <= 0.0) continue;

    const double v_est = bat.terminal_voltage(Amperes{-accept.value()}).value();
    // Whatever the allocation mode proposes, never draw more than the bus
    // still holds (keeps solar attribution exactly conservative).
    const double terminal_budget = solar_left * params.charger_efficiency;
    const double i_by_budget = terminal_budget / std::max(1.0, v_est);
    double i_chg = 0.0;
    if (proportional) {
      i_chg = std::min(accept.value() * share_scale, i_by_budget);
    } else {
      i_chg = std::min(accept.value(), i_by_budget);
    }
    if (i_chg <= 0.0) continue;

    const auto step = bat.step(Amperes{-i_chg}, dt);
    charged[i] = 1;
    const double into_terminals =
        step.terminal_voltage.value() * std::fabs(step.actual_current.value());
    // The step reports the end-of-step terminal voltage (the OCV rose a
    // little while charging); cap the bus-side draw at what is actually
    // left so solar attribution stays exactly conservative.
    const double from_bus =
        std::min(into_terminals / params.charger_efficiency, solar_left);
    result.nodes[i].charge_drawn = Watts{from_bus};
    result.nodes[i].battery_current = step.actual_current;
    solar_left = std::max(0.0, solar_left - from_bus);
  }

  // 5. Every battery that did not charge steps now: the discharging ones at
  // their decided current, the idle ones at 0 A (they still age on the
  // calendar). When node i is cell i of one shared FleetState (a cluster
  // bank) this is one masked batched fleet call; standalone or mixed banks
  // take the per-object loop.
  battery::FleetState* fleet = n > 0 ? batteries[0].fleet() : nullptr;
  if (fleet != nullptr && fleet->size() != n) fleet = nullptr;
  for (std::size_t i = 0; i < n && fleet != nullptr; ++i) {
    if (batteries[i].fleet() != fleet || batteries[i].cell_index() != i) fleet = nullptr;
  }
  if (fleet != nullptr) {
    fleet->step_masked(requested, charged, dt, steps);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (!charged[i]) steps[i] = batteries[i].step(requested[i], dt);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!discharging[i]) continue;
    auto& node = result.nodes[i];
    const battery::StepResult& step = steps[i];
    const double deficit =
        (node.demand - node.solar_used - node.utility_used).value();
    node.battery_current = step.actual_current;
    node.battery_cutoff = node.battery_cutoff || step.hit_cutoff;
    const double delivered_dc =
        step.terminal_voltage.value() * step.actual_current.value();
    const double delivered = std::max(0.0, delivered_dc) * params.inverter_efficiency;
    node.battery_delivered = Watts{std::min(delivered, deficit)};
    node.unmet = Watts{std::max(0.0, deficit - delivered)};
  }

  result.solar_curtailed = Watts{solar_left};

  // Observability: one "redirect" = a tick where solar alone could not
  // carry the load and the switcher pulled in battery or utility power.
  // Counter handles are interned per registry id, not per call (four map
  // lookups per tick was measurable) and not in bare statics: the active
  // registry is per-thread under the sweep engine, and a static handle
  // would alias every thread onto one job's registry. The id check catches
  // a registry swap or death (Registry retires its id when nodes go away).
  obs::Registry& reg = obs::global_registry();
  struct CounterCache {
    std::uint64_t reg_id = 0;
    obs::Counter* ticks = nullptr;
    obs::Counter* redirects = nullptr;
    obs::Counter* cutoffs = nullptr;
    obs::Counter* curtailed = nullptr;
  };
  thread_local CounterCache cache;
  if (cache.reg_id != reg.id()) {
    cache.ticks = &reg.counter("router.ticks");
    cache.redirects = &reg.counter("router.redirects");
    cache.cutoffs = &reg.counter("router.cutoff_ticks");
    cache.curtailed = &reg.counter("router.curtailed_ticks");
    cache.reg_id = reg.id();
  }
  cache.ticks->inc();
  if (result.solar_curtailed.value() > 1e-9) cache.curtailed->inc();
  bool redirected = false;
  bool cutoff = false;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeRoute& node = result.nodes[i];
    redirected = redirected || node.battery_delivered.value() > 1e-9 ||
                 node.utility_used.value() > 1e-9;
    cutoff = cutoff || node.battery_cutoff;
    if (node.unmet.value() > 1e-9) {
      obs::emit(obs::EventKind::UnmetDemand, static_cast<int>(i), node.unmet.value());
    }
  }
  if (redirected) cache.redirects->inc();
  if (cutoff) cache.cutoffs->inc();
}

RouteResult route_power(Watts solar, std::span<const Watts> demands,
                        std::span<battery::Battery> batteries,
                        std::span<const std::size_t> charge_priority,
                        const RouterParams& params, Seconds dt,
                        std::span<const double> discharge_floor_soc) {
  RouteResult result;
  RouterScratch scratch;
  route_power_into(solar, demands, batteries, charge_priority, params, dt,
                   discharge_floor_soc, result, scratch);
  return result;
}

}  // namespace baat::power
