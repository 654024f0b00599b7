#include "battery/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "battery/step_math.hpp"
#include "obs/timer.hpp"
#include "util/fastmath.hpp"
#include "util/require.hpp"

namespace baat::battery {

namespace {
constexpr double kFullChargeSoc = 0.995;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

FleetState::FleetState(LeadAcidParams chem, AgingParams aging, ThermalParams thermal,
                       MathMode math)
    : chem_base_(chem), aging_params_(aging), thermal_base_(thermal), math_(math) {
  BAAT_REQUIRE(chem_base_.cells > 0, "cell count must be positive");
  BAAT_REQUIRE(thermal_base_.heat_capacity_j_per_k > 0.0, "heat capacity must be positive");
  BAAT_REQUIRE(thermal_base_.thermal_resistance_k_per_w > 0.0,
               "thermal resistance must be positive");
}

FleetState::FleetState(const ChemistryModel& model, ThermalParams thermal, MathMode math)
    : FleetState(model.electrical, model.aging, thermal, math) {
  kind_ = model.kind;
  ocv_curve_ = model.ocv;
  li_ = model.li;
  ledger_curve_ = model.cycle_curve;
}

std::size_t FleetState::add_cell(double capacity_scale, double resistance_scale,
                                 double initial_soc) {
  BAAT_REQUIRE(capacity_scale > 0.0, "capacity_scale must be positive");
  BAAT_REQUIRE(resistance_scale > 0.0, "resistance_scale must be positive");
  BAAT_REQUIRE(initial_soc >= 0.0 && initial_soc <= 1.0, "initial soc must be in [0, 1]");
  const double nameplate = chem_base_.capacity_c20.value() * capacity_scale;
  BAAT_REQUIRE(nameplate > 0.0, "nameplate capacity must be positive");

  const std::size_t c = soc_.size();
  LeadAcidParams chem = chem_base_;
  // Bake the manufacturing variation into the chemistry view so Peukert and
  // rate caps all see this unit's true capacity.
  chem.capacity_c20 = AmpereHours{nameplate};
  chem_.push_back(chem);
  thermal_.push_back(thermal_base_);
  tau_.push_back(thermal_base_.heat_capacity_j_per_k *
                 thermal_base_.thermal_resistance_k_per_w);
  nameplate_.push_back(nameplate);
  resistance_scale_.push_back(resistance_scale);
  soc_.push_back(initial_soc);
  temp_c_.push_back(thermal_base_.ambient.value());
  open_.push_back(0);
  aging_.emplace_back();
  UsageCounters counters;
  counters.min_soc_since_full = initial_soc;
  counters_.push_back(counters);
  arr_key_.push_back(kNaN);
  arr_val_.push_back(1.0);
  pk_key_.push_back(kNaN);
  pk_val_.push_back(1.0);
  decay_key_.push_back(kNaN);
  decay_val_.push_back(1.0);
  rainflow_.emplace_back(ledger_curve_);
  rainflow_.back().push(initial_soc);  // history opens at the birth SoC
  ledger_base_aging_.emplace_back();
  ledger_base_damage_.push_back(0.0);
  ledger_base_efc_.push_back(0.0);
  ledger_base_dwell_.push_back(0.0);
  derived_dirty_ = true;
  return c;
}

// --- aging-attribution ledger ------------------------------------------------

CellLedgerEntry FleetState::ledger_total(std::size_t c) const {
  BAAT_REQUIRE(c < soc_.size(), "cell index out of range");
  CellLedgerEntry e;
  e.fade = fade_components(aging_params_, aging_[c]);
  e.cycle_damage = rainflow_[c].damage();
  e.efc = counters_[c].ah_discharged.value() / nameplate_[c];
  e.low_soc_dwell_s = counters_[c].time_below_40.value();
  return e;
}

CellLedgerEntry FleetState::ledger_delta(std::size_t c) const {
  CellLedgerEntry e = ledger_total(c);
  e.fade -= fade_components(aging_params_, ledger_base_aging_[c]);
  e.cycle_damage -= ledger_base_damage_[c];
  e.efc -= ledger_base_efc_[c];
  e.low_soc_dwell_s -= ledger_base_dwell_[c];
  return e;
}

void FleetState::ledger_advance() {
  for (std::size_t c = 0; c < soc_.size(); ++c) {
    ledger_base_aging_[c] = aging_[c];
    ledger_base_damage_[c] = rainflow_[c].damage();
    ledger_base_efc_[c] = counters_[c].ah_discharged.value() / nameplate_[c];
    ledger_base_dwell_[c] = counters_[c].time_below_40.value();
  }
}

// --- transcendental memos ----------------------------------------------------
// Last-argument caches: a hit returns the exact double the library call
// produced for the same input, so Exact mode stays bit-identical. The keys
// start NaN (NaN != x for every x), so the first lookup always misses.

double FleetState::arrhenius(std::size_t c, double temp_c) {
  // Fast and Simd both serve the memo from the polynomial (the simd group
  // kernel bypasses this memo entirely, but float_charge_cell and any
  // scalar-path stepping in those tiers still land here).
  if (temp_c != arr_key_[c]) {
    arr_key_[c] = temp_c;
    arr_val_[c] = math_ != MathMode::Exact ? util::fast_exp2((temp_c - 20.0) / 10.0)
                                           : detail::arrhenius_value(temp_c);
  }
  return arr_val_[c];
}

double FleetState::peukert_capacity_ah(std::size_t c, double i) {
  const LeadAcidParams& p = chem_[c];
  BAAT_REQUIRE(i >= 0.0, "discharge current must be >= 0");
  const double i20 = p.rated_current().value();
  if (i <= i20) return p.capacity_c20.value();
  const double ratio = i20 / i;
  if (ratio != pk_key_[c]) {
    pk_key_[c] = ratio;
    pk_val_[c] = math_ != MathMode::Exact
                     ? util::fast_pow(ratio, p.peukert_exponent - 1.0)
                     : std::pow(ratio, p.peukert_exponent - 1.0);
  }
  return p.capacity_c20.value() * pk_val_[c];
}

double FleetState::thermal_decay(std::size_t c, double dt_s) {
  // Kept exact in every math tier: the decay feeds temperature directly
  // (state, not an aging rate), and the fixed simulation dt makes this a
  // once-per-run computation anyway.
  if (dt_s != decay_key_[c]) {
    decay_key_[c] = dt_s;
    decay_val_[c] = std::exp(-dt_s / tau_[c]);
  }
  return decay_val_[c];
}

// --- per-cell observables ----------------------------------------------------

Volts FleetState::cell_open_circuit(std::size_t c) const {
  if (open_[c] != 0) return Volts{0.0};
  const double fresh = detail::block_ocv_chem_v(chem_[c], soc_[c], ocv_curve_);
  const double sag = detail::aging_ocv_sag_v(
      aging_params_, detail::aging_capacity_fraction(aging_params_, aging_[c]));
  return Volts{fresh - sag * chem_[c].cells};
}

double FleetState::cell_internal_resistance_ohms(std::size_t c) const {
  return chem_[c].r_internal_ohms * resistance_scale_[c] *
         detail::aging_resistance_factor(aging_params_, aging_[c]);
}

Volts FleetState::cell_terminal_voltage(std::size_t c, Amperes current) const {
  if (open_[c] != 0) return Volts{0.0};  // no circuit, no IR drop
  return Volts{cell_open_circuit(c).value() -
               current.value() * cell_internal_resistance_ohms(c)};
}

AmpereHours FleetState::cell_usable_capacity(std::size_t c) const {
  if (open_[c] != 0) return AmpereHours{0.0};
  return AmpereHours{nameplate_[c] *
                     detail::aging_capacity_fraction(aging_params_, aging_[c])};
}

double FleetState::cell_health(std::size_t c) const {
  return open_[c] != 0 ? 0.0 : detail::aging_capacity_fraction(aging_params_, aging_[c]);
}

bool FleetState::cell_end_of_life(std::size_t c) const {
  return open_[c] != 0 ||
         detail::aging_capacity_fraction(aging_params_, aging_[c]) < 0.80;
}

Amperes FleetState::cell_max_discharge_current(std::size_t c) const {
  if (open_[c] != 0 || soc_[c] <= 0.0) return Amperes{0.0};
  const double headroom = cell_open_circuit(c).value() - chem_[c].cutoff_voltage().value();
  if (headroom <= 0.0) return Amperes{0.0};
  const double by_voltage = headroom / cell_internal_resistance_ohms(c);
  const double by_rate = chem_[c].max_discharge_c_rate * nameplate_[c];
  return Amperes{std::min(by_voltage, by_rate)};
}

Amperes FleetState::cell_max_charge_current(std::size_t c) const {
  if (open_[c] != 0 || soc_[c] >= 1.0) return Amperes{0.0};
  const double by_rate = chem_[c].max_charge_c_rate * nameplate_[c] *
                         detail::charge_acceptance_f(chem_[c], soc_[c]);
  const double headroom = chem_[c].absorb_voltage().value() - cell_open_circuit(c).value();
  if (headroom <= 0.0) return Amperes{0.0};
  const double by_voltage = headroom / cell_internal_resistance_ohms(c);
  return Amperes{std::min(by_rate, by_voltage)};
}

WattHours FleetState::cell_stored_energy_above(std::size_t c, double floor_soc) const {
  BAAT_REQUIRE(floor_soc >= 0.0 && floor_soc <= 1.0, "floor soc must be in [0, 1]");
  const double frac = std::max(0.0, soc_[c] - floor_soc);
  return WattHours{frac * cell_usable_capacity(c).value() *
                   chem_[c].nominal_voltage().value()};
}

// --- the tick kernel ---------------------------------------------------------

StepResult FleetState::step_cell(std::size_t c, Amperes requested, Seconds dt) {
  // The energy-bucket tier has its own reduced tick in every math mode.
  if (kind_ == Chemistry::Bucket) return step_cell_bucket(c, requested, dt);
  // The simd tier routes even single-cell steps through the branchless
  // lane kernel (width 1) so per-cell steps (standalone units, the router's
  // charge chain) and the batched paths stay bitwise consistent within the
  // tier. The lane kernel is lead-acid physics; Li chemistries fall through
  // to the scalar path (their Fast and Simd trajectories coincide).
  if (math_ == MathMode::Simd && kind_ == Chemistry::LeadAcid) {
    return step_cell_simd(c, requested, dt);
  }
  BAAT_OBS_TIMED("battery_step");
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  BAAT_REQUIRE(c < soc_.size(), "cell index out of range");

  const LeadAcidParams& chem = chem_[c];
  AgingState& ag = aging_[c];
  UsageCounters& ctr = counters_[c];
  const bool open = open_[c] != 0;
  double soc = soc_[c];
  const double soc_before = soc;

  // Aging-derived factors are pure functions of the aging state, which only
  // mutates in the aging step at the tail — hoist them once per tick. The
  // products below are the exact expressions the accessors evaluate.
  const double cap_frac = detail::aging_capacity_fraction(aging_params_, ag);
  const double sag_block = detail::aging_ocv_sag_v(aging_params_, cap_frac) * chem.cells;
  const double r = chem.r_internal_ohms * resistance_scale_[c] *
                   detail::aging_resistance_factor(aging_params_, ag);
  // Open-circuit voltage at a given SoC; only evaluated on non-open cells
  // (the scalar code's open_ early-outs are preserved at every call site).
  const auto ocv_at = [&](double s) {
    return detail::block_ocv_chem_v(chem, s, ocv_curve_) - sag_block;
  };

  StepResult result;
  // An open cell can neither source nor sink current; it still tracks
  // time, temperature relaxation and calendar effects below.
  Amperes actual = open ? Amperes{0.0} : requested;
  if (open && requested.value() > 0.0) result.hit_cutoff = true;

  if (actual.value() > 0.0) {
    // ---- discharge ----
    double cap_a = 0.0;  // max_discharge_current (cell is not open here)
    if (soc > 0.0) {
      const double headroom = ocv_at(soc) - chem.cutoff_voltage().value();
      if (headroom > 0.0) {
        const double by_voltage = headroom / r;
        const double by_rate = chem.max_discharge_c_rate * nameplate_[c];
        cap_a = std::min(by_voltage, by_rate);
      }
    }
    if (actual.value() > cap_a) {
      actual = Amperes{cap_a};
      result.hit_cutoff = true;
    }
    if (actual.value() > 0.0) {
      // Peukert-corrected SoC drain, then clamp so SoC cannot go negative.
      const double c_eff = peukert_capacity_ah(c, actual.value()) * cap_frac;
      const double dq = actual.value() * dt.value() / 3600.0;
      double dsoc = dq / c_eff;
      if (dsoc > soc) {
        const double scale = soc / dsoc;
        actual *= scale;
        dsoc = soc;
        result.hit_cutoff = true;
      }
      soc -= dsoc;
      // account_discharge(actual, dt, soc_before).
      const AmpereHours q = util::charge(actual, dt);
      ctr.ah_discharged += q;
      // Eq 3 SoC ranges: A = [0.8, 1], B = [0.6, 0.8), C = [0.4, 0.6), D = [0, 0.4).
      std::size_t range = 3;
      if (soc_before >= 0.8) {
        range = 0;
      } else if (soc_before >= 0.6) {
        range = 1;
      } else if (soc_before >= 0.4) {
        range = 2;
      }
      ctr.ah_by_range[range] += q;
      const Volts tv{ocv_at(soc) - actual.value() * r};
      ctr.energy_discharged += util::energy(tv * actual, dt);
      ctr.min_soc_since_full = std::min(ctr.min_soc_since_full, soc);
    }
  } else if (actual.value() < 0.0) {
    // ---- charge ----
    double accept = 0.0;  // max_charge_current (cell is not open here)
    if (soc < 1.0) {
      const double by_rate = chem.max_charge_c_rate * nameplate_[c] *
                             detail::charge_acceptance_f(chem, soc);
      const double headroom = chem.absorb_voltage().value() - ocv_at(soc);
      if (headroom > 0.0) accept = std::min(by_rate, headroom / r);
    }
    if (-actual.value() > accept) actual = Amperes{-accept};
    const double cap = open ? 0.0 : nameplate_[c] * cap_frac;  // usable_capacity
    if (cap <= 0.0) actual = Amperes{0.0};  // zero capacity accepts nothing
    if (actual.value() < 0.0) {
      const double eta = detail::coulombic_efficiency_f(chem, soc) *
                         detail::aging_coulombic_derating_f(aging_params_, cap_frac);
      const double dq = std::fabs(actual.value()) * dt.value() / 3600.0;
      double dsoc = eta * dq / cap;
      if (soc + dsoc > 1.0) {
        const double scale = (1.0 - soc) / dsoc;
        actual *= scale;
        dsoc = 1.0 - soc;
      }
      soc += dsoc;
      // account_charge(actual, dt).
      const AmpereHours q = util::charge(Amperes{std::fabs(actual.value())}, dt);
      ctr.ah_charged += q;
      const double tv = ocv_at(soc) - actual.value() * r;
      ctr.energy_charged += util::energy(Watts{tv * std::fabs(actual.value())}, dt);
    }
  }

  // ---- self-discharge (standing loss, temperature-accelerated) ----
  const double sd_rate =
      chem.self_discharge_per_month / (30.0 * 86400.0) * arrhenius(c, temp_c_[c]);
  soc = std::max(0.0, soc - sd_rate * dt.value());

  result.actual_current = actual;
  result.terminal_voltage = open ? Volts{0.0} : Volts{ocv_at(soc) - actual.value() * r};

  // ---- thermal (exact RC exponential; decay memoized on the fixed dt) ----
  const double loss = actual.value() * actual.value() * r;
  const double temp_before = temp_c_[c];
  const double t_inf =
      thermal_[c].ambient.value() + loss * thermal_[c].thermal_resistance_k_per_w;
  temp_c_[c] = t_inf + (temp_before - t_inf) * thermal_decay(c, dt.value());
  const double dtemp_per_h = std::fabs(temp_c_[c] - temp_before) / dt.value() * 3600.0;

  // ---- full-charge detection (before aging sees time_since_full_charge) ----
  const bool was_full = soc_before >= kFullChargeSoc;
  const bool is_full = soc >= kFullChargeSoc;
  if (is_full && !was_full) {
    result.fully_charged = true;
    ++ctr.full_charge_events;
    ctr.time_since_full_charge = Seconds{0.0};
    ctr.min_soc_since_full = soc;
    ag.stratification *= aging_params_.stratification_heal_factor;  // on_full_charge()
  } else {
    ctr.time_since_full_charge += dt;
  }

  // ---- aging (per-chemistry mechanism set) ----
  OperatingPoint op;
  op.soc = soc;
  op.current = actual;
  op.terminal_voltage = result.terminal_voltage;
  op.temperature = Celsius{temp_c_[c]};
  op.time_since_full_charge = ctr.time_since_full_charge;
  op.temperature_rate_k_per_h = dtemp_per_h;
  chemistry_aging_step(c, op, dt);

  // ---- time counters ----
  ctr.time_total += dt;
  if (soc < 0.40) ctr.time_below_40 += dt;

  soc_[c] = soc;
  // Li cycle fade is driven by the rainflow counter, so the push is
  // unconditional for Li (the ledger toggle only controls the *observation*
  // tax for lead-acid, where rainflow is not part of the physics).
  const bool is_li = kind_ == Chemistry::LiNmc || kind_ == Chemistry::LiLfp;
  if (ledger_enabled_ || is_li) rainflow_[c].push(soc);
  if (is_li) ag.shedding = li_.cycle_fade_at_eol * rainflow_[c].damage();
  BAAT_INVARIANT(soc >= 0.0 && soc <= 1.0, "soc escaped [0, 1]");
  return result;
}

StepResult FleetState::float_charge_cell(std::size_t c, Amperes trickle, Seconds dt) {
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  BAAT_REQUIRE(trickle.value() >= 0.0, "trickle must be >= 0 (magnitude)");
  BAAT_REQUIRE(c < soc_.size(), "cell index out of range");

  const LeadAcidParams& chem = chem_[c];
  AgingState& ag = aging_[c];
  UsageCounters& ctr = counters_[c];
  const bool open = open_[c] != 0;
  double soc = soc_[c];
  const double soc_before = soc;
  const Amperes i{-trickle.value()};

  const double cap_frac = detail::aging_capacity_fraction(aging_params_, ag);
  const double sag_block = detail::aging_ocv_sag_v(aging_params_, cap_frac) * chem.cells;
  const double r = chem.r_internal_ohms * resistance_scale_[c] *
                   detail::aging_resistance_factor(aging_params_, ag);
  const auto ocv_at = [&](double s) {
    return detail::block_ocv_chem_v(chem, s, ocv_curve_) - sag_block;
  };

  // Whatever fits below full still converts; the rest gasses.
  if (soc < 1.0 && trickle.value() > 0.0) {
    const double eta = detail::coulombic_efficiency_f(chem, soc) *
                       detail::aging_coulombic_derating_f(aging_params_, cap_frac);
    const double dq = trickle.value() * dt.value() / 3600.0;
    const double usable = open ? 0.0 : nameplate_[c] * cap_frac;
    soc = std::min(1.0, soc + eta * dq / usable);
    // account_charge(i, dt).
    const AmpereHours q = util::charge(Amperes{std::fabs(i.value())}, dt);
    ctr.ah_charged += q;
    const double tv = open ? 0.0 : ocv_at(soc) - i.value() * r;
    ctr.energy_charged += util::energy(Watts{tv * std::fabs(i.value())}, dt);
  }

  StepResult result;
  result.actual_current = i;
  result.terminal_voltage = chem.absorb_voltage();

  const double loss = trickle.value() * trickle.value() * r;
  const double t_inf =
      thermal_[c].ambient.value() + loss * thermal_[c].thermal_resistance_k_per_w;
  temp_c_[c] = t_inf + (temp_c_[c] - t_inf) * thermal_decay(c, dt.value());

  const bool was_full = soc_before >= kFullChargeSoc;
  if (soc >= kFullChargeSoc && !was_full) {
    result.fully_charged = true;
    ++ctr.full_charge_events;
    ctr.time_since_full_charge = Seconds{0.0};
    ctr.min_soc_since_full = soc;
    ag.stratification *= aging_params_.stratification_heal_factor;  // on_full_charge()
  } else {
    ctr.time_since_full_charge += dt;
  }

  OperatingPoint op;
  op.soc = soc;
  op.current = i;
  op.terminal_voltage = result.terminal_voltage;  // held at absorb level
  op.temperature = Celsius{temp_c_[c]};
  op.time_since_full_charge = ctr.time_since_full_charge;
  chemistry_aging_step(c, op, dt);

  ctr.time_total += dt;
  if (soc < 0.40) ctr.time_below_40 += dt;
  soc_[c] = soc;
  const bool is_li = kind_ == Chemistry::LiNmc || kind_ == Chemistry::LiLfp;
  if (ledger_enabled_ || is_li) rainflow_[c].push(soc);
  if (is_li) ag.shedding = li_.cycle_fade_at_eol * rainflow_[c].damage();
  return result;
}

void FleetState::chemistry_aging_step(std::size_t c, const OperatingPoint& op, Seconds dt) {
  AgingState& ag = aging_[c];
  switch (kind_) {
    case Chemistry::LeadAcid:
      // The five lead-acid rate equations (corrosion, shedding, sulphation,
      // water loss, stratification).
      detail::aging_mechanism_step(aging_params_, nameplate_[c], chem_[c].cells, op, dt,
                                   arrhenius(c, temp_c_[c]), ag);
      break;
    case Chemistry::LiNmc:
    case Chemistry::LiLfp:
      // Calendar fade (Arrhenius x SoC stress) accrues into the corrosion
      // slot; cycle fade is mirrored from the rainflow counter into the
      // shedding slot at the push site.
      ag.corrosion += li_.calendar_per_s * (1.0 + li_.calendar_soc_stress_gain * op.soc) *
                      arrhenius(c, temp_c_[c]) * dt.value();
      break;
    case Chemistry::Bucket:
      // Calendar fade plus a flat per-EFC throughput fade.
      ag.corrosion += li_.calendar_per_s * arrhenius(c, temp_c_[c]) * dt.value();
      ag.shedding += li_.throughput_fade_per_efc *
                     (std::fabs(op.current.value()) * dt.value() / 3600.0 / nameplate_[c]);
      break;
  }
}

StepResult FleetState::step_cell_bucket(std::size_t c, Amperes requested, Seconds dt) {
  BAAT_OBS_TIMED("battery_step");
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  BAAT_REQUIRE(c < soc_.size(), "cell index out of range");
  // The bucket reads its per-cell constants from the same flat SoA mirrors
  // the Simd tier gathers from — one amortized cache line per cell instead
  // of walking the ~2-line LeadAcidParams struct.
  if (derived_dirty_) refresh_derived();

  AgingState& ag = aging_[c];
  UsageCounters& ctr = counters_[c];
  const bool open = open_[c] != 0;
  double soc = soc_[c];
  const double soc_before = soc;

  // The generic five-mechanism helpers stay on this path even though the
  // bucket tick itself only accrues corrosion + shedding: an installed aged
  // state (seed_aged_fleet, tests) may populate any slot, and the fade used
  // here must always equal 1 - cell_health().
  const double cap_frac = detail::aging_capacity_fraction(aging_params_, ag);
  const double inv_nameplate = derived_.inv_nameplate[c];
  // One reciprocal serves every per-capacity term below; the remaining
  // rates multiply by it instead of dividing (the tier's 5x-cheaper budget
  // is mostly bought here — the full kernel pays ~5 divides per tick).
  const double inv_cap = inv_nameplate / cap_frac;  // cap_frac >= 0.05
  const double r =
      derived_.r_base[c] * detail::aging_resistance_factor(aging_params_, ag);

  StepResult result;
  Amperes actual = open ? Amperes{0.0} : requested;
  if (open && requested.value() > 0.0) result.hit_cutoff = true;

  const double hours = dt.value() * (1.0 / 3600.0);
  if (actual.value() > 0.0) {
    // ---- discharge: flat C-rate cap, linear coulomb drain ----
    const double cap_a = soc > 0.0 ? derived_.max_dis_a[c] : 0.0;
    if (actual.value() > cap_a) {
      actual = Amperes{cap_a};
      result.hit_cutoff = true;
    }
    if (actual.value() > 0.0) {
      double dsoc = actual.value() * hours * inv_cap;
      if (dsoc > soc) {
        actual *= soc / dsoc;
        dsoc = soc;
        result.hit_cutoff = true;
      }
      soc -= dsoc;
      const AmpereHours q{actual.value() * hours};
      ctr.ah_discharged += q;
      ag.shedding += li_.throughput_fade_per_efc * (q.value() * inv_nameplate);
      std::size_t range = 3;
      if (soc_before >= 0.8) {
        range = 0;
      } else if (soc_before >= 0.6) {
        range = 1;
      } else if (soc_before >= 0.4) {
        range = 2;
      }
      ctr.ah_by_range[range] += q;
      ctr.min_soc_since_full = std::min(ctr.min_soc_since_full, soc);
    }
  } else if (actual.value() < 0.0) {
    // ---- charge: flat C-rate cap, flat coulombic efficiency ----
    const double accept = soc < 1.0 ? derived_.max_chg_a[c] : 0.0;
    if (-actual.value() > accept) actual = Amperes{-accept};
    if (actual.value() < 0.0) {
      double dsoc =
          derived_.eta_bulk[c] * (-actual.value()) * hours * inv_cap;
      if (soc + dsoc > 1.0) {
        actual *= (1.0 - soc) / dsoc;
        dsoc = 1.0 - soc;
      }
      soc += dsoc;
      const double q = -actual.value() * hours;
      ctr.ah_charged += AmpereHours{q};
      ag.shedding += li_.throughput_fade_per_efc * (q * inv_nameplate);
    }
  }

  // ---- linear OCV; no thermal RC (temperature stays ambient) ----
  const double ocv = derived_.ocv_empty_b[c] + derived_.ocv_span_b[c] * soc;
  result.actual_current = actual;
  result.terminal_voltage = open ? Volts{0.0} : Volts{ocv - actual.value() * r};
  if (actual.value() > 0.0) {
    ctr.energy_discharged +=
        WattHours{result.terminal_voltage.value() * actual.value() * hours};
  } else if (actual.value() < 0.0) {
    ctr.energy_charged +=
        WattHours{result.terminal_voltage.value() * -actual.value() * hours};
  }

  // ---- full-charge detection ----
  const bool was_full = soc_before >= kFullChargeSoc;
  if (soc >= kFullChargeSoc && !was_full) {
    result.fully_charged = true;
    ++ctr.full_charge_events;
    ctr.time_since_full_charge = Seconds{0.0};
    ctr.min_soc_since_full = soc;
  } else {
    ctr.time_since_full_charge += dt;
  }

  // ---- calendar aging (the per-EFC throughput fade accrues in the
  // discharge/charge branches above, off the already-computed Ah moved) ----
  // The bucket has no thermal RC, so the cell sits at ambient and the memo
  // hits every tick after the first; inlining the hit test keeps the
  // out-of-line arrhenius() call (and its register spills) off the hot path.
  const double tc = temp_c_[c];
  const double arr = tc == arr_key_[c] ? arr_val_[c] : arrhenius(c, tc);
  ag.corrosion += li_.calendar_per_s * arr * dt.value();

  ctr.time_total += dt;
  if (soc < 0.40) ctr.time_below_40 += dt;
  soc_[c] = soc;
  // No rainflow: the bucket tier has no cycle model (its mechanism axis is
  // calendar + throughput), so cycle_damage legitimately reads 0 and the
  // per-tick counting cost is dropped with it.
  BAAT_INVARIANT(soc >= 0.0 && soc <= 1.0, "soc escaped [0, 1]");
  return result;
}

void FleetState::step_all(std::span<const Amperes> requested, Seconds dt,
                          std::span<StepResult> results) {
  BAAT_REQUIRE(requested.size() == size() && results.size() == size(),
               "fleet_step span sizes must match the fleet size");
  if (math_ == MathMode::Simd && kind_ == Chemistry::LeadAcid) {
    step_all_simd(requested, dt, results);
    return;
  }
  if (kind_ == Chemistry::Bucket) {
    step_all_bucket(requested, dt, results);
    return;
  }
  for (std::size_t c = 0; c < size(); ++c) results[c] = step_cell(c, requested[c], dt);
}

// Dedicated bucket loop: skips the per-cell dispatch chain in step_cell and
// flattens step_cell_bucket into the loop body, so the per-tick invariants
// (dt-derived constants, dirty check, aging weights) hoist out and
// independent cells overlap in the pipeline instead of serializing on a
// call boundary per cell.
__attribute__((flatten)) void FleetState::step_all_bucket(
    std::span<const Amperes> requested, Seconds dt, std::span<StepResult> results) {
  if (derived_dirty_) refresh_derived();
  for (std::size_t c = 0; c < size(); ++c) {
    results[c] = step_cell_bucket(c, requested[c], dt);
  }
}

void FleetState::step_masked(std::span<const Amperes> requested,
                              std::span<const std::uint8_t> skip, Seconds dt,
                              std::span<StepResult> results) {
  BAAT_REQUIRE(requested.size() == size() && skip.size() == size() &&
                   results.size() == size(),
               "step_masked span sizes must match the fleet size");
  if (math_ == MathMode::Simd && kind_ == Chemistry::LeadAcid) {
    step_masked_simd(requested, skip, dt, results);
    return;
  }
  for (std::size_t c = 0; c < size(); ++c) {
    if (skip[c] == 0) results[c] = step_cell(c, requested[c], dt);
  }
}

// --- view support ------------------------------------------------------------

FleetState FleetState::clone_cell(std::size_t c) const {
  BAAT_REQUIRE(c < soc_.size(), "cell index out of range");
  FleetState out{chem_base_, aging_params_, thermal_base_, math_};
  out.kind_ = kind_;
  out.ocv_curve_ = ocv_curve_;
  out.li_ = li_;
  out.chem_.push_back(chem_[c]);
  out.thermal_.push_back(thermal_[c]);
  out.tau_.push_back(tau_[c]);
  out.nameplate_.push_back(nameplate_[c]);
  out.resistance_scale_.push_back(resistance_scale_[c]);
  out.soc_.push_back(soc_[c]);
  out.temp_c_.push_back(temp_c_[c]);
  out.open_.push_back(open_[c]);
  out.aging_.push_back(aging_[c]);
  out.counters_.push_back(counters_[c]);
  out.arr_key_.push_back(arr_key_[c]);
  out.arr_val_.push_back(arr_val_[c]);
  out.pk_key_.push_back(pk_key_[c]);
  out.pk_val_.push_back(pk_val_[c]);
  out.decay_key_.push_back(decay_key_[c]);
  out.decay_val_.push_back(decay_val_[c]);
  out.ledger_enabled_ = ledger_enabled_;
  out.ledger_curve_ = ledger_curve_;
  out.rainflow_.push_back(rainflow_[c]);
  out.ledger_base_aging_.push_back(ledger_base_aging_[c]);
  out.ledger_base_damage_.push_back(ledger_base_damage_[c]);
  out.ledger_base_efc_.push_back(ledger_base_efc_[c]);
  out.ledger_base_dwell_.push_back(ledger_base_dwell_[c]);
  return out;
}

void FleetState::copy_cell_from(std::size_t dst, const FleetState& src,
                                std::size_t src_cell) {
  BAAT_REQUIRE(dst < soc_.size(), "destination cell index out of range");
  BAAT_REQUIRE(src_cell < src.soc_.size(), "source cell index out of range");
  if (size() == 1) {
    chem_base_ = src.chem_base_;
    aging_params_ = src.aging_params_;
    thermal_base_ = src.thermal_base_;
    math_ = src.math_;
    kind_ = src.kind_;
    ocv_curve_ = src.ocv_curve_;
    li_ = src.li_;
  }
  chem_[dst] = src.chem_[src_cell];
  thermal_[dst] = src.thermal_[src_cell];
  tau_[dst] = src.tau_[src_cell];
  nameplate_[dst] = src.nameplate_[src_cell];
  resistance_scale_[dst] = src.resistance_scale_[src_cell];
  soc_[dst] = src.soc_[src_cell];
  temp_c_[dst] = src.temp_c_[src_cell];
  open_[dst] = src.open_[src_cell];
  aging_[dst] = src.aging_[src_cell];
  counters_[dst] = src.counters_[src_cell];
  arr_key_[dst] = src.arr_key_[src_cell];
  arr_val_[dst] = src.arr_val_[src_cell];
  pk_key_[dst] = src.pk_key_[src_cell];
  pk_val_[dst] = src.pk_val_[src_cell];
  decay_key_[dst] = src.decay_key_[src_cell];
  decay_val_[dst] = src.decay_val_[src_cell];
  rainflow_[dst] = src.rainflow_[src_cell];
  ledger_base_aging_[dst] = src.ledger_base_aging_[src_cell];
  ledger_base_damage_[dst] = src.ledger_base_damage_[src_cell];
  ledger_base_efc_[dst] = src.ledger_base_efc_[src_cell];
  ledger_base_dwell_[dst] = src.ledger_base_dwell_[src_cell];
  derived_dirty_ = true;  // cell_weak faults rewrite chemistry mid-run
}

namespace {

void save_chem(snapshot::SnapshotWriter& w, const LeadAcidParams& p) {
  w.write_i64(p.cells);
  w.write_f64(p.capacity_c20.value());
  w.write_f64(p.ocv_cell_full.value());
  w.write_f64(p.ocv_cell_empty.value());
  w.write_f64(p.r_internal_ohms);
  w.write_f64(p.peukert_exponent);
  w.write_f64(p.cutoff_cell.value());
  w.write_f64(p.gassing_cell.value());
  w.write_f64(p.absorb_cell.value());
  w.write_f64(p.max_discharge_c_rate);
  w.write_f64(p.max_charge_c_rate);
  w.write_f64(p.coulombic_efficiency_bulk);
  w.write_f64(p.coulombic_efficiency_full);
  w.write_f64(p.taper_knee_soc);
  w.write_f64(p.self_discharge_per_month);
}

void load_chem(snapshot::SnapshotReader& r, LeadAcidParams& p) {
  p.cells = static_cast<int>(r.read_i64());
  p.capacity_c20 = AmpereHours{r.read_f64()};
  p.ocv_cell_full = Volts{r.read_f64()};
  p.ocv_cell_empty = Volts{r.read_f64()};
  p.r_internal_ohms = r.read_f64();
  p.peukert_exponent = r.read_f64();
  p.cutoff_cell = Volts{r.read_f64()};
  p.gassing_cell = Volts{r.read_f64()};
  p.absorb_cell = Volts{r.read_f64()};
  p.max_discharge_c_rate = r.read_f64();
  p.max_charge_c_rate = r.read_f64();
  p.coulombic_efficiency_bulk = r.read_f64();
  p.coulombic_efficiency_full = r.read_f64();
  p.taper_knee_soc = r.read_f64();
  p.self_discharge_per_month = r.read_f64();
}

void save_thermal(snapshot::SnapshotWriter& w, const ThermalParams& p) {
  w.write_f64(p.heat_capacity_j_per_k);
  w.write_f64(p.thermal_resistance_k_per_w);
  w.write_f64(p.ambient.value());
}

void load_thermal(snapshot::SnapshotReader& r, ThermalParams& p) {
  p.heat_capacity_j_per_k = r.read_f64();
  p.thermal_resistance_k_per_w = r.read_f64();
  p.ambient = Celsius{r.read_f64()};
}

void save_aging_state(snapshot::SnapshotWriter& w, const AgingState& s) {
  w.write_f64(s.corrosion);
  w.write_f64(s.shedding);
  w.write_f64(s.sulphation);
  w.write_f64(s.water_loss);
  w.write_f64(s.stratification);
}

void load_aging_state(snapshot::SnapshotReader& r, AgingState& s) {
  s.corrosion = r.read_f64();
  s.shedding = r.read_f64();
  s.sulphation = r.read_f64();
  s.water_loss = r.read_f64();
  s.stratification = r.read_f64();
}

void save_counters(snapshot::SnapshotWriter& w, const UsageCounters& c) {
  w.write_f64(c.ah_discharged.value());
  w.write_f64(c.ah_charged.value());
  for (const AmpereHours& ah : c.ah_by_range) w.write_f64(ah.value());
  w.write_f64(c.time_total.value());
  w.write_f64(c.time_below_40.value());
  w.write_f64(c.time_since_full_charge.value());
  w.write_i64(c.full_charge_events);
  w.write_f64(c.min_soc_since_full);
  w.write_f64(c.energy_discharged.value());
  w.write_f64(c.energy_charged.value());
}

void load_counters(snapshot::SnapshotReader& r, UsageCounters& c) {
  c.ah_discharged = AmpereHours{r.read_f64()};
  c.ah_charged = AmpereHours{r.read_f64()};
  for (AmpereHours& ah : c.ah_by_range) ah = AmpereHours{r.read_f64()};
  c.time_total = Seconds{r.read_f64()};
  c.time_below_40 = Seconds{r.read_f64()};
  c.time_since_full_charge = Seconds{r.read_f64()};
  c.full_charge_events = r.read_i64();
  c.min_soc_since_full = r.read_f64();
  c.energy_discharged = WattHours{r.read_f64()};
  c.energy_charged = WattHours{r.read_f64()};
}

}  // namespace

namespace {
std::uint8_t math_mode_byte(MathMode m) {
  switch (m) {
    case MathMode::Exact:
      return 0;
    case MathMode::Fast:
      return 1;
    case MathMode::Simd:
      return 2;
  }
  return 0;
}

// Leading sentinel marking a non-lead-acid fleet snapshot. Lead-acid
// snapshots keep the PR 9 layout byte-for-byte (first byte = math mode,
// always 0/1/2, which can never collide with the sentinel); non-lead-acid
// snapshots prepend [sentinel, chemistry byte] so a resume under a
// different --chemistry is refused with a readable error instead of a
// garbled-stream failure.
constexpr std::uint8_t kChemistrySentinel = 0xC7;
}  // namespace

void FleetState::save_state(snapshot::SnapshotWriter& w) const {
  if (kind_ != Chemistry::LeadAcid) {
    w.write_u8(kChemistrySentinel);
    w.write_u8(static_cast<std::uint8_t>(kind_));
  }
  w.write_u8(math_mode_byte(math_));
  w.write_u64(size());
  for (const LeadAcidParams& p : chem_) save_chem(w, p);
  for (const ThermalParams& p : thermal_) save_thermal(w, p);
  w.write_f64_vec(tau_);
  w.write_f64_vec(nameplate_);
  w.write_f64_vec(resistance_scale_);
  w.write_f64_vec(soc_);
  w.write_f64_vec(temp_c_);
  w.write_u8_vec(open_);
  for (const AgingState& s : aging_) save_aging_state(w, s);
  for (const UsageCounters& c : counters_) save_counters(w, c);
  w.write_f64_vec(arr_key_);
  w.write_f64_vec(arr_val_);
  w.write_f64_vec(pk_key_);
  w.write_f64_vec(pk_val_);
  w.write_f64_vec(decay_key_);
  w.write_f64_vec(decay_val_);
  // Ledger state (format v2): baselines and the open rainflow stacks —
  // cycles that span a checkpoint must resume at full depth.
  w.write_bool(ledger_enabled_);
  for (const OnlineRainflow& rf : rainflow_) rf.save_state(w);
  for (const AgingState& s : ledger_base_aging_) save_aging_state(w, s);
  w.write_f64_vec(ledger_base_damage_);
  w.write_f64_vec(ledger_base_efc_);
  w.write_f64_vec(ledger_base_dwell_);
}

void FleetState::load_state(snapshot::SnapshotReader& r) {
  std::uint8_t saved_byte = r.read_u8();
  Chemistry saved_kind = Chemistry::LeadAcid;
  if (saved_byte == kChemistrySentinel) {
    saved_kind = static_cast<Chemistry>(r.read_u8());
    saved_byte = r.read_u8();  // the math-mode byte follows the tag
  }
  if (saved_kind != kind_) {
    throw snapshot::SnapshotError(
        std::string{"fleet snapshot was taken with --chemistry "} +
        std::string{chemistry_name(saved_kind)} + " but the scenario runs --chemistry " +
        std::string{chemistry_name(kind_)} + "; resume with the chemistry the "
        "checkpoint was written under");
  }
  if (saved_byte != math_mode_byte(math_)) {
    throw snapshot::SnapshotError(
        "fleet snapshot was taken in a different --math mode; resume with the "
        "same math tier the checkpoint was written under");
  }
  const auto n = static_cast<std::size_t>(r.read_u64());
  if (n != size()) {
    throw snapshot::SnapshotError("fleet snapshot holds " + std::to_string(n) +
                                  " cells but the scenario builds " + std::to_string(size()));
  }
  for (LeadAcidParams& p : chem_) load_chem(r, p);
  for (ThermalParams& p : thermal_) load_thermal(r, p);
  tau_ = r.read_f64_vec();
  nameplate_ = r.read_f64_vec();
  resistance_scale_ = r.read_f64_vec();
  soc_ = r.read_f64_vec();
  temp_c_ = r.read_f64_vec();
  open_ = r.read_u8_vec();
  if (tau_.size() != n || nameplate_.size() != n || resistance_scale_.size() != n ||
      soc_.size() != n || temp_c_.size() != n || open_.size() != n) {
    throw snapshot::SnapshotError("fleet snapshot per-cell arrays disagree on cell count");
  }
  for (AgingState& s : aging_) load_aging_state(r, s);
  for (UsageCounters& c : counters_) load_counters(r, c);
  arr_key_ = r.read_f64_vec();
  arr_val_ = r.read_f64_vec();
  pk_key_ = r.read_f64_vec();
  pk_val_ = r.read_f64_vec();
  decay_key_ = r.read_f64_vec();
  decay_val_ = r.read_f64_vec();
  if (arr_key_.size() != n || arr_val_.size() != n || pk_key_.size() != n ||
      pk_val_.size() != n || decay_key_.size() != n || decay_val_.size() != n) {
    throw snapshot::SnapshotError("fleet snapshot memo arrays disagree on cell count");
  }
  ledger_enabled_ = r.read_bool();
  for (OnlineRainflow& rf : rainflow_) rf.load_state(r);
  for (AgingState& s : ledger_base_aging_) load_aging_state(r, s);
  ledger_base_damage_ = r.read_f64_vec();
  ledger_base_efc_ = r.read_f64_vec();
  ledger_base_dwell_ = r.read_f64_vec();
  if (ledger_base_damage_.size() != n || ledger_base_efc_.size() != n ||
      ledger_base_dwell_.size() != n) {
    throw snapshot::SnapshotError("fleet snapshot ledger arrays disagree on cell count");
  }
  derived_dirty_ = true;  // restored chemistry invalidates the derived mirrors
}

}  // namespace baat::battery
