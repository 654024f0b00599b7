#pragma once

// Single-definition inline physics of the battery tick. Every expression
// here is the one source of truth shared by the public wrappers in
// chemistry.cpp / aging.cpp / thermal.cpp and by the batched fleet kernel
// (fleet.cpp): the kernel inlines the whole step in one translation unit
// without duplicating a formula, so the two paths cannot drift apart.
// Bit-exactness contract (DESIGN.md §5e): these are the exact expressions
// the pre-kernel scalar code evaluated, in the same order, with no
// contraction-sensitive rewrites.

#include <algorithm>
#include <cmath>

#include "battery/aging.hpp"
#include "battery/chemistry.hpp"
#include "util/require.hpp"
#include "util/simd.hpp"
#include "util/units.hpp"

namespace baat::battery::detail {

// OCV shape: v(soc) = empty + span * (a*soc + (1-a)*soc^2) would be
// sub-linear near empty; lead-acid is the opposite (voltage collapses toward
// empty), so we use s(soc) = (1+c)*soc - c*soc^2 with c in (0,1):
// slope (1+c) at soc=0, (1-c) at soc=1, monotone on [0,1].
inline constexpr double kOcvCurvature = 0.25;

inline double ocv_shape(double soc) {
  return (1.0 + kOcvCurvature) * soc - kOcvCurvature * soc * soc;
}

/// Whole-block open-circuit voltage of the fresh cell, in volts.
inline double block_ocv_v(const LeadAcidParams& p, double soc) {
  BAAT_REQUIRE(soc >= 0.0 && soc <= 1.0, "soc must be in [0, 1]");
  const double span = (p.ocv_cell_full - p.ocv_cell_empty).value();
  const double cell = p.ocv_cell_empty.value() + span * ocv_shape(soc);
  return cell * p.cells;
}

// --- multi-chemistry OCV curve families (DESIGN.md §5i) ----------------------
// Each maps SoC in [0,1] to a normalized voltage fraction in [0,1] between
// the chemistry's empty and full per-cell OCV. LeadAcidQuadratic dispatches
// to ocv_shape() above so the lead-acid path stays arithmetically identical.

/// LFP plateau knots: a steep toe below 8% SoC, a nearly flat mid plateau
/// (45%..55% of the span across 84% of the SoC range — the shape that makes
/// voltage-based SoC estimation genuinely hard on LFP), a steep shoulder.
inline constexpr double kLfpToeSoc = 0.08;
inline constexpr double kLfpShoulderSoc = 0.92;
inline constexpr double kLfpToeSpan = 0.45;
inline constexpr double kLfpShoulderSpan = 0.55;

inline double ocv_shape_for(OcvCurve curve, double soc) {
  switch (curve) {
    case OcvCurve::LeadAcidQuadratic:
      return ocv_shape(soc);
    case OcvCurve::NmcCubic:
      // Gentle S-shape, strictly increasing on [0,1] (the derivative
      // 1.4 - 1.6x + 1.2x^2 has no real roots), s(0)=0, s(1)=1.
      return soc * (1.4 + soc * (-0.8 + soc * 0.4));
    case OcvCurve::LfpPlateau:
      if (soc < kLfpToeSoc) return soc * (kLfpToeSpan / kLfpToeSoc);
      if (soc < kLfpShoulderSoc) {
        return kLfpToeSpan + (soc - kLfpToeSoc) * ((kLfpShoulderSpan - kLfpToeSpan) /
                                                   (kLfpShoulderSoc - kLfpToeSoc));
      }
      return kLfpShoulderSpan +
             (soc - kLfpShoulderSoc) * ((1.0 - kLfpShoulderSpan) / (1.0 - kLfpShoulderSoc));
    case OcvCurve::Linear:
      return soc;
  }
  return soc;
}

/// NmcCubic's inverse is a fixed 8-step Newton iteration from x = s
/// (deterministic — no convergence-dependent branching; the derivative is
/// bounded below by 0.86 so 8 steps land far under 1e-12).
inline constexpr int kNmcNewtonSteps = 8;

/// One Newton step toward the SoC whose NmcCubic shape is `s`. The scalar
/// inverse below and the span form of soc_from_voltage (chemistry.cpp) both
/// run exactly this expression, so every lane of the batch is the scalar.
inline double nmc_newton_step(double x, double s) {
  const double f = x * (1.4 + x * (-0.8 + x * 0.4)) - s;
  const double df = 1.4 + x * (-1.6 + x * 1.2);
  return x - f / df;
}

/// Inverse of ocv_shape_for on [0,1]: given a normalized voltage fraction,
/// recover SoC. Exact closed forms except NmcCubic (Newton, above).
inline double soc_from_ocv_shape(OcvCurve curve, double s) {
  switch (curve) {
    case OcvCurve::LeadAcidQuadratic: {
      const double c = kOcvCurvature;
      const double disc = (1.0 + c) * (1.0 + c) - 4.0 * c * s;
      return ((1.0 + c) - std::sqrt(disc)) / (2.0 * c);
    }
    case OcvCurve::NmcCubic: {
      double x = s;
      for (int it = 0; it < kNmcNewtonSteps; ++it) x = nmc_newton_step(x, s);
      return x;
    }
    case OcvCurve::LfpPlateau:
      if (s < kLfpToeSpan) return s * (kLfpToeSoc / kLfpToeSpan);
      if (s < kLfpShoulderSpan) {
        return kLfpToeSoc + (s - kLfpToeSpan) * ((kLfpShoulderSoc - kLfpToeSoc) /
                                                 (kLfpShoulderSpan - kLfpToeSpan));
      }
      return kLfpShoulderSoc +
             (s - kLfpShoulderSpan) * ((1.0 - kLfpShoulderSoc) / (1.0 - kLfpShoulderSpan));
    case OcvCurve::Linear:
      return s;
  }
  return s;
}

/// Curve-aware whole-block OCV; the LeadAcidQuadratic case evaluates the
/// exact expression of block_ocv_v above (same operations, same order).
inline double block_ocv_chem_v(const LeadAcidParams& p, double soc, OcvCurve curve) {
  BAAT_REQUIRE(soc >= 0.0 && soc <= 1.0, "soc must be in [0, 1]");
  const double span = (p.ocv_cell_full - p.ocv_cell_empty).value();
  const double cell = p.ocv_cell_empty.value() + span * ocv_shape_for(curve, soc);
  return cell * p.cells;
}

/// Peukert-corrected capacity at a sustained discharge current, in Ah.
/// A NaN current propagates (poison must reach the watchdog, not become a
/// precondition crash mid-kernel); at and below the 20 h rate the nameplate
/// is returned exactly, so I -> 0 can neither divide by zero nor inflate
/// capacity past the C20 rating.
inline double effective_capacity_ah(const LeadAcidParams& p, double i) {
  if (std::isnan(i)) return i;
  BAAT_REQUIRE(i >= 0.0, "discharge current must be >= 0");
  const double i20 = p.rated_current().value();
  if (i <= i20) return p.capacity_c20.value();
  const double shrink = std::pow(i20 / i, p.peukert_exponent - 1.0);
  return p.capacity_c20.value() * shrink;
}

/// Fraction [0,1] of the bulk charge current accepted at `soc`.
inline double charge_acceptance_f(const LeadAcidParams& p, double soc) {
  BAAT_REQUIRE(soc >= 0.0 && soc <= 1.0, "soc must be in [0, 1]");
  if (soc <= p.taper_knee_soc) return 1.0;
  // Linear taper from 1 at the knee down to a trickle at full; the residual
  // 2% keeps float charging alive so the unit can actually reach SoC = 1.
  const double frac = (1.0 - soc) / (1.0 - p.taper_knee_soc);
  return 0.02 + 0.98 * util::clamp01(frac);
}

/// Coulombic efficiency of charging at `soc`.
inline double coulombic_efficiency_f(const LeadAcidParams& p, double soc) {
  BAAT_REQUIRE(soc >= 0.0 && soc <= 1.0, "soc must be in [0, 1]");
  if (soc <= p.taper_knee_soc) return p.coulombic_efficiency_bulk;
  const double frac = (soc - p.taper_knee_soc) / (1.0 - p.taper_knee_soc);
  return p.coulombic_efficiency_bulk +
         (p.coulombic_efficiency_full - p.coulombic_efficiency_bulk) * frac;
}

/// Lifetime acceleration factor relative to 20 °C: doubles every +10 °C.
inline double arrhenius_value(double temp_c) {
  return std::pow(2.0, (temp_c - 20.0) / 10.0);
}

/// Fraction of nameplate capacity remaining, in (0, 1].
inline double aging_capacity_fraction(const AgingParams& p, const AgingState& s) {
  const double fade = p.capacity_w_corrosion * s.corrosion + s.shedding + s.sulphation +
                      s.stratification + p.capacity_w_water * s.water_loss;
  return std::max(0.05, 1.0 - fade);
}

/// Multiplier on the fresh internal resistance, >= 1.
inline double aging_resistance_factor(const AgingParams& p, const AgingState& s) {
  return 1.0 + p.resistance_w_corrosion * s.corrosion +
         p.resistance_w_sulphation * s.sulphation + p.resistance_w_shedding * s.shedding +
         p.resistance_w_water * s.water_loss;
}

/// OCV depression of the aged cell, per cell, in volts.
inline double aging_ocv_sag_v(const AgingParams& p, double capacity_fraction) {
  return p.ocv_sag_v_per_fade_cell * (1.0 - capacity_fraction);
}

/// Multiplier (<= 1) on the fresh coulombic charge efficiency.
inline double aging_coulombic_derating_f(const AgingParams& p, double capacity_fraction) {
  return std::max(0.6, 1.0 - p.coulombic_fade * (1.0 - capacity_fraction));
}

/// One integration step of the five mechanism rate equations. `arr` is the
/// Arrhenius factor at op.temperature — hoisted to the caller so the fleet
/// kernel can serve it from its per-cell memo.
inline void aging_mechanism_step(const AgingParams& params, double capacity_ah, int cells,
                                 const OperatingPoint& op, util::Seconds dt, double arr,
                                 AgingState& state) {
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  BAAT_REQUIRE(op.soc >= 0.0 && op.soc <= 1.0, "soc must be in [0, 1]");

  const double dt_s = dt.value();
  const double i = op.current.value();  // >0 discharge
  const double v_cell = op.terminal_voltage.value() / cells;

  // Active-mass shedding: proportional to Ah moved (both directions stress
  // the plates, discharge dominates), amplified at low SoC and by fast
  // temperature changes (§II-B.2).
  const double efc_moved = std::fabs(i) * dt_s / 3600.0 / capacity_ah;
  if (efc_moved > 0.0) {
    const double low_soc = 1.0 + params.shedding_low_soc_gain * (1.0 - op.soc);
    const double dtemp = 1.0 + params.shedding_dtemp_gain * op.temperature_rate_k_per_h;
    const double direction = i > 0.0 ? 1.0 : 0.35;  // charging stresses less
    state.shedding += params.shedding_per_efc * efc_moved * low_soc * dtemp * arr * direction;
  }

  // Sulphation: grows while sitting below the knee, worse the deeper the
  // discharge and the longer since the last full recharge (§II-B.3).
  if (op.soc < params.sulphation_knee_soc) {
    const double depth = (params.sulphation_knee_soc - op.soc) / params.sulphation_knee_soc;
    const double staleness =
        1.0 + op.time_since_full_charge.value() / params.sulphation_memory.value();
    state.sulphation += params.sulphation_per_s * depth * staleness * arr * dt_s;
  }

  // Grid corrosion: calendar aging accelerated by temperature and by charge
  // polarization above float level (§II-B.1).
  const double over_v = std::max(0.0, v_cell - params.corrosion_voltage_knee_cell.value());
  const double v_gain = 1.0 + params.corrosion_voltage_gain * over_v;
  state.corrosion += params.corrosion_per_s * arr * (i < 0.0 ? v_gain : 1.0) * dt_s;

  // Water loss: the share of charge current that drives gassing once the
  // per-cell voltage passes the float knee (§II-B.4); the share ramps to 1
  // as the voltage approaches the gassing level.
  if (i < 0.0 && v_cell > params.corrosion_voltage_knee_cell.value()) {
    const double gassing_frac =
        util::clamp01((v_cell - params.corrosion_voltage_knee_cell.value()) / 0.15);
    const double gas_efc = std::fabs(i) * dt_s / 3600.0 * gassing_frac / capacity_ah;
    state.water_loss += params.water_per_gassing_efc * gas_efc * arr;
  }

  // Stratification: builds while deeply discharged with small currents and
  // no full recharge (§II-B.5); saturates, and on_full_charge() heals it.
  const double low_i_amperes = params.stratification_low_current_c * capacity_ah;
  if (op.soc < 0.5 && std::fabs(i) < low_i_amperes) {
    state.stratification =
        std::min(params.stratification_cap,
                 state.stratification + params.stratification_per_s * arr * dt_s);
  }
}

// --- lane-batched counterparts (MathMode::Simd) ------------------------------
// The same physics, evaluated W cells at a time on util::simd packs with
// branches turned into masked selects. These are *not* bit-identical to the
// scalar functions above (reassociated constants, fast transcendentals,
// multiplies by precomputed reciprocals) — the simd tier is toleranced like
// the fast tier (lifetime metrics within 0.1%, tests/fleet_kernel_test.cpp).
// What IS exact: a width-1 instantiation computes every lane of a width-W
// instantiation bit-identically (all ops are per-lane, no contraction in the
// kernel TUs), which keeps per-cell and batched simd stepping consistent.

namespace lanes {

template <int W>
using Pack = util::simd::Pack<W>;
template <int W>
using Mask = util::simd::Mask<W>;

/// SoA view of the five aging mechanisms for one lane group.
template <int W>
struct AgingLanes {
  Pack<W> corrosion, shedding, sulphation, water_loss, stratification;
};

template <int W>
inline Pack<W> ocv_shape(const Pack<W>& soc) {
  namespace s = util::simd;
  return s::broadcast<W>(1.0 + kOcvCurvature) * soc -
         s::broadcast<W>(kOcvCurvature) * soc * soc;
}

/// charge_acceptance_f: 1 below the knee, linear taper to the 2% float
/// residual above it. `knee`/`inv_rem` are per-cell (inv_rem is
/// 1/(1 - taper_knee_soc), precomputed in the fleet's derived mirrors).
template <int W>
inline Pack<W> charge_acceptance(const Pack<W>& soc, const Pack<W>& knee,
                                 const Pack<W>& inv_rem) {
  namespace s = util::simd;
  const Pack<W> one = s::broadcast<W>(1.0);
  const Pack<W> frac = (one - soc) * inv_rem;
  const Pack<W> clamped = s::min(s::max(frac, s::broadcast<W>(0.0)), one);
  const Pack<W> taper = s::broadcast<W>(0.02) + s::broadcast<W>(0.98) * clamped;
  return s::select(s::cmp_le(soc, knee), one, taper);
}

template <int W>
inline Pack<W> coulombic_efficiency(const Pack<W>& soc, const Pack<W>& knee,
                                    const Pack<W>& inv_rem, const Pack<W>& eta_bulk,
                                    const Pack<W>& eta_full) {
  namespace s = util::simd;
  const Pack<W> frac = (soc - knee) * inv_rem;
  const Pack<W> tapered = eta_bulk + (eta_full - eta_bulk) * frac;
  return s::select(s::cmp_le(soc, knee), eta_bulk, tapered);
}

template <int W>
inline Pack<W> aging_capacity_fraction(const AgingParams& p, const AgingLanes<W>& a) {
  namespace s = util::simd;
  const Pack<W> fade = s::broadcast<W>(p.capacity_w_corrosion) * a.corrosion +
                       a.shedding + a.sulphation + a.stratification +
                       s::broadcast<W>(p.capacity_w_water) * a.water_loss;
  return s::max(s::broadcast<W>(0.05), s::broadcast<W>(1.0) - fade);
}

template <int W>
inline Pack<W> aging_resistance_factor(const AgingParams& p, const AgingLanes<W>& a) {
  namespace s = util::simd;
  return s::broadcast<W>(1.0) + s::broadcast<W>(p.resistance_w_corrosion) * a.corrosion +
         s::broadcast<W>(p.resistance_w_sulphation) * a.sulphation +
         s::broadcast<W>(p.resistance_w_shedding) * a.shedding +
         s::broadcast<W>(p.resistance_w_water) * a.water_loss;
}

template <int W>
inline Pack<W> aging_coulombic_derating(const AgingParams& p,
                                        const Pack<W>& capacity_fraction) {
  namespace s = util::simd;
  const Pack<W> derated =
      s::broadcast<W>(1.0) -
      s::broadcast<W>(p.coulombic_fade) * (s::broadcast<W>(1.0) - capacity_fraction);
  return s::max(s::broadcast<W>(0.6), derated);
}

/// One masked integration step of the five mechanism rate equations —
/// the lane form of aging_mechanism_step. `current` > 0 discharges;
/// `inv_capacity_ah` is 1/nameplate; `arr` the Arrhenius factor at the
/// post-step temperature; unreferenced mechanisms on a lane stay untouched
/// because every conditional add is a masked select.
template <int W>
inline void aging_mechanism_step(const AgingParams& p, const Pack<W>& capacity_ah,
                                 const Pack<W>& inv_capacity_ah,
                                 const Pack<W>& soc, const Pack<W>& current,
                                 const Pack<W>& v_cell, const Pack<W>& tsfc_s,
                                 const Pack<W>& dtemp_per_h, double dt_s,
                                 const Pack<W>& arr, AgingLanes<W>& st) {
  namespace s = util::simd;
  const Pack<W> zero = s::broadcast<W>(0.0);
  const Pack<W> one = s::broadcast<W>(1.0);
  const Pack<W> abs_i = s::abs(current);
  const double dq_scale = dt_s / 3600.0;

  // Active-mass shedding (§II-B.2).
  const Pack<W> efc_moved = abs_i * s::broadcast<W>(dq_scale) * inv_capacity_ah;
  const Pack<W> low_soc = one + s::broadcast<W>(p.shedding_low_soc_gain) * (one - soc);
  const Pack<W> dtemp_f = one + s::broadcast<W>(p.shedding_dtemp_gain) * dtemp_per_h;
  const Pack<W> direction =
      s::select(s::cmp_gt(current, zero), one, s::broadcast<W>(0.35));
  const Pack<W> dshed = s::broadcast<W>(p.shedding_per_efc) * efc_moved * low_soc *
                        dtemp_f * arr * direction;
  st.shedding = st.shedding + s::select(s::cmp_gt(efc_moved, zero), dshed, zero);

  // Sulphation below the knee (§II-B.3).
  const Pack<W> knee = s::broadcast<W>(p.sulphation_knee_soc);
  const Pack<W> depth = (knee - soc) / knee;
  const Pack<W> staleness =
      one + tsfc_s * s::broadcast<W>(1.0 / p.sulphation_memory.value());
  const Pack<W> dsulph =
      s::broadcast<W>(p.sulphation_per_s * dt_s) * depth * staleness * arr;
  st.sulphation = st.sulphation + s::select(s::cmp_lt(soc, knee), dsulph, zero);

  // Grid corrosion (§II-B.1) — unconditional calendar term, voltage gain
  // only while charging above the float knee.
  const Pack<W> knee_v = s::broadcast<W>(p.corrosion_voltage_knee_cell.value());
  const Pack<W> over_v = s::max(zero, v_cell - knee_v);
  const Pack<W> v_gain = one + s::broadcast<W>(p.corrosion_voltage_gain) * over_v;
  const Mask<W> charging = s::cmp_lt(current, zero);
  const Pack<W> gain = s::select(charging, v_gain, one);
  st.corrosion = st.corrosion + s::broadcast<W>(p.corrosion_per_s * dt_s) * arr * gain;

  // Water loss from gassing (§II-B.4).
  const Pack<W> gassing_frac =
      s::min(one, s::max(zero, (v_cell - knee_v) * s::broadcast<W>(1.0 / 0.15)));
  const Pack<W> gas_efc =
      abs_i * s::broadcast<W>(dq_scale) * gassing_frac * inv_capacity_ah;
  const Pack<W> dwater = s::broadcast<W>(p.water_per_gassing_efc) * gas_efc * arr;
  const Mask<W> gassing = s::mask_and(charging, s::cmp_gt(v_cell, knee_v));
  st.water_loss = st.water_loss + s::select(gassing, dwater, zero);

  // Stratification (§II-B.5) — saturating, healed on full charge elsewhere.
  const Pack<W> low_i = s::broadcast<W>(p.stratification_low_current_c) * capacity_ah;
  const Mask<W> stratifying = s::mask_and(s::cmp_lt(soc, s::broadcast<W>(0.5)),
                                          s::cmp_lt(abs_i, low_i));
  const Pack<W> grown =
      s::min(s::broadcast<W>(p.stratification_cap),
             st.stratification + s::broadcast<W>(p.stratification_per_s * dt_s) * arr);
  st.stratification = s::select(stratifying, grown, st.stratification);
}

}  // namespace lanes

}  // namespace baat::battery::detail
