// MathMode::Simd tick kernel: the branchless, lane-batched port of
// FleetState::step_cell. Cells advance util::simd::kLanes at a time over the
// SoA arrays; every scalar branch becomes a masked bitwise select, so both
// sides of each charge/discharge decision are computed and the untaken one
// is discarded exactly. Unselected lanes are allowed to produce inf/NaN
// garbage (0/0 overdrain scales, i20/0 Peukert ratios) — the selects are
// bitwise, and anything UB-adjacent (float->int casts, shifts inside the
// lane fast_exp2) first folds special lanes to 0.
//
// Staging: the kernel is fissioned into five phase loops over a block of up
// to kBlockCells cells, with small aligned scratch buffers carrying the
// handful of per-cell intermediates between phases. A single monolithic
// group body keeps ~30 packs live at once and drowns in register spills
// (every ymm round-trips through the stack); the staged form keeps each
// phase's working set inside the 16 vector registers. The per-cell math is
// untouched — only the visit order interleaves, and every memo is keyed
// per cell — so results are bitwise identical to the unstaged form.
//
// Consistency contract: step_cell_simd is the W = 1 instantiation of
// step_block_simd, compiled in this same TU with contraction off, so the
// per-cell path, the router's masked batch and the batched step_all path are
// bitwise identical within the tier (tests/fleet_kernel_test.cpp pins this).
// Against the Exact tier the simd trajectories are toleranced like Fast:
// lifetime metrics within 0.1% (reassociated constants, precomputed
// reciprocals, lane fastmath transcendentals).
//
// This TU is compiled with the SIMD arch flags (AVX2 on x86) and
// -ffp-contract=off — see src/battery/CMakeLists.txt. The scalar
// fallback build (BAAT_SIMD=OFF) compiles the same source with the
// default flags and stays correct, just slower.

#include <array>
#include <cmath>
#include <cstdint>

#include "battery/fleet.hpp"
#include "battery/step_math.hpp"
#include "util/require.hpp"
#include "util/simd.hpp"

namespace baat::battery {

namespace {
constexpr double kFullChargeSoc = 0.995;  // keep in sync with fleet.cpp
// Cells staged per step_block_simd call. One W = 8 group per block measures
// fastest on the gated 384-cell config: the phase loops still get their
// spill-free register allocation (each phase body is its own loop nest),
// but every inter-phase scratch value and the block's slice of the SoA /
// aging / counter arrays stay L1-hot across all five phases instead of
// being re-streamed per phase. Larger blocks (16–128 were measured) only
// add scratch traffic.
constexpr std::size_t kBlockCells = 8;
}  // namespace

void FleetState::refresh_derived() {
  const std::size_t n = size();
  DerivedSoA& d = derived_;
  for (std::vector<double>* v :
       {&d.ocv_empty_b, &d.ocv_span_b, &d.cutoff_v, &d.absorb_v, &d.cells_d,
        &d.inv_cells, &d.r_base, &d.i20, &d.cap_c20, &d.pk_exp_m1, &d.max_dis_a,
        &d.max_chg_a, &d.taper_knee, &d.inv_taper_rem, &d.eta_bulk, &d.eta_full,
        &d.sd_rate, &d.ambient_c, &d.r_th, &d.inv_nameplate}) {
    v->resize(n);
  }
  for (std::size_t c = 0; c < n; ++c) {
    const LeadAcidParams& p = chem_[c];
    d.cells_d[c] = static_cast<double>(p.cells);
    d.inv_cells[c] = 1.0 / static_cast<double>(p.cells);
    d.ocv_empty_b[c] = p.ocv_cell_empty.value() * p.cells;
    d.ocv_span_b[c] = (p.ocv_cell_full - p.ocv_cell_empty).value() * p.cells;
    d.cutoff_v[c] = p.cutoff_voltage().value();
    d.absorb_v[c] = p.absorb_voltage().value();
    d.r_base[c] = p.r_internal_ohms * resistance_scale_[c];
    d.i20[c] = p.rated_current().value();
    d.cap_c20[c] = p.capacity_c20.value();
    d.pk_exp_m1[c] = p.peukert_exponent - 1.0;
    d.max_dis_a[c] = p.max_discharge_c_rate * nameplate_[c];
    d.max_chg_a[c] = p.max_charge_c_rate * nameplate_[c];
    d.taper_knee[c] = p.taper_knee_soc;
    d.inv_taper_rem[c] = 1.0 / (1.0 - p.taper_knee_soc);
    d.eta_bulk[c] = p.coulombic_efficiency_bulk;
    d.eta_full[c] = p.coulombic_efficiency_full;
    d.sd_rate[c] = p.self_discharge_per_month / (30.0 * 86400.0);
    d.ambient_c[c] = thermal_[c].ambient.value();
    d.r_th[c] = thermal_[c].thermal_resistance_k_per_w;
    d.inv_nameplate[c] = 1.0 / nameplate_[c];
  }
  derived_dirty_ = false;
}

template <int W>
#if defined(__GNUC__)
// Inline the whole lane-math call tree into the kernel body: at this size
// GCC's inliner gives up on fast_exp2<W>/fast_log2<W>/aging_mechanism_step<W>
// and emits out-of-line calls with every Pack spilled through memory, which
// costs more than the math itself.
__attribute__((flatten))
#endif
void FleetState::step_block_simd(std::size_t base, std::size_t count,
                                 const Amperes* requested, Seconds dt,
                                 StepResult* results) {
  namespace s = util::simd;
  using P = s::Pack<W>;
  using M = s::Mask<W>;

  const double dt_s = dt.value();
  const double dq_scale = dt_s / 3600.0;
  const P zero = s::broadcast<W>(0.0);
  const P one = s::broadcast<W>(1.0);
  const DerivedSoA& d = derived_;

  // Inter-phase scratch (indexed by block offset, not cell id). soc_ and
  // temp_c_ keep their pre-step values until phase 5, so the phases that
  // need pre-step state reload it from the SoA instead of buffering it.
  alignas(32) double actual_b[kBlockCells];
  alignas(32) double new_soc_b[kBlockCells];
  alignas(32) double soc2_b[kBlockCells];
  alignas(32) double tv_b[kBlockCells];
  alignas(32) double new_temp_b[kBlockCells];
  alignas(32) double dtemp_b[kBlockCells];
  alignas(32) double tsfc_b[kBlockCells];
  alignas(32) double r_b[kBlockCells];
  alignas(32) double sag_b[kBlockCells];
  alignas(32) std::uint64_t cutoff_b[kBlockCells];

  // --- phase 1: current transfer + usage accounting --------------------------
  for (std::size_t o = 0; o < count; o += W) {
    const std::size_t g = base + o;
    const P soc0 = s::load<W>(&soc_[g]);
    const P soc = soc0;
    P req;
    M open;
    for (int i = 0; i < W; ++i) {
      req.v[i] = requested[o + i].value();
      open.v[i] = open_[g + i] != 0 ? ~std::uint64_t{0} : 0;
    }
    detail::lanes::AgingLanes<W> ag;
    for (int i = 0; i < W; ++i) {
      const AgingState& a = aging_[g + i];
      ag.corrosion.v[i] = a.corrosion;
      ag.shedding.v[i] = a.shedding;
      ag.sulphation.v[i] = a.sulphation;
      ag.water_loss.v[i] = a.water_loss;
      ag.stratification.v[i] = a.stratification;
    }
    const P nameplate = s::load<W>(&nameplate_[g]);
    // Per-tick hoists (aging-derived factors, as in the scalar kernel).
    const P cap_frac = detail::lanes::aging_capacity_fraction<W>(aging_params_, ag);
    const P sag_block = s::broadcast<W>(aging_params_.ocv_sag_v_per_fade_cell) *
                        (one - cap_frac) * s::load<W>(&d.cells_d[g]);
    const P r = s::load<W>(&d.r_base[g]) *
                detail::lanes::aging_resistance_factor<W>(aging_params_, ag);
    const P ocv_empty_b = s::load<W>(&d.ocv_empty_b[g]);
    const P ocv_span_b = s::load<W>(&d.ocv_span_b[g]);
    const auto ocv_at = [&](const P& x) {
      return ocv_empty_b + ocv_span_b * detail::lanes::ocv_shape<W>(x) - sag_block;
    };

    P actual = s::select(open, zero, req);
    M hit_cutoff = s::mask_and(open, s::cmp_gt(req, zero));

    // Transfer (discharge and charge lanes share one masked body). The
    // scalar kernel's two branches are near-mirrors: clamp the request to
    // a voltage-headroom/rate cap, convert to a SoC delta against the
    // effective capacity, and rescale the current if the delta overruns the
    // available room. Fusing them per-direction-selected halves the OCV
    // chains and divisions versus evaluating both branches separately. The
    // whole body sits behind an any() guard: a group with no transferring
    // lane stores exactly what the masked computation would have stored
    // (everything here is select-discarded on non-member lanes), so skipping
    // is invisible to the W = 1 == W = kLanes contract and an all-idle 0 A
    // group in the router's masked batch pays almost nothing.
    const M d0 = s::cmp_gt(actual, zero);
    const M c0 = s::cmp_lt(actual, zero);
    const M active = s::mask_or(d0, c0);
    P new_soc = soc;
    if (s::any(active)) {
      const P ocv0 = ocv_at(soc);
      P abs_a = s::abs(actual);
      const P headroom = s::select(d0, ocv0 - s::load<W>(&d.cutoff_v[g]),
                                   s::load<W>(&d.absorb_v[g]) - ocv0);
      const M soc_ok = s::mask_or(s::mask_and(d0, s::cmp_gt(soc, zero)),
                                  s::mask_and(c0, s::cmp_lt(soc, one)));
      const M can = s::mask_and(soc_ok, s::cmp_gt(headroom, zero));
      const P knee = s::load<W>(&d.taper_knee[g]);
      const P inv_rem = s::load<W>(&d.inv_taper_rem[g]);
      const P rate_cap =
          s::select(d0, s::load<W>(&d.max_dis_a[g]),
                    s::load<W>(&d.max_chg_a[g]) *
                        detail::lanes::charge_acceptance<W>(soc, knee, inv_rem));
      const P cap_a = s::select(can, s::min(headroom / r, rate_cap), zero);
      const M over = s::mask_and(active, s::cmp_gt(abs_a, cap_a));
      abs_a = s::select(over, cap_a, abs_a);
      hit_cutoff = s::mask_or(hit_cutoff, s::mask_and(over, d0));
      const P cap = nameplate * cap_frac;
      abs_a = s::select(s::mask_and(c0, s::cmp_le(cap, zero)), zero, abs_a);
      const M live = s::mask_and(active, s::cmp_gt(abs_a, zero));
      const M d1 = s::mask_and(live, d0);
      // Peukert shrink; lanes at or below rated current keep full capacity.
      // Misses go through the per-cell ratio memo shared with the scalar
      // peukert_capacity_ah: the key -> value mapping is the same pure
      // function (the lane fast_pow is bitwise the scalar fast_pow), so a
      // hit returns the exact double a recompute would produce, and the
      // constant-current stretches the router emits make hits the common
      // case. Per-cell keys keep the decision independent of lane grouping.
      const P i20 = s::load<W>(&d.i20[g]);
      const M need = s::mask_and(d1, s::cmp_gt(abs_a, i20));
      P shrink = one;
      if (s::any(need)) {
        const P ratio = i20 / abs_a;  // inf/NaN on non-need lanes: discarded
        const P keys = s::load<W>(&pk_key_[g]);
        P pkv = s::load<W>(&pk_val_[g]);
        // cmp_eq is false for the NaN sentinel keys, so fresh cells miss.
        const M miss = s::mask_and(need, s::mask_not(s::cmp_eq(ratio, keys)));
        if (s::any(miss)) {
          const P computed = s::fast_pow(ratio, s::load<W>(&d.pk_exp_m1[g]));
          pkv = s::select(miss, computed, pkv);
          s::store(&pk_key_[g], s::select(miss, ratio, keys));
          s::store(&pk_val_[g], pkv);
        }
        shrink = s::select(need, pkv, one);
      }
      const P eta =
          detail::lanes::coulombic_efficiency<W>(soc, knee, inv_rem,
                                                 s::load<W>(&d.eta_bulk[g]),
                                                 s::load<W>(&d.eta_full[g])) *
          detail::lanes::aging_coulombic_derating<W>(aging_params_, cap_frac);
      // One shared division: dsoc = transferred charge over the effective
      // capacity, with the direction-dependent numerator (charge keeps only
      // the eta fraction) and denominator (discharge shrinks by Peukert).
      const P num = s::select(d0, abs_a, eta * abs_a);
      const P den =
          s::select(d0, s::load<W>(&d.cap_c20[g]) * shrink, nameplate) * cap_frac;
      P dsoc = num * s::broadcast<W>(dq_scale) / den;
      const P room = s::select(d0, soc, one - soc);
      const M overrun = s::mask_and(live, s::cmp_gt(dsoc, room));
      if (s::any(overrun)) {  // only near the SoC rails; skips a division
        abs_a = s::select(overrun, abs_a * (room / dsoc), abs_a);
        dsoc = s::select(overrun, room, dsoc);
        hit_cutoff = s::mask_or(hit_cutoff, s::mask_and(overrun, d0));
      }
      new_soc = s::select(live, soc + s::select(d0, -dsoc, dsoc), soc);
      actual = s::select(c0, -abs_a, abs_a);

      // Accounting. Terminal voltage at the post-transfer SoC feeds the
      // energy counters (the scalar kernel reads it mid-branch, before
      // self-discharge); q and e match both scalar branches bitwise since
      // actual == +-abs_a exactly.
      const P tv_mid = ocv_at(new_soc) - actual * r;
      const P q_pack = abs_a * s::broadcast<W>(dq_scale);
      const P e_pack = tv_mid * abs_a * s::broadcast<W>(dq_scale);
      for (int i = 0; i < W; ++i) {
        if (!s::lane(live, i)) continue;
        UsageCounters& ctr = counters_[g + i];
        if (s::lane(d1, i)) {
          ctr.ah_discharged += AmpereHours{q_pack.v[i]};
          // Eq 3 SoC ranges: A = [0.8, 1], B = [0.6, 0.8), C = [0.4, 0.6),
          // D = [0, 0.4) — as a branchless index off the pre-step SoC.
          const int range = 3 - static_cast<int>(soc0.v[i] >= 0.4) -
                            static_cast<int>(soc0.v[i] >= 0.6) -
                            static_cast<int>(soc0.v[i] >= 0.8);
          ctr.ah_by_range[static_cast<std::size_t>(range)] += AmpereHours{q_pack.v[i]};
          ctr.energy_discharged += WattHours{e_pack.v[i]};
          ctr.min_soc_since_full = std::min(ctr.min_soc_since_full, new_soc.v[i]);
        } else {
          ctr.ah_charged += AmpereHours{q_pack.v[i]};
          ctr.energy_charged += WattHours{e_pack.v[i]};
        }
      }
    }

    s::store(&actual_b[o], actual);
    s::store(&new_soc_b[o], new_soc);
    s::store(&r_b[o], r);
    s::store(&sag_b[o], sag_block);
    s::store_mask(&cutoff_b[o], hit_cutoff);
  }

  // --- phase 2: self-discharge + terminal voltage + thermal ------------------
  for (std::size_t o = 0; o < count; o += W) {
    const std::size_t g = base + o;
    const P new_soc = s::load<W>(&new_soc_b[o]);
    const P actual = s::load<W>(&actual_b[o]);
    const P r = s::load<W>(&r_b[o]);
    const P sag_block = s::load<W>(&sag_b[o]);
    const P temp = s::load<W>(&temp_c_[g]);  // still pre-step
    M open;
    for (int i = 0; i < W; ++i) {
      open.v[i] = open_[g + i] != 0 ? ~std::uint64_t{0} : 0;
    }

    // Self-discharge (standing loss at the pre-step temperature). Arrhenius
    // factors go through the per-cell memo shared with the scalar
    // arrhenius(): same key -> value mapping (the lane fast_exp2 is bitwise
    // the scalar fast_exp2), so a hit returns the exact recompute value. The
    // arr2 lookup in phase 4 re-keys the memo at the post-step temperature,
    // which is next tick's pre-step temperature — once the thermal RC
    // settles, neither factor costs a transcendental. A NaN-poisoned
    // temperature always misses (NaN != key) and propagates through
    // fast_exp2.
    P arr_old = s::load<W>(&arr_val_[g]);
    {
      const P keys = s::load<W>(&arr_key_[g]);
      // cmp_eq is false both for the NaN sentinel keys of fresh cells and
      // for a NaN-poisoned temperature, so those lanes always recompute.
      const M miss = s::mask_not(s::cmp_eq(temp, keys));
      if (s::any(miss)) {
        const P computed =
            s::fast_exp2((temp - s::broadcast<W>(20.0)) / s::broadcast<W>(10.0));
        arr_old = s::select(miss, computed, arr_old);
        s::store(&arr_key_[g], s::select(miss, temp, keys));
        s::store(&arr_val_[g], arr_old);
      }
    }
    const P soc_sd =
        new_soc - s::load<W>(&d.sd_rate[g]) * arr_old * s::broadcast<W>(dt_s);
    // std::max(0.0, x) semantics, NaN included (a poisoned lane flushes to 0
    // exactly like the scalar kernel; the watchdog catches the NaN upstream).
    const P soc2 = s::select(s::cmp_gt(soc_sd, zero), soc_sd, zero);

    const P ocv2 = s::load<W>(&d.ocv_empty_b[g]) +
                   s::load<W>(&d.ocv_span_b[g]) * detail::lanes::ocv_shape<W>(soc2) -
                   sag_block;
    const P tv = s::select(open, zero, ocv2 - actual * r);

    // Thermal (exact RC exponential; decay memoized on the fixed dt).
    const P loss = actual * actual * r;
    const P t_inf = s::load<W>(&d.ambient_c[g]) + loss * s::load<W>(&d.r_th[g]);
    P decay = s::load<W>(&decay_val_[g]);
    {
      const P dt_pack = s::broadcast<W>(dt_s);
      const M miss = s::mask_not(s::cmp_eq(dt_pack, s::load<W>(&decay_key_[g])));
      if (s::any(miss)) {  // once per (cell, dt): the fixed sim dt makes this cold
        for (int i = 0; i < W; ++i) {
          const std::size_t c = g + i;
          if (s::lane(miss, i)) {
            decay_key_[c] = dt_s;
            decay_val_[c] = std::exp(-dt_s / tau_[c]);
            decay.v[i] = decay_val_[c];
          }
        }
      }
    }
    const P new_temp = t_inf + (temp - t_inf) * decay;
    const P dtemp_per_h =
        s::abs(new_temp - temp) / s::broadcast<W>(dt_s) * s::broadcast<W>(3600.0);

    s::store(&soc2_b[o], soc2);
    s::store(&tv_b[o], tv);
    s::store(&new_temp_b[o], new_temp);
    s::store(&dtemp_b[o], dtemp_per_h);
  }

  // --- phase 3: full-charge detection (before aging sees the tsfc clock) -----
  // Pack compares find crossing lanes (a NaN SoC compares false on both
  // sides, so a poisoned lane never registers an event — same as the scalar
  // `>=` pair); the event path itself is per-lane and cold. The
  // stratification heal writes straight to the AoS aging state, which phase
  // 4 re-gathers — same heal-before-mechanisms order as the scalar kernel.
  for (std::size_t o = 0; o < count; o += W) {
    const std::size_t g = base + o;
    const P soc0 = s::load<W>(&soc_[g]);  // still pre-step
    const P soc2 = s::load<W>(&soc2_b[o]);
    const P full_thresh = s::broadcast<W>(kFullChargeSoc);
    const M fully_charged =
        s::mask_and(s::cmp_ge(soc2, full_thresh),
                    s::mask_not(s::cmp_ge(soc0, full_thresh)));
    if (s::any(fully_charged)) {
      for (int i = 0; i < W; ++i) {
        UsageCounters& ctr = counters_[g + i];
        if (s::lane(fully_charged, i)) {
          ++ctr.full_charge_events;
          ctr.time_since_full_charge = Seconds{0.0};
          ctr.min_soc_since_full = soc2.v[i];
          aging_[g + i].stratification *= aging_params_.stratification_heal_factor;
        } else {
          ctr.time_since_full_charge += dt;
        }
        tsfc_b[o + i] = ctr.time_since_full_charge.value();
      }
    } else {
      for (int i = 0; i < W; ++i) {
        UsageCounters& ctr = counters_[g + i];
        ctr.time_since_full_charge += dt;
        tsfc_b[o + i] = ctr.time_since_full_charge.value();
      }
    }
  }

  // --- phase 4: aging --------------------------------------------------------
  for (std::size_t o = 0; o < count; o += W) {
    const std::size_t g = base + o;
    detail::lanes::AgingLanes<W> ag;
    for (int i = 0; i < W; ++i) {
      const AgingState& a = aging_[g + i];
      ag.corrosion.v[i] = a.corrosion;
      ag.shedding.v[i] = a.shedding;
      ag.sulphation.v[i] = a.sulphation;
      ag.water_loss.v[i] = a.water_loss;
      ag.stratification.v[i] = a.stratification;
    }
    const P new_temp = s::load<W>(&new_temp_b[o]);
    P arr2 = s::load<W>(&arr_val_[g]);
    {
      const P keys = s::load<W>(&arr_key_[g]);
      const M miss = s::mask_not(s::cmp_eq(new_temp, keys));
      if (s::any(miss)) {
        const P computed = s::fast_exp2((new_temp - s::broadcast<W>(20.0)) /
                                        s::broadcast<W>(10.0));
        arr2 = s::select(miss, computed, arr2);
        s::store(&arr_key_[g], s::select(miss, new_temp, keys));
        s::store(&arr_val_[g], arr2);
      }
    }
    detail::lanes::aging_mechanism_step<W>(
        aging_params_, s::load<W>(&nameplate_[g]), s::load<W>(&d.inv_nameplate[g]),
        s::load<W>(&soc2_b[o]), s::load<W>(&actual_b[o]),
        s::load<W>(&tv_b[o]) * s::load<W>(&d.inv_cells[g]), s::load<W>(&tsfc_b[o]),
        s::load<W>(&dtemp_b[o]), dt_s, arr2, ag);
    for (int i = 0; i < W; ++i) {
      AgingState& a = aging_[g + i];
      a.corrosion = ag.corrosion.v[i];
      a.shedding = ag.shedding.v[i];
      a.sulphation = ag.sulphation.v[i];
      a.water_loss = ag.water_loss.v[i];
      a.stratification = ag.stratification.v[i];
    }
  }

  // --- phase 5: state stores, time counters, ledger, results -----------------
  for (std::size_t o = 0; o < count; o += W) {
    const std::size_t g = base + o;
    const P soc0 = s::load<W>(&soc_[g]);  // pre-step, for the event recompute
    const P soc2 = s::load<W>(&soc2_b[o]);
    // Recomputing the event mask from (soc0, soc2) is bitwise the phase 3
    // mask — same inputs, same compares — and cheaper than buffering it.
    const P full_thresh = s::broadcast<W>(kFullChargeSoc);
    const M fully_charged =
        s::mask_and(s::cmp_ge(soc2, full_thresh),
                    s::mask_not(s::cmp_ge(soc0, full_thresh)));
    const M hit_cutoff = s::load_mask<W>(&cutoff_b[o]);
    s::store(&soc_[g], soc2);
    s::store(&temp_c_[g], s::load<W>(&new_temp_b[o]));
    for (int i = 0; i < W; ++i) {
      const std::size_t c = g + i;
      UsageCounters& ctr = counters_[c];
      ctr.time_total += dt;
      if (soc2.v[i] < 0.40) ctr.time_below_40 += dt;
      if (ledger_enabled_) rainflow_[c].push(soc2.v[i]);
      StepResult& res = results[o + i];
      res.actual_current = Amperes{actual_b[o + i]};
      res.terminal_voltage = Volts{tv_b[o + i]};
      res.hit_cutoff = s::lane(hit_cutoff, i);
      res.fully_charged = s::lane(fully_charged, i);
    }
    // Vector form of the per-lane `soc2 in [0, 1]` invariant: a NaN lane
    // fails both compares, so poisoned state still trips the check. The
    // per-lane re-check only runs on the (fatal) failure path to pinpoint
    // the lane.
    if (s::any(s::mask_not(
            s::mask_and(s::cmp_ge(soc2, zero), s::cmp_le(soc2, one))))) {
      for (int i = 0; i < W; ++i)
        BAAT_INVARIANT(soc2.v[i] >= 0.0 && soc2.v[i] <= 1.0, "soc escaped [0, 1]");
    }
  }
}

template void FleetState::step_block_simd<1>(std::size_t, std::size_t,
                                             const Amperes*, Seconds, StepResult*);
template void FleetState::step_block_simd<util::simd::kLanes>(std::size_t,
                                                              std::size_t,
                                                              const Amperes*, Seconds,
                                                              StepResult*);

StepResult FleetState::step_cell_simd(std::size_t c, Amperes requested, Seconds dt) {
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  BAAT_REQUIRE(c < size(), "cell index out of range");
  if (derived_dirty_) refresh_derived();
  StepResult result;
  step_block_simd<1>(c, 1, &requested, dt, &result);
  return result;
}

void FleetState::step_all_simd(std::span<const Amperes> requested, Seconds dt,
                               std::span<StepResult> results) {
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  if (derived_dirty_) refresh_derived();
  constexpr int W = util::simd::kLanes;
  const std::size_t n = size();
  std::size_t c = 0;
  while (c < n) {
    const std::size_t block = std::min(kBlockCells, n - c);
    const std::size_t vec = block - block % W;
    if (vec != 0) {
      step_block_simd<W>(c, vec, requested.data() + c, dt, results.data() + c);
    }
    if (vec != block) {
      step_block_simd<1>(c + vec, block - vec, requested.data() + c + vec, dt,
                         results.data() + c + vec);
    }
    c += block;
  }
}

void FleetState::step_masked_simd(std::span<const Amperes> requested,
                                  std::span<const std::uint8_t> skip, Seconds dt,
                                  std::span<StepResult> results) {
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  if (derived_dirty_) refresh_derived();
  constexpr int W = util::simd::kLanes;
  static_assert(kBlockCells == W, "a masked block is one lane group");
  const std::size_t n = size();
  for (std::size_t c = 0; c < n; c += kBlockCells) {
    const std::size_t block = std::min(kBlockCells, n - c);
    bool full = block == kBlockCells;
    for (std::size_t o = 0; o < block && full; ++o) full = skip[c + o] == 0;
    if (full) {
      step_block_simd<W>(c, block, requested.data() + c, dt, results.data() + c);
      continue;
    }
    for (std::size_t cell = c; cell < c + block; ++cell) {
      if (skip[cell] == 0) {
        step_block_simd<1>(cell, 1, requested.data() + cell, dt, results.data() + cell);
      }
    }
  }
}

}  // namespace baat::battery
