// Bit-identity and cache-soundness tests for the batched tick kernel
// (DESIGN.md §5e). The contract under test: a FleetState stepping N cells
// through one fleet_step() per tick produces *bit-identical* trajectories
// to N standalone Battery objects stepped in a loop, across sunny, cloudy
// and faulted duty cycles — and the transcendental memos (Arrhenius,
// Peukert, thermal decay, KiBaM e^{-kt}) return the exact double a cold
// computation would, hit or miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "battery/battery.hpp"
#include "battery/chemistry_model.hpp"
#include "battery/fleet.hpp"
#include "battery/kibam.hpp"
#include "battery/thermal.hpp"
#include "util/fastmath.hpp"

namespace baat::battery {
namespace {

using util::Amperes;
using util::Seconds;

constexpr std::size_t kCells = 6;
constexpr long kTicks = 10000;
const Seconds kDt{60.0};

/// Deterministic day-shaped duty cycle: night discharge, midday charge,
/// evening discharge, detuned per cell so trajectories decorrelate.
double requested_amps(long tick, std::size_t cell, double charge_amps) {
  const long phase = tick % 1440;  // one simulated day at 60 s ticks
  const double detune = 0.25 * static_cast<double>(cell);
  if (phase < 480) return 4.0 + detune;
  if (phase < 1080) return -(charge_amps + 2.0 * detune);
  return 2.0 + 0.5 * detune;
}

struct Mismatch {
  long count = 0;
  long first_tick = -1;
  void note(long tick) {
    if (count == 0) first_tick = tick;
    ++count;
  }
};

/// Runs the same scenario through a shared fleet and through standalone
/// Battery objects, comparing every StepResult and the full end state with
/// exact floating-point equality.
void expect_fleet_matches_objects(double charge_amps, bool faulted) {
  const LeadAcidParams chem{};
  const AgingParams aging{};
  const ThermalParams thermal{};

  FleetState fleet{chem, aging, thermal};
  std::vector<Battery> objects;
  objects.reserve(kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    // Cell 1 of the faulted scenario is a weak unit (cell_weak shape:
    // derated capacity, raised resistance).
    const bool weak = faulted && i == 1;
    const double cap = weak ? 0.8 : 1.0 + 0.001 * static_cast<double>(i % 7);
    const double res = weak ? 1.3 : 1.0;
    fleet.add_cell(cap, res, 0.7);
    objects.emplace_back(chem, aging, thermal, cap, res, 0.7);
  }
  if (faulted) {
    // Cell 3 additionally starts life pre-aged (a fleet seeded mid-life).
    AgingState aged;
    aged.corrosion = 0.04;
    aged.sulphation = 0.06;
    aged.water_loss = 0.02;
    fleet.set_cell_aging_state(3, aged);
    objects[3].set_aging_state(aged);
  }

  std::vector<Amperes> req(kCells);
  std::vector<StepResult> fleet_res(kCells);
  Mismatch bad;
  for (long k = 0; k < kTicks; ++k) {
    if (faulted && k == 3000) {
      fleet.fail_open_cell(2);
      objects[2].fail_open();
    }
    for (std::size_t i = 0; i < kCells; ++i) {
      req[i] = Amperes{requested_amps(k, i, charge_amps)};
    }
    fleet_step(fleet, req, kDt, fleet_res);
    for (std::size_t i = 0; i < kCells; ++i) {
      const StepResult obj = objects[i].step(req[i], kDt);
      if (obj.actual_current.value() != fleet_res[i].actual_current.value() ||
          obj.terminal_voltage.value() != fleet_res[i].terminal_voltage.value() ||
          obj.hit_cutoff != fleet_res[i].hit_cutoff ||
          obj.fully_charged != fleet_res[i].fully_charged) {
        bad.note(k);
      }
      if (objects[i].soc() != fleet.cell_soc(i) ||
          objects[i].temperature().value() != fleet.cell_temperature(i).value()) {
        bad.note(k);
      }
    }
    if (bad.count > 0) break;  // the first divergence is the diagnosis
  }
  EXPECT_EQ(bad.count, 0) << "fleet and object paths diverged at tick "
                          << bad.first_tick;

  for (std::size_t i = 0; i < kCells; ++i) {
    const Battery& obj = objects[i];
    EXPECT_EQ(obj.soc(), fleet.cell_soc(i)) << "cell " << i;
    EXPECT_EQ(obj.temperature().value(), fleet.cell_temperature(i).value());
    EXPECT_EQ(obj.health(), fleet.cell_health(i));
    EXPECT_EQ(obj.open_circuit().value(), fleet.cell_open_circuit(i).value());
    EXPECT_EQ(obj.internal_resistance_ohms(), fleet.cell_internal_resistance_ohms(i));
    EXPECT_EQ(obj.open_failed(), fleet.cell_open_failed(i));

    const AgingState& a = obj.aging_state();
    const AgingState& b = fleet.cell_aging_state(i);
    EXPECT_EQ(a.corrosion, b.corrosion);
    EXPECT_EQ(a.shedding, b.shedding);
    EXPECT_EQ(a.sulphation, b.sulphation);
    EXPECT_EQ(a.water_loss, b.water_loss);
    EXPECT_EQ(a.stratification, b.stratification);

    const UsageCounters& ca = obj.counters();
    const UsageCounters& cb = fleet.cell_counters(i);
    EXPECT_EQ(ca.ah_discharged.value(), cb.ah_discharged.value());
    EXPECT_EQ(ca.ah_charged.value(), cb.ah_charged.value());
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(ca.ah_by_range[r].value(), cb.ah_by_range[r].value());
    }
    EXPECT_EQ(ca.time_total.value(), cb.time_total.value());
    EXPECT_EQ(ca.time_below_40.value(), cb.time_below_40.value());
    EXPECT_EQ(ca.time_since_full_charge.value(), cb.time_since_full_charge.value());
    EXPECT_EQ(ca.full_charge_events, cb.full_charge_events);
    EXPECT_EQ(ca.min_soc_since_full, cb.min_soc_since_full);
    EXPECT_EQ(ca.energy_discharged.value(), cb.energy_discharged.value());
    EXPECT_EQ(ca.energy_charged.value(), cb.energy_charged.value());
  }
}

TEST(FleetKernel, BitIdenticalToObjectLoopSunny) {
  expect_fleet_matches_objects(10.0, false);
}

TEST(FleetKernel, BitIdenticalToObjectLoopCloudy) {
  expect_fleet_matches_objects(4.0, false);
}

TEST(FleetKernel, BitIdenticalToObjectLoopFaulted) {
  expect_fleet_matches_objects(6.0, true);
}

TEST(FleetKernel, MaskedIdleStepMatchesPerCellStep) {
  const LeadAcidParams chem{};
  const AgingParams aging{};
  const ThermalParams thermal{};
  FleetState a{chem, aging, thermal};
  FleetState b{chem, aging, thermal};
  for (std::size_t i = 0; i < kCells; ++i) {
    a.add_cell(1.0, 1.0, 0.3 + 0.1 * static_cast<double>(i));
    b.add_cell(1.0, 1.0, 0.3 + 0.1 * static_cast<double>(i));
  }
  // The router's idle subset shape: cells 1 and 4 charged elsewhere.
  const std::vector<std::uint8_t> skip = {0, 1, 0, 0, 1, 0};
  const std::vector<Amperes> zero(kCells, Amperes{0.0});
  std::vector<StepResult> results(kCells);
  for (long k = 0; k < 2000; ++k) {
    a.step_masked(zero, skip, kDt, results);
    for (std::size_t c = 0; c < kCells; ++c) {
      if (skip[c] == 0) b.step_cell(c, Amperes{0.0}, kDt);
    }
  }
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(a.cell_soc(i), b.cell_soc(i));
    EXPECT_EQ(a.cell_temperature(i).value(), b.cell_temperature(i).value());
    EXPECT_EQ(a.cell_aging_state(i).total(), b.cell_aging_state(i).total());
    EXPECT_EQ(a.cell_counters(i).time_total.value(), b.cell_counters(i).time_total.value());
  }
  EXPECT_EQ(a.cell_counters(1).time_total.value(), 0.0);  // skipped: never stepped
}

/// Every per-cell observable of `a` and `b` compared with exact equality.
void expect_same_cell(const FleetState& a, const FleetState& b, std::size_t c) {
  EXPECT_EQ(a.cell_soc(c), b.cell_soc(c)) << "cell " << c;
  EXPECT_EQ(a.cell_temperature(c).value(), b.cell_temperature(c).value()) << "cell " << c;
  EXPECT_EQ(a.cell_health(c), b.cell_health(c)) << "cell " << c;
  EXPECT_EQ(a.cell_aging_state(c).total(), b.cell_aging_state(c).total()) << "cell " << c;
  EXPECT_EQ(a.cell_cycle_damage(c), b.cell_cycle_damage(c)) << "cell " << c;
  const UsageCounters& ca = a.cell_counters(c);
  const UsageCounters& cb = b.cell_counters(c);
  EXPECT_EQ(ca.ah_discharged.value(), cb.ah_discharged.value()) << "cell " << c;
  EXPECT_EQ(ca.ah_charged.value(), cb.ah_charged.value()) << "cell " << c;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(ca.ah_by_range[r].value(), cb.ah_by_range[r].value()) << "cell " << c;
  }
  EXPECT_EQ(ca.time_total.value(), cb.time_total.value()) << "cell " << c;
  EXPECT_EQ(ca.time_below_40.value(), cb.time_below_40.value()) << "cell " << c;
  EXPECT_EQ(ca.time_since_full_charge.value(), cb.time_since_full_charge.value())
      << "cell " << c;
  EXPECT_EQ(ca.full_charge_events, cb.full_charge_events) << "cell " << c;
  EXPECT_EQ(ca.min_soc_since_full, cb.min_soc_since_full) << "cell " << c;
  EXPECT_EQ(ca.energy_discharged.value(), cb.energy_discharged.value()) << "cell " << c;
  EXPECT_EQ(ca.energy_charged.value(), cb.energy_charged.value()) << "cell " << c;
}

/// Steps one fleet through step_masked and a twin cell by cell through
/// step_cell under random skip masks and currents, for fleet sizes that
/// leave a ragged last block. Each block of each tick is drawn unskipped,
/// fully skipped or partly skipped; the stepped results and the full
/// per-cell state must match bitwise, and skipped result slots must stay
/// untouched.
void expect_masked_matches_per_cell(Chemistry kind, MathMode math) {
  // util::simd::kLanes, the simd tier's block width. Not included here: the
  // header's inline lane code is compiled with arch flags in the kernel TU.
  constexpr std::size_t kBlock = 8;
  for (const std::size_t cells : {std::size_t{5}, std::size_t{13}, std::size_t{19}}) {
    SCOPED_TRACE("cells = " + std::to_string(cells));
    const ChemistryModel model = chemistry_model(kind);
    FleetState masked{model, ThermalParams{}, math};
    FleetState percell{model, ThermalParams{}, math};
    for (std::size_t c = 0; c < cells; ++c) {
      const double cap = 1.0 - 0.01 * static_cast<double>(c % 5);
      const double res = 1.0 + 0.02 * static_cast<double>(c % 3);
      const double soc = 0.3 + 0.6 * static_cast<double>(c) / static_cast<double>(cells);
      masked.add_cell(cap, res, soc);
      percell.add_cell(cap, res, soc);
    }
    std::mt19937_64 rng{0xBAA7u + cells};
    std::vector<Amperes> req(cells);
    std::vector<std::uint8_t> skip(cells);
    std::vector<StepResult> results(cells);
    std::vector<double> sign(cells, 1.0);
    long unskipped = 0;
    long fully = 0;
    long partly = 0;
    Mismatch bad;
    for (long k = 0; k < 3000 && bad.count == 0; ++k) {
      for (std::size_t base = 0; base < cells; base += kBlock) {
        const std::size_t end = std::min(cells, base + kBlock);
        const std::uint64_t draw = rng() % 3;
        std::size_t skipped = 0;
        for (std::size_t c = base; c < end; ++c) {
          skip[c] = draw == 0 ? 0 : draw == 1 ? 1 : static_cast<std::uint8_t>(rng() & 1);
          skipped += skip[c];
        }
        if (end - base == kBlock) {
          if (skipped == 0) ++unskipped;
          else if (skipped == kBlock) ++fully;
          else ++partly;
        }
      }
      for (std::size_t c = 0; c < cells; ++c) {
        // One draw in four is an idle 0 A step, the rest 1..16 A.
        const std::uint64_t draw = rng() % 64;
        req[c] = Amperes{draw < 16 ? 0.0 : sign[c] * (1.0 + 0.3125 * static_cast<double>(draw - 16))};
        results[c] = StepResult{Amperes{-999.0}, Volts{-999.0}, true, true};
      }
      masked.step_masked(req, skip, kDt, results);
      for (std::size_t c = 0; c < cells; ++c) {
        if (skip[c] != 0) {
          if (results[c].actual_current.value() != -999.0 ||
              results[c].terminal_voltage.value() != -999.0) {
            bad.note(k);
          }
          continue;
        }
        const StepResult r = percell.step_cell(c, req[c], kDt);
        if (r.actual_current.value() != results[c].actual_current.value() ||
            r.terminal_voltage.value() != results[c].terminal_voltage.value() ||
            r.hit_cutoff != results[c].hit_cutoff ||
            r.fully_charged != results[c].fully_charged ||
            masked.cell_soc(c) != percell.cell_soc(c)) {
          bad.note(k);
        }
        if (masked.cell_soc(c) < 0.2) sign[c] = -1.0;
        if (masked.cell_soc(c) > 0.9) sign[c] = 1.0;
      }
    }
    EXPECT_EQ(bad.count, 0) << "masked and per-cell paths diverged at tick "
                            << bad.first_tick;
    for (std::size_t c = 0; c < cells; ++c) expect_same_cell(masked, percell, c);
    if (cells >= kBlock) {
      EXPECT_GT(unskipped, 0);
      EXPECT_GT(fully, 0);
      EXPECT_GT(partly, 0);
    }
  }
}

TEST(FleetKernel, MaskedStepMatchesPerCellLeadAcidExact) {
  expect_masked_matches_per_cell(Chemistry::LeadAcid, MathMode::Exact);
}

TEST(FleetKernel, MaskedStepMatchesPerCellLeadAcidSimd) {
  expect_masked_matches_per_cell(Chemistry::LeadAcid, MathMode::Simd);
}

TEST(FleetKernel, MaskedStepMatchesPerCellLiNmc) {
  expect_masked_matches_per_cell(Chemistry::LiNmc, MathMode::Exact);
  expect_masked_matches_per_cell(Chemistry::LiNmc, MathMode::Simd);
}

TEST(FleetKernel, MaskedStepMatchesPerCellBucket) {
  expect_masked_matches_per_cell(Chemistry::Bucket, MathMode::Exact);
  expect_masked_matches_per_cell(Chemistry::Bucket, MathMode::Simd);
}

TEST(FleetKernel, ViewsForwardToFleetState) {
  FleetState fleet{LeadAcidParams{}, AgingParams{}, ThermalParams{}};
  fleet.add_cell(1.0, 1.0, 0.6);
  fleet.add_cell(0.9, 1.1, 0.5);
  Battery v0{fleet, 0};
  Battery v1{fleet, 1};
  EXPECT_EQ(v0.soc(), fleet.cell_soc(0));
  EXPECT_EQ(v1.soc(), fleet.cell_soc(1));
  const auto r = v1.step(Amperes{3.0}, kDt);
  EXPECT_GT(r.actual_current.value(), 0.0);
  EXPECT_LT(v1.soc(), 0.5);
  EXPECT_EQ(v1.soc(), fleet.cell_soc(1));  // same storage, not a copy
  EXPECT_EQ(v0.soc(), fleet.cell_soc(0));  // untouched neighbour
}

// --- transcendental memo soundness ----------------------------------------

TEST(FleetKernel, ThermalDecayCacheIsBitExactAcrossVaryingDt) {
  ThermalParams params{};
  ThermalModel model{params};
  const double tau =
      params.heat_capacity_j_per_k * params.thermal_resistance_k_per_w;
  double temp = params.ambient.value();
  // Alternating dt forces miss/hit/miss sequences through the decay cache;
  // the reference recomputes std::exp cold every step.
  const double dts[] = {60.0, 60.0, 30.0, 45.0, 60.0, 30.0, 30.0, 900.0, 60.0, 60.0};
  int j = 0;
  for (const double dt : dts) {
    const double loss = 2.0 + 0.3 * static_cast<double>(j++);
    model.step(util::Watts{loss}, Seconds{dt});
    const double t_inf =
        params.ambient.value() + loss * params.thermal_resistance_k_per_w;
    temp = t_inf + (temp - t_inf) * std::exp(-dt / tau);
    EXPECT_EQ(model.temperature().value(), temp) << "dt " << dt;
  }
}

TEST(FleetKernel, KibamEktCacheHitEqualsColdCompute) {
  KibamParams params{};
  Kibam primed{params, 0.7};
  // Prime the e^{-kt} cache at one duration, then query another: the second
  // call misses and must equal a cold instance's first (also-miss) compute,
  // and a repeat (hit) must return the very same double.
  (void)primed.max_discharge_current(Seconds{3600.0});
  const double miss = primed.max_discharge_current(Seconds{1800.0}).value();
  const double hit = primed.max_discharge_current(Seconds{1800.0}).value();
  Kibam cold{params, 0.7};
  EXPECT_EQ(miss, cold.max_discharge_current(Seconds{1800.0}).value());
  EXPECT_EQ(hit, miss);
}

TEST(FleetKernel, KibamStepUnaffectedByCacheDetours) {
  KibamParams params{};
  Kibam a{params, 0.8};
  Kibam b{params, 0.8};
  for (long k = 0; k < 200; ++k) {
    // `a` takes a const-method detour that re-keys its cache before every
    // step; `b` steps straight through (cache stays hot). Identical state
    // evolution proves hits and misses return the same double.
    (void)a.max_discharge_current(Seconds{7200.0 + static_cast<double>(k)});
    const Amperes ia = a.step(Amperes{2.0}, Seconds{60.0});
    const Amperes ib = b.step(Amperes{2.0}, Seconds{60.0});
    ASSERT_EQ(ia.value(), ib.value()) << "tick " << k;
    ASSERT_EQ(a.soc(), b.soc()) << "tick " << k;
  }
}

// --- fast-math tier bounds -------------------------------------------------

TEST(FleetKernel, FastExp2WithinBound) {
  for (double x = -60.0; x <= 60.0; x += 0.0173) {
    const double ref = std::exp2(x);
    const double got = util::fast_exp2(x);
    EXPECT_NEAR(got, ref, 1e-8 * ref) << "x = " << x;
  }
  EXPECT_EQ(util::fast_exp2(-1100.0), 0.0);
  EXPECT_TRUE(std::isinf(util::fast_exp2(1100.0)));
}

TEST(FleetKernel, FastLog2WithinBound) {
  for (double a = 1e-6; a < 1e6; a *= 1.0137) {
    const double ref = std::log2(a);
    const double got = util::fast_log2(a);
    EXPECT_NEAR(got, ref, 1e-8 * std::max(1.0, std::fabs(ref))) << "a = " << a;
  }
}

TEST(FleetKernel, FastPowCoversAgingStressorRanges) {
  // Arrhenius: 2^((T-20)/10) over any plausible block temperature.
  for (double t = -10.0; t <= 70.0; t += 0.37) {
    const double ref = std::pow(2.0, (t - 20.0) / 10.0);
    const double got = util::fast_pow(2.0, (t - 20.0) / 10.0);
    EXPECT_NEAR(got, ref, 1e-8 * ref) << "T = " << t;
  }
  // Peukert: ratio^(k-1) with k = 1.15 over the current ratios the router
  // can produce.
  for (double ratio = 0.05; ratio <= 20.0; ratio *= 1.07) {
    const double ref = std::pow(ratio, 0.15);
    const double got = util::fast_pow(ratio, 0.15);
    EXPECT_NEAR(got, ref, 1e-8 * ref) << "ratio = " << ratio;
  }
}

TEST(FleetKernel, FastTierOnlyPerturbsWithinTolerance) {
  // A fast-tier fleet must track the exact tier closely at the physics
  // level (the 0.1% lifetime-metric property lives in property_test.cpp).
  FleetState exact{LeadAcidParams{}, AgingParams{}, ThermalParams{}, MathMode::Exact};
  FleetState fast{LeadAcidParams{}, AgingParams{}, ThermalParams{}, MathMode::Fast};
  for (std::size_t i = 0; i < kCells; ++i) {
    exact.add_cell(1.0, 1.0, 0.7);
    fast.add_cell(1.0, 1.0, 0.7);
  }
  std::vector<Amperes> req(kCells);
  std::vector<StepResult> res_e(kCells), res_f(kCells);
  for (long k = 0; k < kTicks; ++k) {
    for (std::size_t i = 0; i < kCells; ++i) {
      req[i] = Amperes{requested_amps(k, i, 8.0)};
    }
    fleet_step(exact, req, kDt, res_e);
    fleet_step(fast, req, kDt, res_f);
  }
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_NEAR(fast.cell_soc(i), exact.cell_soc(i), 1e-6);
    EXPECT_NEAR(fast.cell_health(i), exact.cell_health(i), 1e-6);
    EXPECT_NEAR(fast.cell_aging_state(i).total(), exact.cell_aging_state(i).total(),
                1e-6 * std::max(1e-3, exact.cell_aging_state(i).total()));
  }
}

TEST(FleetKernel, SimdStepAllMatchesPerCellSimdBitwise) {
  // The W = 8 block kernel and the W = 1 instantiation of the same template
  // must produce bit-identical trajectories — 19 cells covers two full
  // lane groups plus a 3-cell masked tail, under a load-following duty
  // cycle that keeps the Peukert/Arrhenius paths live.
  constexpr std::size_t kSimdCells = 19;
  FleetState blocked{LeadAcidParams{}, AgingParams{}, ThermalParams{}, MathMode::Simd};
  FleetState percell{LeadAcidParams{}, AgingParams{}, ThermalParams{}, MathMode::Simd};
  for (std::size_t i = 0; i < kSimdCells; ++i) {
    const double cap = 1.0 + 0.001 * static_cast<double>(i % 7);
    blocked.add_cell(cap, 1.0, 0.7);
    percell.add_cell(cap, 1.0, 0.7);
  }
  std::vector<Amperes> req(kSimdCells);
  std::vector<StepResult> res_b(kSimdCells);
  std::vector<double> sign(kSimdCells, 1.0);
  Mismatch bad;
  for (long k = 0; k < kTicks; ++k) {
    for (std::size_t i = 0; i < kSimdCells; ++i) {
      const double amps =
          10.0 + 0.5 * static_cast<double>((k * 7 + static_cast<long>(i) * 13) % 32);
      req[i] = Amperes{sign[i] * amps};
    }
    fleet_step(blocked, req, kDt, res_b);
    for (std::size_t i = 0; i < kSimdCells; ++i) {
      const StepResult r = percell.step_cell(i, req[i], kDt);
      if (r.actual_current.value() != res_b[i].actual_current.value() ||
          r.terminal_voltage.value() != res_b[i].terminal_voltage.value() ||
          r.hit_cutoff != res_b[i].hit_cutoff ||
          r.fully_charged != res_b[i].fully_charged ||
          percell.cell_soc(i) != blocked.cell_soc(i) ||
          percell.cell_temperature(i).value() != blocked.cell_temperature(i).value()) {
        bad.note(k);
      }
      if (blocked.cell_soc(i) < 0.2) sign[i] = -1.0;
      if (blocked.cell_soc(i) > 0.9) sign[i] = 1.0;
    }
    if (bad.count > 0) break;
  }
  EXPECT_EQ(bad.count, 0) << "block and per-cell simd paths diverged at tick "
                          << bad.first_tick;
  for (std::size_t i = 0; i < kSimdCells; ++i) {
    EXPECT_EQ(percell.cell_health(i), blocked.cell_health(i)) << "cell " << i;
    EXPECT_EQ(percell.cell_aging_state(i).total(), blocked.cell_aging_state(i).total());
    EXPECT_EQ(percell.cell_counters(i).ah_discharged.value(),
              blocked.cell_counters(i).ah_discharged.value());
  }
}

TEST(FleetKernel, SimdTierOnlyPerturbsWithinTolerance) {
  // Same contract as the fast tier above: the lane-batched tier tracks the
  // exact tier at the physics level (the 0.1% lifetime-metric property
  // lives in property_test.cpp).
  FleetState exact{LeadAcidParams{}, AgingParams{}, ThermalParams{}, MathMode::Exact};
  FleetState simd{LeadAcidParams{}, AgingParams{}, ThermalParams{}, MathMode::Simd};
  for (std::size_t i = 0; i < kCells; ++i) {
    exact.add_cell(1.0, 1.0, 0.7);
    simd.add_cell(1.0, 1.0, 0.7);
  }
  std::vector<Amperes> req(kCells);
  std::vector<StepResult> res_e(kCells), res_s(kCells);
  for (long k = 0; k < kTicks; ++k) {
    for (std::size_t i = 0; i < kCells; ++i) {
      req[i] = Amperes{requested_amps(k, i, 8.0)};
    }
    fleet_step(exact, req, kDt, res_e);
    fleet_step(simd, req, kDt, res_s);
  }
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_NEAR(simd.cell_soc(i), exact.cell_soc(i), 1e-6);
    EXPECT_NEAR(simd.cell_health(i), exact.cell_health(i), 1e-6);
    EXPECT_NEAR(simd.cell_aging_state(i).total(), exact.cell_aging_state(i).total(),
                1e-6 * std::max(1e-3, exact.cell_aging_state(i).total()));
  }
}

// --- Battery value semantics over the shared-fleet representation ----------

TEST(FleetKernel, CopyDetachesFromSourceFleet) {
  FleetState fleet{LeadAcidParams{}, AgingParams{}, ThermalParams{}};
  fleet.add_cell(1.0, 1.0, 0.8);
  Battery view{fleet, 0};
  Battery copy{view};  // snapshot into a private one-cell fleet
  view.step(Amperes{5.0}, kDt);
  EXPECT_LT(view.soc(), 0.8);
  EXPECT_EQ(copy.soc(), 0.8);  // unaffected by the source stepping
  copy.step(Amperes{5.0}, kDt);
  EXPECT_EQ(copy.soc(), view.soc());  // same physics once stepped identically
}

TEST(FleetKernel, AssignIntoBoundViewReplacesCellInPlace) {
  // The fault injector's cell_weak move-assigns a fresh standalone unit
  // into a bank slot; for a fleet-backed bank that must replace the cell's
  // state inside the shared arrays, not detach the view.
  FleetState fleet{LeadAcidParams{}, AgingParams{}, ThermalParams{}};
  fleet.add_cell(1.0, 1.0, 0.9);
  fleet.add_cell(1.0, 1.0, 0.9);
  Battery v0{fleet, 0};
  v0 = Battery{LeadAcidParams{}, AgingParams{}, ThermalParams{}, 0.8, 1.3, 0.5};
  EXPECT_EQ(v0.fleet(), &fleet);         // still a view into the bank
  EXPECT_EQ(fleet.cell_soc(0), 0.5);     // the cell took the new state
  EXPECT_EQ(fleet.cell_soc(1), 0.9);     // the neighbour did not
  EXPECT_EQ(v0.nameplate().value(),
            LeadAcidParams{}.capacity_c20.value() * 0.8);
}

}  // namespace
}  // namespace baat::battery
