#pragma once

// Batched battery-fleet stepping kernel. Per-cell state lives in
// structure-of-arrays form inside FleetState and every cell of a bank is
// advanced by one fleet_step() call per tick — contiguous state, no
// per-cell virtual dispatch, and all tick-invariant subexpressions
// (aging-derived factors, Peukert/Arrhenius transcendentals, the fixed-dt
// thermal decay) hoisted or memoized per cell. battery::Battery remains as
// a thin view over one cell (see battery.hpp) so tests, probes and
// single-cell benches keep their object-per-cell API.
//
// Bit-exactness contract (DESIGN.md §5e): in MathMode::Exact a
// FleetState::step_cell is bit-identical to the pre-kernel scalar
// Battery::step — the memos are last-argument caches that return the exact
// double std::pow/std::exp produced for the same input, and every other
// hoist reuses a value of unchanged state within one step. MathMode::Fast
// swaps the Arrhenius/Peukert transcendentals for the bounded-error
// polynomials in util/fastmath.hpp (opt-in via --math=fast).
//
// Sign convention everywhere: current > 0 discharges, < 0 charges.

#include <cstdint>
#include <span>
#include <vector>

#include "battery/aging.hpp"
#include "battery/chemistry.hpp"
#include "battery/chemistry_model.hpp"
#include "battery/ledger.hpp"
#include "battery/thermal.hpp"
#include "snapshot/serialize.hpp"
#include "util/units.hpp"

namespace baat::battery {

using util::Seconds;
using util::WattHours;
using util::Watts;

/// Ground-truth usage counters accumulated over the battery's whole life.
/// The telemetry layer rebuilds an *estimated* version of these from sensor
/// samples; tests compare the two.
struct UsageCounters {
  AmpereHours ah_discharged{0.0};
  AmpereHours ah_charged{0.0};
  /// Discharge Ah binned by the SoC ranges of Eq 3:
  /// A = [80,100], B = [60,80), C = [40,60), D = [0,40).
  AmpereHours ah_by_range[4] = {AmpereHours{0}, AmpereHours{0}, AmpereHours{0}, AmpereHours{0}};
  Seconds time_total{0.0};
  Seconds time_below_40{0.0};
  Seconds time_since_full_charge{0.0};
  std::int64_t full_charge_events = 0;
  double min_soc_since_full = 1.0;
  WattHours energy_discharged{0.0};
  WattHours energy_charged{0.0};
};

/// Outcome of one step() call.
struct StepResult {
  Amperes actual_current{0.0};   ///< after clamping to physical limits
  Volts terminal_voltage{0.0};
  bool hit_cutoff = false;       ///< discharge was curtailed by the LVD
  bool fully_charged = false;    ///< this step completed a full charge
};

/// Transcendental tier of the tick kernel. Exact is the default and is
/// byte-identical to the pre-kernel code; Fast trades ~1e-9 relative error
/// in the aging stressors for avoiding libm pow on the hot path; Simd
/// additionally batches cells across SIMD lanes with branchless masked
/// selects (fleet_simd.cpp) — same 0.1% lifetime-metric tolerance as Fast,
/// largest per-tick speedup (DESIGN.md §5e).
enum class MathMode {
  Exact,
  Fast,
  Simd,
};

/// Structure-of-arrays state of a bank of battery units sharing one
/// chemistry/aging/thermal template (per-cell manufacturing variation is
/// baked into the per-cell parameter slots).
class FleetState {
 public:
  FleetState(LeadAcidParams chem, AgingParams aging, ThermalParams thermal,
             MathMode math = MathMode::Exact);
  /// Chemistry-hosting ctor (DESIGN.md §5i): the fleet adopts the model's
  /// tag, OCV curve, electrical/aging blocks, Li aging knobs and cycle-life
  /// curve. A default lead-acid model built this way is bit-identical to the
  /// legacy ctor above.
  FleetState(const ChemistryModel& model, ThermalParams thermal,
             MathMode math = MathMode::Exact);

  /// Append one unit; returns its cell index. `capacity_scale` and
  /// `resistance_scale` model unit-to-unit manufacturing variation.
  std::size_t add_cell(double capacity_scale, double resistance_scale, double initial_soc);

  [[nodiscard]] std::size_t size() const { return soc_.size(); }
  [[nodiscard]] MathMode math() const { return math_; }
  [[nodiscard]] const AgingParams& aging_params() const { return aging_params_; }
  /// The hosted chemistry tag (Chemistry::LeadAcid for legacy-ctor fleets).
  [[nodiscard]] Chemistry chemistry_kind() const { return kind_; }
  [[nodiscard]] OcvCurve ocv_curve() const { return ocv_curve_; }
  [[nodiscard]] const LiAgingParams& li_params() const { return li_; }

  // --- the tick kernel -------------------------------------------------------
  /// Advance cell `c` by dt, requesting `requested` (>0 discharge,
  /// <0 charge), clamped to what chemistry allows.
  StepResult step_cell(std::size_t c, Amperes requested, Seconds dt);
  /// Maintenance-rig entry: hold cell `c` at absorb voltage with a forced
  /// trickle current, bypassing the acceptance clamp.
  StepResult float_charge_cell(std::size_t c, Amperes trickle, Seconds dt);
  /// Step every cell with its own requested current.
  void step_all(std::span<const Amperes> requested, Seconds dt,
                std::span<StepResult> results);
  /// Step every cell whose `skip` byte is 0 with its own requested current,
  /// writing its result slot; skipped cells and their slots are untouched
  /// (the router steps its charging cells itself and batches the rest).
  /// Bitwise equal to step_cell on each unskipped cell in any order, since a
  /// cell's step reads and writes only that cell. In the simd tier a block
  /// with no skipped cell runs the kLanes-wide kernel and every other cell
  /// runs W = 1; the other tiers loop step_cell in cell order.
  void step_masked(std::span<const Amperes> requested, std::span<const std::uint8_t> skip,
                   Seconds dt, std::span<StepResult> results);

  // --- per-cell observables (exact ports of the Battery accessors) ----------
  [[nodiscard]] double cell_soc(std::size_t c) const { return soc_[c]; }
  [[nodiscard]] Volts cell_open_circuit(std::size_t c) const;
  [[nodiscard]] Volts cell_terminal_voltage(std::size_t c, Amperes current) const;
  [[nodiscard]] Celsius cell_temperature(std::size_t c) const { return Celsius{temp_c_[c]}; }
  [[nodiscard]] double cell_internal_resistance_ohms(std::size_t c) const;
  [[nodiscard]] AmpereHours cell_nameplate(std::size_t c) const {
    return AmpereHours{nameplate_[c]};
  }
  [[nodiscard]] AmpereHours cell_usable_capacity(std::size_t c) const;
  [[nodiscard]] double cell_health(std::size_t c) const;
  [[nodiscard]] bool cell_end_of_life(std::size_t c) const;
  void fail_open_cell(std::size_t c) { open_[c] = 1; }
  [[nodiscard]] bool cell_open_failed(std::size_t c) const { return open_[c] != 0; }
  [[nodiscard]] const AgingState& cell_aging_state(std::size_t c) const { return aging_[c]; }
  void set_cell_aging_state(std::size_t c, const AgingState& s) { aging_[c] = s; }
  [[nodiscard]] Amperes cell_max_discharge_current(std::size_t c) const;
  [[nodiscard]] Amperes cell_max_charge_current(std::size_t c) const;
  [[nodiscard]] WattHours cell_stored_energy_above(std::size_t c, double floor_soc) const;
  [[nodiscard]] const UsageCounters& cell_counters(std::size_t c) const {
    return counters_[c];
  }
  [[nodiscard]] const LeadAcidParams& cell_chemistry(std::size_t c) const { return chem_[c]; }
  [[nodiscard]] double cell_equivalent_full_cycles(std::size_t c) const {
    return counters_[c].ah_discharged.value() / nameplate_[c];
  }

  // --- aging-attribution ledger (DESIGN.md §5g) ------------------------------
  /// The ledger itself is free — fade components are read out of the aging
  /// state on demand — but the online rainflow counter costs a few compares
  /// per tick; benches turn it off to measure the obs tax.
  void set_ledger_enabled(bool on) { ledger_enabled_ = on; }
  [[nodiscard]] bool ledger_enabled() const { return ledger_enabled_; }
  /// Cycle-life curve captured by subsequently added cells (set it before
  /// building the bank; defaults to the Trojan-like reference curve).
  void set_cycle_life_curve(const CycleLifeCurve& curve) { ledger_curve_ = curve; }

  /// Lifetime ledger entry of cell `c` (since birth).
  [[nodiscard]] CellLedgerEntry ledger_total(std::size_t c) const;
  /// Ledger entry since the last ledger_advance() (non-advancing peek, so
  /// the blackbox can read mid-window without disturbing the rollup).
  [[nodiscard]] CellLedgerEntry ledger_delta(std::size_t c) const;
  /// Move every cell's ledger baseline up to its current state; call at a
  /// rollup boundary after the deltas have been read.
  void ledger_advance();
  [[nodiscard]] double cell_cycle_damage(std::size_t c) const {
    return rainflow_[c].damage();
  }

  /// Test/fault hook: overwrite a cell's SoC with no validation — the
  /// nan_poison fault uses this to model a corrupted state word that the
  /// run-health watchdog must catch.
  void debug_set_soc(std::size_t c, double v) { soc_[c] = v; }

  // --- view support ----------------------------------------------------------
  /// A one-cell fleet carrying a deep copy of cell `c` (Battery's copy ctor).
  [[nodiscard]] FleetState clone_cell(std::size_t c) const;
  /// Overwrite cell `dst` with the full state of `src_cell` of `src`
  /// (Battery's copy/move-assignment into a bound view). A one-cell
  /// destination also adopts the source's shared templates; a multi-cell
  /// destination keeps its own (callers only ever assign units built from
  /// the same bank spec, so the shared aging parameters match).
  void copy_cell_from(std::size_t dst, const FleetState& src, std::size_t src_cell);

  // --- checkpoint support ----------------------------------------------------
  /// Serializes every per-cell slot, including the per-cell *parameter*
  /// vectors: faults can rewrite a cell's chemistry mid-run (cell_weak
  /// assigns a weakened unit into the bank view), so the parameters are
  /// state, not just configuration. The transcendental memos ride along too
  /// — they would repopulate with identical doubles on the next step, but
  /// carrying them keeps "restored state == live state" literal.
  void save_state(snapshot::SnapshotWriter& w) const;
  /// Refuses (SnapshotError) a snapshot whose cell count or math mode does
  /// not match this fleet — the config hash should have caught that first.
  void load_state(snapshot::SnapshotReader& r);

 private:
  double arrhenius(std::size_t c, double temp_c);
  double peukert_capacity_ah(std::size_t c, double i);
  double thermal_decay(std::size_t c, double dt_s);

  /// Low-fidelity energy-bucket tick: linear OCV coulomb bucket with flat
  /// C-rate caps and round-trip efficiency; no Peukert, no charge-acceptance
  /// taper, no thermal RC (temperature stays ambient), two-term aging
  /// (calendar + per-EFC throughput fade). The perf gate holds this path to
  /// >= 5x the lead-acid exact tier's cell-tick throughput.
  StepResult step_cell_bucket(std::size_t c, Amperes requested, Seconds dt);
  /// Batched bucket tick: the step_all hot loop, kept out-of-line so the
  /// bucket step can be force-inlined into it (one call per tick instead of
  /// one per cell, letting independent cells overlap in the pipeline).
  void step_all_bucket(std::span<const Amperes> requested, Seconds dt,
                       std::span<StepResult> results);
  /// Per-chemistry aging dispatch for the non-hot paths (float charge):
  /// lead-acid runs the five-mechanism rate equations, Li accrues calendar
  /// fade into the corrosion slot, the bucket adds calendar + throughput.
  void chemistry_aging_step(std::size_t c, const OperatingPoint& op, Seconds dt);

  // --- MathMode::Simd kernel (fleet_simd.cpp, compiled with the SIMD
  // flags — see src/battery/CMakeLists.txt) -----------------------------------
  /// Advance cells [base, base + count) branchlessly, W lanes at a time,
  /// staged as phase loops over a block (count must be a multiple of W and
  /// at most kBlockCells; `requested`/`results` are block-local, index 0 ==
  /// cell `base`). step_cell_simd is the W = 1 instantiation of the same
  /// code, so the per-cell and batched paths agree bitwise within the tier.
  template <int W>
  void step_block_simd(std::size_t base, std::size_t count, const Amperes* requested,
                       Seconds dt, StepResult* results);
  StepResult step_cell_simd(std::size_t c, Amperes requested, Seconds dt);
  void step_all_simd(std::span<const Amperes> requested, Seconds dt,
                     std::span<StepResult> results);
  void step_masked_simd(std::span<const Amperes> requested,
                        std::span<const std::uint8_t> skip, Seconds dt,
                        std::span<StepResult> results);
  /// Rebuild the derived per-cell constant mirrors below when dirty.
  void refresh_derived();

  // Per-cell constants derived from chem_/thermal_/resistance_scale_, kept
  // as flat SoA mirrors so the lane kernel loads contiguously instead of
  // gathering through the AoS parameter structs. Refreshed lazily (dirty_
  // set by anything that can change a cell's parameters); only the Simd
  // tier reads them.
  struct DerivedSoA {
    std::vector<double> ocv_empty_b;    ///< ocv_cell_empty * cells, V
    std::vector<double> ocv_span_b;     ///< (full - empty) * cells, V
    std::vector<double> cutoff_v;       ///< cutoff_cell * cells, V
    std::vector<double> absorb_v;       ///< absorb_cell * cells, V
    std::vector<double> cells_d;        ///< cell count, as a double
    std::vector<double> inv_cells;      ///< 1 / cells
    std::vector<double> r_base;         ///< r_internal * resistance_scale, ohm
    std::vector<double> i20;            ///< rated (C/20) current, A
    std::vector<double> cap_c20;        ///< capacity_c20 (cap-scaled), Ah
    std::vector<double> pk_exp_m1;      ///< peukert_exponent - 1
    std::vector<double> max_dis_a;      ///< max_discharge_c_rate * nameplate, A
    std::vector<double> max_chg_a;      ///< max_charge_c_rate * nameplate, A
    std::vector<double> taper_knee;     ///< taper_knee_soc
    std::vector<double> inv_taper_rem;  ///< 1 / (1 - taper_knee_soc)
    std::vector<double> eta_bulk;       ///< coulombic_efficiency_bulk
    std::vector<double> eta_full;       ///< coulombic_efficiency_full
    std::vector<double> sd_rate;        ///< self_discharge_per_month / month-s
    std::vector<double> ambient_c;      ///< thermal ambient, degC
    std::vector<double> r_th;           ///< thermal resistance, K/W
    std::vector<double> inv_nameplate;  ///< 1 / nameplate, 1/Ah
  };
  DerivedSoA derived_;
  bool derived_dirty_ = true;

  LeadAcidParams chem_base_;   ///< unscaled template for add_cell
  AgingParams aging_params_;   ///< shared by every cell
  ThermalParams thermal_base_;
  MathMode math_;

  // Hosted chemistry (configuration, not per-cell state: faults may swap a
  // cell's electrical block but never its chemistry). Snapshots of
  // non-lead-acid fleets record the tag so mismatched resumes are refused;
  // the lead-acid snapshot layout is unchanged from PR 9.
  Chemistry kind_ = Chemistry::LeadAcid;
  OcvCurve ocv_curve_ = OcvCurve::LeadAcidQuadratic;
  LiAgingParams li_{};

  // Per-cell parameter slots (capacity variation baked into chem_[c]).
  std::vector<LeadAcidParams> chem_;
  std::vector<ThermalParams> thermal_;
  std::vector<double> tau_;  ///< heat_capacity * thermal_resistance, s
  std::vector<double> nameplate_;
  std::vector<double> resistance_scale_;

  // Per-cell mutable state.
  std::vector<double> soc_;
  std::vector<double> temp_c_;
  std::vector<std::uint8_t> open_;
  std::vector<AgingState> aging_;
  std::vector<UsageCounters> counters_;

  // Last-argument transcendental memos (exact: same input → the exact
  // cached double). Keys start NaN so the first lookup always misses.
  std::vector<double> arr_key_, arr_val_;
  std::vector<double> pk_key_, pk_val_;
  std::vector<double> decay_key_, decay_val_;

  // Aging-attribution ledger state. Baselines hold each cell's state at the
  // last rollup boundary so a delta is two reads and a subtract; the online
  // rainflow counters are allocation-free after add_cell.
  bool ledger_enabled_ = true;
  CycleLifeCurve ledger_curve_;
  std::vector<OnlineRainflow> rainflow_;
  std::vector<AgingState> ledger_base_aging_;
  std::vector<double> ledger_base_damage_;
  std::vector<double> ledger_base_efc_;
  std::vector<double> ledger_base_dwell_;
};

/// Batched tick entry point: one call advances the whole fleet.
inline void fleet_step(FleetState& fleet, std::span<const Amperes> requested, Seconds dt,
                       std::span<StepResult> results) {
  fleet.step_all(requested, dt, results);
}

}  // namespace baat::battery
