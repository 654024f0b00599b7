#pragma once

// Electro-chemical behaviour of a valve-regulated lead-acid (VRLA) monoblock:
// open-circuit voltage curve, Peukert rate-capacity effect, internal
// resistance, and charge acceptance. The paper's prototype uses twelve
// 12 V / 35 Ah sealed lead-acid units (Fig 11); the defaults below model one
// such unit. All aging-induced drift (resistance growth, capacity fade) is
// layered on top by battery::AgingModel — this header is the *fresh-cell*
// physics.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/units.hpp"

namespace baat::battery {

using util::Amperes;
using util::AmpereHours;
using util::Celsius;
using util::Volts;

/// Which chemistry model a fleet runs (DESIGN.md §5i). LeadAcid is the
/// paper-faithful default; the Li-ion presets and the energy-bucket tier are
/// hosted by the same SoA kernel behind `--chemistry`.
enum class Chemistry : std::uint8_t {
  LeadAcid = 0,  ///< VRLA monoblock, Shepherd/Peukert + five-mechanism aging
  LiNmc = 1,     ///< Li-ion NMC preset: rainflow cycle + Arrhenius calendar fade
  LiLfp = 2,     ///< Li-ion LFP preset: flat-OCV plateau, long cycle life
  Bucket = 3,    ///< low-fidelity energy bucket for huge sweeps
};

/// OCV-vs-SoC curve family; each chemistry picks one. The shapes map SoC in
/// [0,1] onto a normalized [0,1] voltage fraction between the chemistry's
/// empty and full per-cell OCV.
enum class OcvCurve : std::uint8_t {
  LeadAcidQuadratic = 0,  ///< mildly super-linear (steeper near empty)
  NmcCubic = 1,           ///< gentle S-shape, strictly increasing
  LfpPlateau = 2,         ///< flat mid-SoC plateau — stresses voltage-based SoC
  Linear = 3,             ///< the bucket tier's trivial curve
};

[[nodiscard]] std::string_view chemistry_name(Chemistry c);
/// Parse a `--chemistry` argument; returns false on an unknown name.
[[nodiscard]] bool parse_chemistry(std::string_view name, Chemistry& out);
/// The OCV curve family a chemistry preset uses.
[[nodiscard]] OcvCurve ocv_curve_for(Chemistry c);

/// Static parameters of one lead-acid monoblock (series string of cells).
struct LeadAcidParams {
  int cells = 6;                                  ///< 6 cells => 12 V nominal
  AmpereHours capacity_c20{35.0};                 ///< nameplate capacity at the 20 h rate
  Volts ocv_cell_full{2.125};                     ///< per-cell OCV at SoC = 1
  Volts ocv_cell_empty{1.95};                     ///< per-cell OCV at SoC = 0
  double r_internal_ohms = 0.015;                 ///< fresh internal resistance, whole block
  double peukert_exponent = 1.15;                 ///< rate-capacity exponent
  Volts cutoff_cell{1.75};                        ///< per-cell low-voltage disconnect (10.5 V)
  Volts gassing_cell{2.35};                       ///< per-cell gassing onset (14.1 V)
  Volts absorb_cell{2.40};                        ///< per-cell max charge voltage (14.4 V)
  double max_discharge_c_rate = 1.0;              ///< discharge current cap, multiples of C20
  double max_charge_c_rate = 0.25;                ///< bulk charge current cap (C/4)
  double coulombic_efficiency_bulk = 0.98;        ///< charge efficiency below the taper knee
  double coulombic_efficiency_full = 0.80;        ///< charge efficiency approaching SoC = 1
  double taper_knee_soc = 0.80;                   ///< SoC where CV taper begins
  double self_discharge_per_month = 0.03;         ///< standing loss (VRLA ~3%/month at 20°C)

  /// 20-hour-rate current (C20 / 20 h).
  [[nodiscard]] Amperes rated_current() const {
    return Amperes{capacity_c20.value() / 20.0};
  }
  [[nodiscard]] Volts cutoff_voltage() const { return Volts{cutoff_cell.value() * cells}; }
  [[nodiscard]] Volts gassing_voltage() const { return Volts{gassing_cell.value() * cells}; }
  [[nodiscard]] Volts absorb_voltage() const { return Volts{absorb_cell.value() * cells}; }
  [[nodiscard]] Volts nominal_voltage() const { return Volts{2.0 * cells}; }
};

/// Open-circuit voltage of the whole block at a given state of charge.
/// Mildly super-linear in SoC (steeper near empty), strictly increasing.
Volts open_circuit_voltage(const LeadAcidParams& p, double soc);

/// Inverse of open_circuit_voltage; finite out-of-range readings clamp to
/// [0, 1], but a non-finite reading (NaN/Inf sensor poison) propagates as NaN
/// so the run-health watchdog sees it instead of a silently pinned estimate
/// (the same poison-visibility contract the fastmath tiers keep). Used by
/// the telemetry layer to *estimate* SoC from a voltage reading, the way the
/// prototype's control server does (Table 2: "Voltage ... used for
/// calculating SoC").
double soc_from_voltage(const LeadAcidParams& p, Volts ocv);

/// Curve-aware inverse for the multi-chemistry estimator: same clamp/NaN
/// contract, inverting the given OCV family instead of the lead-acid
/// quadratic. `curve == LeadAcidQuadratic` is exactly soc_from_voltage.
double soc_from_voltage(const LeadAcidParams& p, Volts ocv, OcvCurve curve);

/// Readings per block of the span form's NmcCubic Newton solve.
inline constexpr std::size_t kSocBatchBlock = 16;

/// Span form: out[k] = soc_from_voltage(p, Volts{ocv[k]}, curve), bit for
/// bit. NmcCubic runs its Newton solve iteration-major over blocks of
/// kSocBatchBlock readings: every lane takes all the scalar's steps in the
/// scalar's order, so only independent readings are interleaved and their
/// division chains overlap. The other curves loop their closed forms.
/// `out` must be as long as `ocv` and may alias it.
void soc_from_voltage(const LeadAcidParams& p, std::span<const double> ocv, OcvCurve curve,
                      std::span<double> out);

/// Curve-aware open-circuit voltage (the lead-acid overload above is the
/// `LeadAcidQuadratic` case, bit-for-bit).
Volts open_circuit_voltage(const LeadAcidParams& p, double soc, OcvCurve curve);

/// Peukert-corrected capacity available at a sustained discharge current.
/// At or below the 20 h rate this is the nameplate capacity; above it the
/// usable capacity shrinks as (I20/I)^(k-1).
AmpereHours effective_capacity(const LeadAcidParams& p, Amperes discharge_current);

/// Fraction [0,1] of the bulk charge current the cell accepts at `soc`
/// (constant-current below the taper knee, linear constant-voltage taper above).
double charge_acceptance(const LeadAcidParams& p, double soc);

/// Coulombic efficiency of charging at `soc` (drops near full as the charge
/// current increasingly drives gassing instead of conversion).
double coulombic_efficiency(const LeadAcidParams& p, double soc);

}  // namespace baat::battery
