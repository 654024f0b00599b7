#pragma once

// The per-battery "power table" (Table 2, Fig 7): the running accumulators
// the BAAT controller derives all five aging metrics from online. Everything
// here is computed from *sensor readings only* — SoC is estimated from the
// measured voltage and current the way the prototype's control server does,
// never read from the battery's internal state. No raw sample log is kept:
// the metrics need only the accumulators, and the guard only the newest
// reading's timestamp.

#include <limits>
#include <optional>
#include <span>

#include "battery/chemistry.hpp"
#include "telemetry/sensor.hpp"
#include "util/units.hpp"

namespace baat::telemetry {

using util::AmpereHours;
using util::Seconds;

/// SoC estimation scheme (ablated by bench/ablation_estimator).
enum class SocEstimation {
  /// Coulomb counting anchored to voltage readings at near-rest currents —
  /// robust to the aged cell's resistance growth (the default).
  RestAnchoredCoulomb,
  /// Naive voltage-lookup with a nominal I·R correction — biases low on
  /// aged cells under load.
  VoltageOnly,
};

struct PowerTableParams {
  battery::LeadAcidParams chemistry{};  ///< nominal chemistry for SoC estimation
  /// OCV curve shape used to invert voltage readings into SoC. LFP's flat
  /// plateau makes VoltageOnly estimation nearly blind over mid-SoC — the
  /// stress case for voltage-based estimators.
  battery::OcvCurve ocv_curve = battery::OcvCurve::LeadAcidQuadratic;
  SocEstimation estimation = SocEstimation::RestAnchoredCoulomb;
  /// Exponential window for the discharge-rate metric (DR, §III-E).
  Seconds dr_window{util::minutes(10.0)};
};

/// The SoC each reading's voltage alone implies: the estimator's OCV
/// estimate V + I·R_nominal (the controller knows only the nominal internal
/// resistance, not the aged one) inverted through `params.ocv_curve` by the
/// span form of battery::soc_from_voltage. `out` must be as long as
/// `readings`.
void voltage_soc_batch(const PowerTableParams& params, std::span<const SensorReading> readings,
                       std::span<double> out);

class PowerTable {
 public:
  explicit PowerTable(PowerTableParams params);

  /// Fold one sensor reading covering `dt` into the accumulators.
  /// `voltage_soc` is the reading's voltage_soc_batch value under this
  /// table's params; tables fed the same reading share it.
  void record(const SensorReading& reading, Seconds dt, double voltage_soc);
  /// As above, computing the reading's voltage SoC itself.
  void record(const SensorReading& reading, Seconds dt);

  // --- accumulators the metric engine consumes (Eq 1–5 numerators) ---------
  [[nodiscard]] AmpereHours ah_discharged() const { return ah_discharged_; }
  [[nodiscard]] AmpereHours ah_charged() const { return ah_charged_; }
  /// Discharge Ah per Eq 3 SoC range: 0=A [80,100], 1=B [60,80), 2=C [40,60), 3=D [0,40).
  [[nodiscard]] AmpereHours ah_in_range(std::size_t range) const;
  [[nodiscard]] Seconds time_total() const { return time_total_; }
  [[nodiscard]] Seconds time_below_40() const { return time_below_40_; }
  /// Exponentially-weighted recent discharge current (amperes), the DR signal.
  [[nodiscard]] double recent_discharge_amps() const { return dr_ewma_; }

  /// SoC estimated from the latest reading (voltage + I·R correction).
  [[nodiscard]] double estimated_soc() const { return soc_estimate_; }

  /// The newest recorded reading (a stuck sensor's frozen timestamp
  /// included), or nothing before the first record().
  [[nodiscard]] const std::optional<SensorReading>& last_reading() const {
    return last_reading_;
  }
  [[nodiscard]] const PowerTableParams& params() const { return params_; }

  /// Checkpoint support: accumulators, the EWMA/SoC estimate and the last
  /// reading. Params are configuration and are rebuilt by the scenario.
  void save_state(snapshot::SnapshotWriter& w) const;
  void load_state(snapshot::SnapshotReader& r);

 private:
  PowerTableParams params_;
  AmpereHours ah_discharged_{0.0};
  AmpereHours ah_charged_{0.0};
  AmpereHours ah_by_range_[4] = {AmpereHours{0}, AmpereHours{0}, AmpereHours{0},
                                 AmpereHours{0}};
  Seconds time_total_{0.0};
  Seconds time_below_40_{0.0};
  double dr_ewma_ = 0.0;
  double soc_estimate_ = 1.0;
  std::optional<SensorReading> last_reading_;

  // Last-argument memo of the two EWMA factors, keyed on dt (the sim's dt
  // is fixed, so this is one miss per table): a hit returns the exact
  // doubles the std::exp expressions produced. The key starts NaN so the
  // first record() always misses.
  double alpha_dt_key_ = std::numeric_limits<double>::quiet_NaN();
  double anchor_alpha_ = 0.0;  ///< 1 - exp(-dt / 300 s), the SoC re-anchor blend
  double dr_alpha_ = 0.0;      ///< 1 - exp(-dt / dr_window), the DR EWMA factor
};

}  // namespace baat::telemetry
