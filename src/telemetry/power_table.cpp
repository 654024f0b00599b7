#include "telemetry/power_table.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace baat::telemetry {

PowerTable::PowerTable(PowerTableParams params) : params_(std::move(params)) {
  BAAT_REQUIRE(params_.dr_window.value() > 0.0, "DR window must be positive");
}

void voltage_soc_batch(const PowerTableParams& params, std::span<const SensorReading> readings,
                       std::span<double> out) {
  BAAT_REQUIRE(out.size() == readings.size(), "voltage_soc_batch: output span length mismatch");
  for (std::size_t i = 0; i < readings.size(); ++i) {
    out[i] = readings[i].voltage.value() +
             readings[i].current.value() * params.chemistry.r_internal_ohms;
  }
  battery::soc_from_voltage(params.chemistry, out, params.ocv_curve, out);
}

void PowerTable::record(const SensorReading& reading, Seconds dt) {
  double soc_v = 0.0;
  voltage_soc_batch(params_, {&reading, 1}, {&soc_v, 1});
  record(reading, dt, soc_v);
}

void PowerTable::record(const SensorReading& reading, Seconds dt, double voltage_soc) {
  BAAT_REQUIRE(dt.value() > 0.0, "dt must be positive");
  if (dt.value() != alpha_dt_key_) {
    alpha_dt_key_ = dt.value();
    anchor_alpha_ = 1.0 - std::exp(-dt.value() / 300.0);
    dr_alpha_ = 1.0 - std::exp(-dt.value() / params_.dr_window.value());
  }

  // SoC estimate. Default scheme: rest-anchored coulomb counting, the
  // standard BMS approach the prototype's control server can implement from
  // Table 2's sensors — integrate the measured current against the
  // nameplate capacity, and pull the estimate toward the voltage-derived
  // value only when the current is small (under load the ohmic drop of an
  // *aged* cell would bias a pure voltage estimate badly, since the
  // controller only knows the nominal internal resistance).
  if (params_.estimation == SocEstimation::VoltageOnly) {
    soc_estimate_ = voltage_soc;
  } else {
    soc_estimate_ -= reading.current.value() * dt.value() / 3600.0 /
                     params_.chemistry.capacity_c20.value();
    soc_estimate_ = util::clamp01(soc_estimate_);
    const double rest_threshold = 0.1 * params_.chemistry.capacity_c20.value();
    if (std::fabs(reading.current.value()) < rest_threshold) {
      // Per-minute-scale blend: anchors fully within a few idle minutes.
      soc_estimate_ += anchor_alpha_ * (voltage_soc - soc_estimate_);
    }
  }

  const double i = reading.current.value();
  const AmpereHours q{std::fabs(i) * dt.value() / 3600.0};
  if (i > 0.0) {
    ah_discharged_ += q;
    std::size_t range = 3;
    if (soc_estimate_ >= 0.8) {
      range = 0;
    } else if (soc_estimate_ >= 0.6) {
      range = 1;
    } else if (soc_estimate_ >= 0.4) {
      range = 2;
    }
    ah_by_range_[range] += q;
  } else if (i < 0.0) {
    ah_charged_ += q;
  }

  time_total_ += dt;
  if (soc_estimate_ < 0.40) time_below_40_ += dt;

  // DR: exponentially weighted discharge current over the configured window.
  const double discharge = std::max(0.0, i);
  dr_ewma_ += dr_alpha_ * (discharge - dr_ewma_);

  last_reading_ = reading;
}

AmpereHours PowerTable::ah_in_range(std::size_t range) const {
  BAAT_REQUIRE(range < 4, "SoC range index must be 0..3");
  return ah_by_range_[range];
}

void PowerTable::save_state(snapshot::SnapshotWriter& w) const {
  w.write_f64(ah_discharged_.value());
  w.write_f64(ah_charged_.value());
  for (const AmpereHours& ah : ah_by_range_) w.write_f64(ah.value());
  w.write_f64(time_total_.value());
  w.write_f64(time_below_40_.value());
  w.write_f64(dr_ewma_);
  w.write_f64(soc_estimate_);
  w.write_bool(last_reading_.has_value());
  // Qualified: the member function would otherwise hide the free helper.
  if (last_reading_) telemetry::save_state(w, *last_reading_);
}

void PowerTable::load_state(snapshot::SnapshotReader& r) {
  ah_discharged_ = AmpereHours{r.read_f64()};
  ah_charged_ = AmpereHours{r.read_f64()};
  for (AmpereHours& ah : ah_by_range_) ah = AmpereHours{r.read_f64()};
  time_total_ = Seconds{r.read_f64()};
  time_below_40_ = Seconds{r.read_f64()};
  dr_ewma_ = r.read_f64();
  soc_estimate_ = r.read_f64();
  last_reading_.reset();
  if (r.read_bool()) telemetry::load_state(r, last_reading_.emplace());
}

}  // namespace baat::telemetry
