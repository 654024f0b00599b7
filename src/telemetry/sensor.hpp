#pragma once

// Front-end battery sensors (§V-A.2). The prototype measures voltage,
// current and surface temperature of each battery through NI hardware;
// Table 2 lists exactly these variables plus working time. We sample the
// same observables, with optional Gaussian measurement noise so the control
// path never quietly depends on ground truth it would not have in hardware.

#include "battery/battery.hpp"
#include "snapshot/serialize.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace baat::telemetry {

using util::Amperes;
using util::Celsius;
using util::Seconds;
using util::Volts;

/// One sensor sample — the Table 2 schema.
struct SensorReading {
  Seconds time{0.0};
  Volts voltage{0.0};
  Amperes current{0.0};   ///< >0 discharge
  Celsius temperature{0.0};
};

/// Checkpoint helpers shared by everything that retains readings (the power
/// table's last reading, the fault injector's stuck/last slots).
inline void save_state(snapshot::SnapshotWriter& w, const SensorReading& s) {
  w.write_f64(s.time.value());
  w.write_f64(s.voltage.value());
  w.write_f64(s.current.value());
  w.write_f64(s.temperature.value());
}

inline void load_state(snapshot::SnapshotReader& r, SensorReading& s) {
  s.time = Seconds{r.read_f64()};
  s.voltage = Volts{r.read_f64()};
  s.current = Amperes{r.read_f64()};
  s.temperature = Celsius{r.read_f64()};
}

struct SensorNoise {
  double voltage_sigma = 0.01;   ///< volts
  double current_sigma = 0.05;   ///< amperes
  double temperature_sigma = 0.2;  ///< kelvin
};

class BatterySensor {
 public:
  BatterySensor(SensorNoise noise, util::Rng rng);

  /// Sample the battery as it carries `actual_current` at time `now`.
  SensorReading read(const battery::Battery& bat, Amperes actual_current, Seconds now);

  /// Checkpoint support: only the noise RNG advances at runtime.
  void save_state(snapshot::SnapshotWriter& w) const { rng_.save_state(w); }
  void load_state(snapshot::SnapshotReader& r) { rng_.load_state(r); }

 private:
  SensorNoise noise_;
  util::Rng rng_;
};

}  // namespace baat::telemetry
