#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "battery/battery.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "sim/experiment.hpp"
#include "snapshot/serialize.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/power_table.hpp"
#include "telemetry/sensor.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::telemetry {
namespace {

using util::amperes;
using util::hours;
using util::minutes;

battery::Battery fresh(double soc = 1.0) {
  return battery::Battery{battery::LeadAcidParams{}, battery::AgingParams{},
                          battery::ThermalParams{}, 1.0, 1.0, soc};
}

PowerTable make_table() {
  PowerTableParams p;
  p.chemistry = battery::LeadAcidParams{};
  return PowerTable{p};
}

/// Drives a battery and logs every step through a noiseless sensor.
void drive(battery::Battery& bat, PowerTable& table, double amps, double hours_len) {
  BatterySensor sensor{SensorNoise{0.0, 0.0, 0.0}, util::Rng{1}};
  const auto steps = static_cast<long>(hours_len * 60.0);
  for (long i = 0; i < steps; ++i) {
    const auto res = bat.step(amperes(amps), minutes(1.0));
    const auto reading = sensor.read(bat, res.actual_current,
                                     util::Seconds{table.time_total().value()});
    table.record(reading, minutes(1.0));
  }
}

TEST(Sensor, NoiselessSensorMatchesGroundTruth) {
  battery::Battery b = fresh(0.8);
  BatterySensor s{SensorNoise{0.0, 0.0, 0.0}, util::Rng{1}};
  const auto r = s.read(b, amperes(5.0), util::Seconds{0.0});
  EXPECT_DOUBLE_EQ(r.voltage.value(), b.terminal_voltage(amperes(5.0)).value());
  EXPECT_DOUBLE_EQ(r.current.value(), 5.0);
  EXPECT_DOUBLE_EQ(r.temperature.value(), b.temperature().value());
}

TEST(Sensor, NoiseIsBoundedInPractice) {
  battery::Battery b = fresh(0.8);
  BatterySensor s{SensorNoise{}, util::Rng{1}};
  for (int i = 0; i < 1000; ++i) {
    const auto r = s.read(b, amperes(5.0), util::Seconds{0.0});
    EXPECT_NEAR(r.voltage.value(), b.terminal_voltage(amperes(5.0)).value(), 0.1);
    EXPECT_NEAR(r.current.value(), 5.0, 0.5);
  }
}

TEST(PowerTable, SocEstimateTracksTruthOnFreshUnit) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 5.0, 3.0);  // 15 Ah out of 35 → soc ≈ 0.55 (Peukert a bit lower)
  EXPECT_NEAR(t.estimated_soc(), b.soc(), 0.08);
}

TEST(PowerTable, AccumulatesChargeAndDischargeSeparately) {
  battery::Battery b = fresh(0.9);
  PowerTable t = make_table();
  drive(b, t, 5.0, 2.0);
  drive(b, t, -5.0, 1.0);
  EXPECT_NEAR(t.ah_discharged().value(), 10.0, 0.01);
  EXPECT_NEAR(t.ah_charged().value(), 5.0, 0.01);
}

TEST(PowerTable, RangeBinsSumToTotal) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 6.0, 5.0);  // deep drain across ranges
  const double sum = t.ah_in_range(0).value() + t.ah_in_range(1).value() +
                     t.ah_in_range(2).value() + t.ah_in_range(3).value();
  EXPECT_NEAR(sum, t.ah_discharged().value(), 1e-9);
  EXPECT_THROW(t.ah_in_range(4), util::PreconditionError);
}

TEST(PowerTable, TimeBelow40Tracked) {
  battery::Battery b = fresh(0.2);
  PowerTable t = make_table();
  drive(b, t, 0.0, 2.0);
  // The estimator starts at SoC 1 and needs a few rest anchors to converge
  // onto the deeply discharged unit, so allow a short warm-up slack.
  EXPECT_NEAR(t.time_below_40().value(), 7200.0, 900.0);
  EXPECT_NEAR(t.time_total().value(), 7200.0, 1e-9);
}

TEST(PowerTable, DrEwmaRisesAndDecays) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 10.0, 1.0);
  const double during = t.recent_discharge_amps();
  EXPECT_NEAR(during, 10.0, 0.5);
  drive(b, t, 0.0, 1.0);
  EXPECT_LT(t.recent_discharge_amps(), 0.1);
}

TEST(PowerTable, LastReadingIsNewestRecorded) {
  PowerTable t = make_table();
  EXPECT_FALSE(t.last_reading().has_value());
  SensorReading a;
  a.time = util::Seconds{60.0};
  a.voltage = util::Volts{12.6};
  a.current = util::Amperes{2.0};
  a.temperature = util::Celsius{26.0};
  t.record(a, minutes(1.0));
  SensorReading b = a;
  b.time = util::Seconds{120.0};
  b.current = util::Amperes{-3.0};
  t.record(b, minutes(1.0));
  ASSERT_TRUE(t.last_reading().has_value());
  EXPECT_EQ(t.last_reading()->time.value(), 120.0);
  EXPECT_EQ(t.last_reading()->current.value(), -3.0);
  EXPECT_EQ(t.last_reading()->voltage.value(), 12.6);
  EXPECT_EQ(t.last_reading()->temperature.value(), 26.0);
}

TEST(PowerTable, LastReadingKeepsStuckSensorTimestamp) {
  // A stuck sensor re-delivers its frozen sample: the table must hold that
  // sample's old timestamp, which is what the guard judges staleness by.
  fault::FaultInjector inj{fault::parse_fault_plan("sensor_stuck:p=1:hold=10"), 5, 1};
  PowerTable t = make_table();
  SensorReading r;
  r.voltage = util::Volts{12.5};
  r.current = util::Amperes{1.0};
  for (int k = 0; k < 5; ++k) {
    r.time = util::Seconds{60.0 * k};
    t.record(inj.perturb_reading(0, r), minutes(1.0));
  }
  ASSERT_TRUE(t.last_reading().has_value());
  EXPECT_EQ(t.last_reading()->time.value(), 0.0);
}

TEST(PowerTable, SaveLoadRoundTripsEmptyAndFilledTables) {
  const auto bytes_of = [](const PowerTable& t) {
    snapshot::SnapshotWriter w;
    t.save_state(w);
    return w.bytes();
  };
  battery::Battery b = fresh(0.9);
  PowerTable filled = make_table();
  drive(b, filled, 4.0, 1.0);
  const std::vector<std::uint8_t> filled_bytes = bytes_of(filled);
  // Load over a table holding other state, so every field must come from
  // the bytes.
  PowerTable restored = make_table();
  SensorReading stray;
  stray.time = util::Seconds{1e6};
  restored.record(stray, minutes(1.0));
  snapshot::SnapshotReader filled_rd{filled_bytes};
  restored.load_state(filled_rd);
  EXPECT_TRUE(filled_rd.exhausted());
  EXPECT_EQ(bytes_of(restored), filled_bytes);
  ASSERT_TRUE(restored.last_reading().has_value());
  EXPECT_EQ(restored.last_reading()->time.value(), filled.last_reading()->time.value());
  EXPECT_EQ(restored.estimated_soc(), filled.estimated_soc());
  EXPECT_EQ(restored.recent_discharge_amps(), filled.recent_discharge_amps());

  const std::vector<std::uint8_t> empty_bytes = bytes_of(make_table());
  snapshot::SnapshotReader empty_rd{empty_bytes};
  restored.load_state(empty_rd);
  EXPECT_TRUE(empty_rd.exhausted());
  EXPECT_FALSE(restored.last_reading().has_value());
  EXPECT_EQ(bytes_of(restored), empty_bytes);
  EXPECT_EQ(restored.time_total().value(), 0.0);
}

// The cluster inverts each reading's voltage once, in one batch across the
// shard, and hands the value to both of the node's tables: that record must
// leave exactly the state the self-computing record does, for every curve,
// under both estimation schemes, poisoned readings included.
TEST(PowerTable, SharedVoltageSocRecordMatchesSelfComputed) {
  const auto bytes_of = [](const PowerTable& t) {
    snapshot::SnapshotWriter w;
    t.save_state(w);
    return w.bytes();
  };
  const std::size_t nodes = battery::kSocBatchBlock + 3;
  const battery::OcvCurve curves[] = {
      battery::OcvCurve::LeadAcidQuadratic, battery::OcvCurve::NmcCubic,
      battery::OcvCurve::LfpPlateau, battery::OcvCurve::Linear};
  for (const SocEstimation scheme :
       {SocEstimation::RestAnchoredCoulomb, SocEstimation::VoltageOnly}) {
    for (const battery::OcvCurve curve : curves) {
      PowerTableParams params;
      params.ocv_curve = curve;
      params.estimation = scheme;
      std::vector<PowerTable> self(nodes, PowerTable{params});
      std::vector<PowerTable> shared(nodes, PowerTable{params});
      std::vector<SensorReading> readings(nodes);
      std::vector<double> voltage_soc(nodes);
      util::Rng rng{static_cast<std::uint64_t>(curve) * 2 + 1};
      for (std::size_t tick = 0; tick < 200; ++tick) {
        for (std::size_t i = 0; i < nodes; ++i) {
          SensorReading& r = readings[i];
          r.time = util::Seconds{60.0 * static_cast<double>(tick)};
          r.voltage = util::Volts{rng.uniform(11.3, 13.0)};
          // Rest, discharge and charge currents, all three in every tick.
          switch ((i + tick) % 3) {
            case 0: r.current = amperes(rng.normal(0.0, 0.5)); break;
            case 1: r.current = amperes(rng.uniform(1.0, 20.0)); break;
            default: r.current = amperes(-rng.uniform(1.0, 8.0)); break;
          }
        }
        if (tick == 150) readings[4].voltage = util::Volts{std::nan("")};
        voltage_soc_batch(params, readings, voltage_soc);
        for (std::size_t i = 0; i < nodes; ++i) {
          self[i].record(readings[i], minutes(1.0));
          shared[i].record(readings[i], minutes(1.0), voltage_soc[i]);
        }
      }
      for (std::size_t i = 0; i < nodes; ++i) {
        EXPECT_EQ(bytes_of(shared[i]), bytes_of(self[i]))
            << "curve " << static_cast<int>(curve) << " scheme "
            << static_cast<int>(scheme) << " node " << i;
      }
    }
  }
}

TEST(PowerTable, StuckSensorStaleFallbacksPinned) {
  // The guard reads its staleness timestamp from last_reading(). Pin the
  // stale-fallback count of a stuck-sensor run so the timestamp the guard
  // sees cannot drift. 662 is what the same run counted when the timestamp
  // still came from the back of a raw sample ring.
  constexpr double kStuckStaleFallbacks = 662.0;
  obs::Registry reg;
  obs::Registry* const prev = obs::set_thread_registry(&reg);
  util::set_sim_time(0.0);
  sim::ScenarioConfig cfg = sim::prototype_scenario();
  cfg.nodes = 4;
  cfg.seed = 11;
  cfg.faults = fault::parse_fault_plan("sensor_stuck:p=0.02:hold=45");
  cfg.guard.enabled = true;
  {
    sim::Cluster cluster{cfg};
    for (const solar::DayType day :
         {solar::DayType::Sunny, solar::DayType::Cloudy, solar::DayType::Rainy}) {
      (void)cluster.run_day(day);
    }
  }
  obs::set_thread_registry(prev);
  EXPECT_EQ(reg.counter("policy.fallback", "stale").value(), kStuckStaleFallbacks);
}

TEST(Metrics, FreshTableIsNeutral) {
  PowerTable t = make_table();
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_DOUBLE_EQ(m.nat, 0.0);
  EXPECT_DOUBLE_EQ(m.cf, 1.0);
  EXPECT_DOUBLE_EQ(m.ddt, 0.0);
  EXPECT_DOUBLE_EQ(m.dr_c_rate, 0.0);
}

TEST(Metrics, NatIsLifeFraction) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 7.0, 2.0);  // 14 Ah
  MetricParams p;
  p.lifetime_throughput = util::ampere_hours(1400.0);
  const AgingMetrics m = compute_metrics(t, p);
  EXPECT_NEAR(m.nat, 0.01, 1e-4);
}

TEST(Metrics, CfReflectsRechargeRatio) {
  battery::Battery b = fresh(0.8);
  PowerTable t = make_table();
  drive(b, t, 5.0, 2.0);   // 10 Ah out
  drive(b, t, -5.0, 2.0);  // 10 Ah in
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_NEAR(m.cf, 1.0, 0.05);
}

TEST(Metrics, PcHighSocIsHealthy) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 3.0, 1.0);  // all output at high SoC
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_NEAR(m.pc, 0.25, 0.01);
  EXPECT_NEAR(m.pc_health, 1.0, 0.05);
}

TEST(Metrics, PcDeepDischargeIsWorse) {
  battery::Battery shallow_b = fresh(1.0);
  PowerTable shallow_t = make_table();
  drive(shallow_b, shallow_t, 3.0, 1.0);
  battery::Battery deep_b = fresh(0.3);
  PowerTable deep_t = make_table();
  drive(deep_b, deep_t, 3.0, 1.0);
  const AgingMetrics shallow = compute_metrics(shallow_t, MetricParams{});
  const AgingMetrics deep = compute_metrics(deep_t, MetricParams{});
  EXPECT_GT(deep.pc, shallow.pc + 0.3);
  EXPECT_LT(deep.pc_health, shallow.pc_health - 0.3);
}

TEST(Metrics, DdtIsTimeFraction) {
  battery::Battery b = fresh(0.2);
  PowerTable t = make_table();
  drive(b, t, 0.0, 1.0);   // 1 h deep
  battery::Battery b2 = fresh(0.9);
  drive(b2, t, 0.0, 3.0);  // 3 h high (same table: 25% of time deep)
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_NEAR(m.ddt, 0.25, 0.035);  // small estimator warm-up slack
}

TEST(Metrics, DrIsCRate) {
  battery::Battery b = fresh(1.0);
  PowerTable t = make_table();
  drive(b, t, 17.5, 0.5);  // C/2
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_NEAR(m.dr_c_rate, 0.5, 0.05);
}

TEST(Metrics, CfClampedAgainstGlitches) {
  PowerTable t = make_table();
  battery::Battery b = fresh(0.5);
  // Tiny discharge, huge charge: CF would explode without the clamp.
  drive(b, t, 0.1, 0.1);
  drive(b, t, -8.0, 6.0);
  const AgingMetrics m = compute_metrics(t, MetricParams{});
  EXPECT_LE(m.cf, 5.0);
}

TEST(Metrics, RejectsBadParams) {
  PowerTable t = make_table();
  MetricParams p;
  p.lifetime_throughput = util::ampere_hours(0.0);
  EXPECT_THROW(compute_metrics(t, p), util::PreconditionError);
}

}  // namespace
}  // namespace baat::telemetry
