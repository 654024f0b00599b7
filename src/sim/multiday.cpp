#include "sim/multiday.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>

#include "battery/chemistry_model.hpp"
#include "fault/injector.hpp"
#include "obs/blackbox.hpp"
#include "obs/obs.hpp"
#include "sim/datacenter.hpp"
#include "snapshot/sections.hpp"
#include "telemetry/soh.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {

namespace {

std::string ledger_csv(const Cluster& cluster) {
  using obs::format_number;
  // Mechanism columns follow the chemistry's axis (lead-acid reproduces the
  // historical five-column header byte-for-byte).
  const battery::MechanismAxis axis =
      battery::mechanism_axis(cluster.config().bank.kind);
  std::string csv = "scope,node";
  for (std::size_t i = 0; i < axis.count; ++i) csv += std::string(",fade_") + axis.names[i];
  csv += ",fade_total,cycle_damage,efc,low_soc_dwell_s\n";
  const auto row = [&](const char* scope, const std::string& node,
                       const battery::MechanismFade& f, double damage, double efc,
                       double dwell) {
    const std::array<double, 5> slots = {f.corrosion, f.shedding, f.sulphation,
                                         f.stratification, f.water_loss};
    csv += std::string(scope) + "," + node;
    for (std::size_t i = 0; i < axis.count; ++i) csv += "," + format_number(slots[i]);
    csv += "," + format_number(f.total()) + "," + format_number(damage) + "," +
           format_number(efc) + "," + format_number(dwell) + "\n";
  };
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const battery::CellLedgerEntry t = cluster.node_ledger_total(i);
    row("total", std::to_string(i), t.fade, t.cycle_damage, t.efc, t.low_soc_dwell_s);
    const battery::CellLedgerEntry d = cluster.node_ledger_delta(i);
    row("window", std::to_string(i), d.fade, d.cycle_damage, d.efc, d.low_soc_dwell_s);
  }
  const battery::LedgerRollup roll = cluster.ledger_rollup(true);
  row("total", "cluster", roll.fade, roll.cycle_damage, roll.efc, roll.low_soc_dwell_s);
  return csv;
}

/// Assemble and atomically publish a flight-recorder bundle for one cluster
/// (DESIGN.md §5g). Best-effort by design: this runs while a simulation is
/// dying, so failures go to stderr and are never thrown over the original
/// error.
void dump_cluster_blackbox(Cluster& cluster, long day, const char* reason,
                           const std::string& parent_dir, std::uint64_t config_hash) {
  try {
    std::vector<obs::BlackboxFile> files;

    std::ostringstream manifest;
    manifest << "{\"format\": 1, \"day\": " << day << ", \"reason\": "
             << obs::json_quote(reason)
             << ", \"sim_time\": " << obs::format_number(util::sim_time())
             << ", \"health_score\": "
             << obs::format_number(cluster.watchdog().log().score())
             << ", \"incidents\": " << cluster.watchdog().log().count() << "}\n";
    files.push_back({"MANIFEST.json", manifest.str()});

    files.push_back({"health.txt", cluster.watchdog().log().report(
                                       std::string("blackbox: ") + reason)});

    std::ostringstream trace;
    obs::global_trace().write_jsonl(trace);
    files.push_back({"trace.jsonl", trace.str()});
    files.push_back({"metrics.json", obs::global_registry().json()});
    files.push_back({"ledger.csv", ledger_csv(cluster)});

    // A snapshot is only well-defined at a day boundary (no live workload
    // microstate); mid-day deaths ship the bundle without one.
    try {
      snapshot::SnapshotWriter w;
      cluster.save_state(w);
      const std::vector<std::uint8_t> container =
          snapshot::section_file_bytes(config_hash, {w.bytes()});
      files.push_back({"cluster.snap",
                       std::string(reinterpret_cast<const char*>(container.data()),
                                   container.size())});
    } catch (const snapshot::SnapshotError&) {
      // mid-day: skip the snapshot, keep the rest of the bundle
    }

    const std::string path = obs::write_blackbox_bundle(parent_dir, day, files);
    std::cerr << "[blackbox] wrote flight-recorder bundle '" << path << "' (" << reason
              << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "[blackbox] bundle write failed: " << e.what() << "\n";
  }
}

/// Everything the day loop carries from one day to the next besides the
/// shards themselves: checkpoint section 0.
struct LoopState {
  MultiDayResult result;
  // The probe series feeds an online SoH estimator — the least-squares fit
  // behind the lifetime projection. A probe_stale fault repeats the previous
  // measurement instead of running a fresh one (the series still advances).
  telemetry::SohEstimator soh;
  std::optional<battery::ProbeResult> last_probe;
  SeriesWriter series;

  void save(snapshot::SnapshotWriter& w, std::size_t next_day,
            const std::vector<solar::DayType>& weather) const {
    w.write_u64(next_day);
    std::vector<std::uint8_t> weather_bytes;
    weather_bytes.reserve(weather.size());
    for (solar::DayType t : weather) weather_bytes.push_back(static_cast<std::uint8_t>(t));
    w.write_u8_vec(weather_bytes);
    soh.save_state(w);
    const battery::ProbeResult probe = last_probe.value_or(battery::ProbeResult{});
    w.write_bool(last_probe.has_value());
    w.write_f64(probe.full_voltage.value());
    w.write_f64(probe.capacity_fraction);
    w.write_f64(probe.energy_per_cycle.value());
    w.write_f64(probe.round_trip_efficiency);
    save_state(w, result);
    obs::global_registry().save_state(w);
    obs::global_trace().save_state(w);
    w.write_f64(util::sim_time());
    series.save_state(w);
  }

  /// Restores section 0 and returns the first day left to run.
  std::size_t load(snapshot::SnapshotReader& r, const std::string& path, std::size_t days,
                   const std::vector<solar::DayType>& weather) {
    const auto next_day = static_cast<std::size_t>(r.read_u64());
    if (next_day > days) {
      throw snapshot::SnapshotError("snapshot '" + path + "' has already passed day " +
                                    std::to_string(days) + "; nothing left to resume");
    }
    const std::vector<std::uint8_t> saved_weather = r.read_u8_vec();
    for (std::size_t d = 0; d < saved_weather.size() && d < weather.size(); ++d) {
      if (saved_weather[d] != static_cast<std::uint8_t>(weather[d])) {
        throw snapshot::SnapshotError(
            "snapshot '" + path + "' was taken under a different weather "
            "sequence (day " + std::to_string(d) + " differs); the config hash should "
            "normally catch this — check seed and sunshine options");
      }
    }
    soh.load_state(r);
    const bool has_probe = r.read_bool();
    battery::ProbeResult probe;
    probe.full_voltage = util::Volts{r.read_f64()};
    probe.capacity_fraction = r.read_f64();
    probe.energy_per_cycle = util::WattHours{r.read_f64()};
    probe.round_trip_efficiency = r.read_f64();
    if (has_probe) last_probe = probe;
    load_state(r, result);
    obs::global_registry().load_state(r);
    obs::global_trace().load_state(r);
    util::set_sim_time(r.read_f64());
    series.load_state(r);
    if (!r.exhausted()) {
      throw snapshot::SnapshotError("snapshot '" + path + "' carries " +
                                    std::to_string(r.remaining()) +
                                    " trailing bytes past the restored state");
    }
    return next_day;
  }
};

/// Restores a day-loop checkpoint into `loop` and `dc`; returns the first
/// day left to run. Status goes to stderr: stdout must stay byte-identical
/// to the uninterrupted run.
std::size_t resume_checkpoint(Datacenter& dc, const MultiDayOptions& options,
                              const std::vector<solar::DayType>& weather, LoopState& loop) {
  const CheckpointOptions& ckpt = options.checkpoint;
  snapshot::SectionFileReader in(ckpt.resume_path, ckpt.config_hash);
  if (in.header().section_count != 1 + dc.shard_count()) {
    throw snapshot::SnapshotError(
        "snapshot '" + ckpt.resume_path + "' holds " +
        std::to_string(in.header().section_count) + " sections but a " +
        std::to_string(dc.shard_count()) + "-shard datacenter needs " +
        std::to_string(1 + dc.shard_count()));
  }
  const std::vector<std::uint8_t> loop_section = in.read_section();
  snapshot::SnapshotReader r{loop_section};
  const std::size_t start_day = loop.load(r, ckpt.resume_path, options.days, weather);
  dc.load_shard_sections(in);
  in.finish();
  dc.resume_at_day(static_cast<long>(start_day));
  std::cerr << "[checkpoint] resumed from '" << ckpt.resume_path << "' at day " << start_day
            << " of " << options.days << "\n";
  return start_day;
}

void write_checkpoint(const Datacenter& dc, const MultiDayOptions& options,
                      const std::vector<solar::DayType>& weather, const LoopState& loop,
                      std::size_t next_day) {
  const CheckpointOptions& ckpt = options.checkpoint;
  snapshot::SnapshotWriter w;
  loop.save(w, next_day, weather);

  const std::string dir = ckpt.dir.empty() ? std::string(".") : ckpt.dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw snapshot::SnapshotError("cannot create checkpoint directory '" + dir +
                                  "': " + ec.message());
  }
  const std::string path = dir + "/checkpoint-day-" + std::to_string(next_day) + ".snap";
  snapshot::SectionFileWriter out(path, ckpt.config_hash, 1 + dc.shard_count());
  out.append(w.bytes());
  dc.save_shard_sections(out);
  out.commit();
  std::cerr << "[checkpoint] wrote '" << path << "' after day " << next_day << "\n";
}

/// The monthly instrumented probe behind Figs 3–5: the battery with the
/// largest *cumulative* throughput, so the series tracks one physical unit
/// as the prototype did. Scanned shard-major with strict >, which at one
/// shard is the single-cluster selection rule.
void take_monthly_probe(Datacenter& dc, std::size_t day, std::size_t every, LoopState& loop) {
  std::size_t worst_shard = 0;
  std::size_t worst_node = 0;
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    const std::vector<battery::Battery>& bank = dc.shard(s).batteries();
    for (std::size_t b = 0; b < bank.size(); ++b) {
      if (bank[b].counters().ah_discharged >
          dc.shard(worst_shard).batteries()[worst_node].counters().ah_discharged) {
        worst_shard = s;
        worst_node = b;
      }
    }
  }
  Cluster& cluster = dc.shard(worst_shard);
  MonthlyProbe mp;
  mp.month = static_cast<int>((day + 1) / every);
  fault::FaultInjector* injector = cluster.injector();
  battery::ProbeResult probe;
  if (injector != nullptr && loop.last_probe.has_value() && injector->probe_is_stale(mp.month)) {
    probe = *loop.last_probe;
  } else {
    probe = battery::run_probe(cluster.batteries()[worst_node]);
    loop.last_probe = probe;
  }
  loop.soh.add_probe(static_cast<double>(day + 1), probe.capacity_fraction);
  mp.full_voltage = probe.full_voltage.value();
  mp.capacity_fraction = probe.capacity_fraction;
  mp.energy_per_cycle_wh = probe.energy_per_cycle.value();
  mp.round_trip_efficiency = probe.round_trip_efficiency;
  mp.health = cluster.batteries()[worst_node].health();
  loop.result.monthly.push_back(mp);
}

}  // namespace

std::vector<solar::DayType> mixed_weather(std::size_t days, std::size_t sunny,
                                          std::size_t cloudy, std::size_t rainy) {
  BAAT_REQUIRE(sunny + cloudy + rainy > 0, "weather mix must be non-empty");
  std::vector<solar::DayType> pattern;
  for (std::size_t i = 0; i < sunny; ++i) pattern.push_back(solar::DayType::Sunny);
  for (std::size_t i = 0; i < cloudy; ++i) pattern.push_back(solar::DayType::Cloudy);
  for (std::size_t i = 0; i < rainy; ++i) pattern.push_back(solar::DayType::Rainy);
  std::vector<solar::DayType> seq(days);
  for (std::size_t d = 0; d < days; ++d) seq[d] = pattern[d % pattern.size()];
  return seq;
}

MultiDayResult run_multi_day(Cluster& cluster, const MultiDayOptions& options) {
  Datacenter dc{cluster};
  return run_datacenter_multi_day(dc, options);
}

MultiDayResult run_datacenter_multi_day(Datacenter& dc, const MultiDayOptions& options) {
  BAAT_OBS_TIMED("run_multi_day");
  BAAT_REQUIRE(options.days > 0, "must simulate at least one day");

  std::vector<solar::DayType> weather = options.weather;
  if (weather.empty()) {
    util::Rng weather_rng = util::Rng::stream(dc.config().scenario.seed, "weather-seq");
    weather = solar::Location{options.sunshine_fraction}.sample_days(options.days,
                                                                     weather_rng);
  }
  BAAT_REQUIRE(weather.size() >= options.days, "weather sequence shorter than run");

  LoopState loop;
  loop.series.configure(options.series);
  const CheckpointOptions& ckpt = options.checkpoint;
  const std::size_t start_day =
      ckpt.resume_path.empty() ? 0 : resume_checkpoint(dc, options, weather, loop);

  // Ship a flight-recorder bundle for the failing shard of the day being
  // run. The bundle's metrics/trace come from the caller's sinks, so the
  // shard registries are folded in first to show the whole datacenter.
  long blackbox_day = static_cast<long>(start_day);
  const auto dump_blackbox = [&dc, &options](long day, const char* reason) {
    dc.merge_metrics_into(obs::global_registry());
    dump_cluster_blackbox(dc.shard(dc.last_failed_shard()), day, reason,
                          options.blackbox_dir, options.checkpoint.config_hash);
  };
  // Fatal signals and uncaught exceptions land here via the crash handlers.
  std::optional<obs::CrashDumpHook> crash_hook;
  if (options.blackbox) {
    crash_hook.emplace([&dump_blackbox, &blackbox_day](const char* reason) {
      dump_blackbox(blackbox_day, reason);
    });
  }

  for (std::size_t d = start_day; d < options.days; ++d) {
    blackbox_day = static_cast<long>(d);
    DayResult day_result;
    try {
      day_result = dc.run_day(dc.sample_solar_days(weather[d]));
    } catch (const std::exception& e) {
      // The watchdog tripped or the day loop died some other way: ship the
      // flight-recorder bundle, then let the error propagate untouched.
      if (options.blackbox) dump_blackbox(static_cast<long>(d), e.what());
      throw;
    }
    loop.result.total_throughput += day_result.throughput_work;
    // Same-edge merge, not re-binning: re-adding bin weights at bin_lo()
    // silently dropped each day's underflow/overflow weight — exactly the
    // out-of-range low-SoC (and pegged-full) node-seconds Figs 18/19 read.
    loop.result.soc_histogram.merge(day_result.soc_histogram);

    if (options.probe_every_days > 0 && (d + 1) % options.probe_every_days == 0) {
      take_monthly_probe(dc, d, options.probe_every_days, loop);
    }

    if (loop.series.should_write(static_cast<long>(d))) {
      loop.series.write_day(static_cast<long>(d), dc.shard_ptrs(), day_result);
      // Advance the attribution window so the next row reports per-window
      // deltas, not lifetime totals repeated.
      for (std::size_t s = 0; s < dc.shard_count(); ++s) dc.shard(s).ledger_advance();
    }

    if (options.keep_days) loop.result.days.push_back(std::move(day_result));

    if (ckpt.every_days > 0 && (d + 1) % ckpt.every_days == 0 && d + 1 < options.days) {
      write_checkpoint(dc, options, weather, loop, d + 1);
    }
  }

  MultiDayResult& result = loop.result;
  double mean_health = 0.0;
  double min_health = 1.0;
  for (std::size_t s = 0; s < dc.shard_count(); ++s) {
    for (const battery::Battery& b : dc.shard(s).batteries()) {
      mean_health += b.health();
      min_health = std::min(min_health, b.health());
    }
  }
  result.mean_health_end = mean_health / static_cast<double>(dc.node_count());
  result.min_health_end = min_health;
  if (loop.soh.probe_count() >= 2) result.projected_eol_day = loop.soh.projected_eol_day();
  return std::move(result);
}

std::uint64_t scenario_fingerprint(const ScenarioConfig& cfg, const MultiDayOptions& options) {
  // Serialize every trajectory-shaping knob into a buffer and hash it. The
  // encoding only has to be stable within one format version — it is never
  // decoded, just compared.
  snapshot::SnapshotWriter w;
  w.write_u64(cfg.nodes);
  w.write_u64(cfg.seed);
  w.write_u8(static_cast<std::uint8_t>(cfg.policy));
  w.write_u8(static_cast<std::uint8_t>(cfg.soc_estimation));
  w.write_f64(cfg.dt.value());
  w.write_f64(cfg.control_period.value());
  w.write_f64(cfg.day_start.value());
  w.write_f64(cfg.day_end.value());
  w.write_f64(cfg.migration_pause.value());
  w.write_f64(cfg.brownout_restart_soc);
  w.write_i64(cfg.replicas);
  w.write_u64(cfg.daily_jobs.size());
  // Math tier bytes: 0 exact, 1 fast, 2 simd (exact/fast values unchanged so
  // pre-simd checkpoints keep their config hashes).
  w.write_u8(cfg.bank.math == battery::MathMode::Simd
                 ? 2
                 : (cfg.bank.math == battery::MathMode::Fast ? 1 : 0));
  w.write_f64(cfg.bank.chemistry.capacity_c20.value());
  w.write_i64(cfg.bank.chemistry.cells);
  w.write_f64(cfg.bank.capacity_sigma);
  w.write_f64(cfg.bank.resistance_sigma);
  w.write_f64(cfg.bank.initial_soc);
  w.write_f64(cfg.policy_params.planned.cycles_plan);
  w.write_bool(cfg.guard.enabled);
  w.write_string(cfg.faults.to_string());
  w.write_u64(options.days);
  w.write_f64(options.sunshine_fraction);
  w.write_u64(options.probe_every_days);
  w.write_u64(options.weather.size());
  for (solar::DayType t : options.weather) w.write_u8(static_cast<std::uint8_t>(t));
  // Appended only off the default so every pre-chemistry checkpoint keeps
  // its config hash; a non-default chemistry changes the hash, refusing
  // mismatched resumes before the fleet-level sentinel even loads.
  if (cfg.bank.kind != battery::Chemistry::LeadAcid) {
    w.write_u8(static_cast<std::uint8_t>(cfg.bank.kind));
  }
  // FNV-1a over the buffer, folded with the payload CRC so both byte order
  // and content contribute; never zero (0 means "unchecked").
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::uint8_t b : w.bytes()) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  h ^= static_cast<std::uint64_t>(snapshot::crc32(w.bytes())) << 32;
  return h == 0 ? 1 : h;
}

}  // namespace baat::sim
