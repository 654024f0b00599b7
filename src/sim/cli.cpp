#include "sim/cli.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "core/lifetime.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "sim/datacenter.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {

namespace {

core::PolicyKind parse_policy(const std::string& name) {
  if (name == "ebuff" || name == "e-Buff") return core::PolicyKind::EBuff;
  if (name == "baat-s") return core::PolicyKind::BaatS;
  if (name == "baat-h") return core::PolicyKind::BaatH;
  if (name == "baat") return core::PolicyKind::Baat;
  if (name == "baat-planned") return core::PolicyKind::BaatPlanned;
  if (name == "baat-p") return core::PolicyKind::BaatPredictive;
  throw util::PreconditionError(
      "unknown policy '" + name +
      "' (ebuff|baat-s|baat-h|baat|baat-planned|baat-p)");
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw util::PreconditionError("bad value for " + flag + ": '" + value + "'");
  }
}

// Integer flags must never round-trip through double: above 2^53 a double
// cannot represent every integer, so large --seed values were silently
// corrupted (or spuriously rejected by the exactness check).
long parse_long(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    if (v < std::numeric_limits<long>::min() || v > std::numeric_limits<long>::max()) {
      throw std::out_of_range(value);
    }
    return static_cast<long>(v);
  } catch (const std::exception&) {
    throw util::PreconditionError("expected an integer for " + flag + ": '" + value +
                                  "'");
  }
}

std::uint64_t parse_uint64(const std::string& flag, const std::string& value) {
  try {
    // stoull happily wraps "-1" to 2^64-1; reject signs explicitly.
    if (value.empty() || value[0] == '-' || value[0] == '+') {
      throw std::invalid_argument(value);
    }
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    throw util::PreconditionError("expected an unsigned integer for " + flag + ": '" +
                                  value + "'");
  }
}

std::vector<double> parse_fraction_list(const std::string& flag,
                                        const std::string& value) {
  std::vector<double> out;
  if (value.empty()) {
    throw util::PreconditionError(flag + " needs at least one fraction");
  }
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string item = value.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    // An empty item means a leading/trailing/doubled comma. parse_double
    // would reject it anyway, but with a message about '' being a bad
    // number; name the actual mistake instead.
    if (item.empty()) {
      throw util::PreconditionError(
          flag + " has an empty item (leading, trailing or doubled comma) in '" +
          value + "'");
    }
    const double f = parse_double(flag, item);
    BAAT_REQUIRE(f >= 0.0 && f <= 1.0, flag + " fractions must be in [0, 1]");
    out.push_back(f);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  BAAT_REQUIRE(!out.empty(), flag + " needs at least one fraction");
  return out;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string cli_usage() {
  return "baatsim — green-datacenter battery-aging simulator (BAAT, DSN'15)\n"
         "\n"
         "usage: baatsim [options]\n"
         "  --policy <p>      ebuff | baat-s | baat-h | baat | baat-planned | baat-p (default baat)\n"
         "  --days <n>        days to simulate (default 30)\n"
         "  --sunshine <f>    sunshine fraction 0..1 (default 0.5)\n"
         "  --nodes <n>       server/battery nodes (default 6)\n"
         "  --ratio <w>       server-to-battery ratio, W/Ah (default: prototype)\n"
         "  --cycles-plan <c> Eq 7 planned cycles (enables baat-planned input)\n"
         "  --seed <s>        experiment seed (default 42)\n"
         "  --faults <spec>   comma-separated fault-injection plan, e.g.\n"
         "                    sensor_noise:soc:0.03,pv_dropout:day=2:hours=4 or\n"
         "                    cell_weak:bank=1:capacity=0.8,probe_stale:p=0.01;\n"
         "                    repeatable; enables the degraded-mode telemetry guard\n"
         "  --shards <n>      split the datacenter into n self-contained shards of\n"
         "                    --nodes servers each, stepped in parallel; every\n"
         "                    output byte is independent of the worker count, and\n"
         "                    --shards 1 reproduces the unsharded run exactly\n"
         "  --shard-workers <n>\n"
         "                    worker threads stepping shards (default: BAAT_JOBS\n"
         "                    env or all cores); never changes results\n"
         "  --demand <spec>   request-level demand model replacing the fixed daily\n"
         "                    job plan, e.g. users=2000000,requests=150,peak=14,\n"
         "                    amplitude=0.6,spread=3,flash:day=5:mult=4:hours=2;\n"
         "                    implies datacenter mode (one shard unless --shards)\n"
         "  --sweep-sunshine <f1,f2,...>\n"
         "                    sweep mode: one multi-day run per sunshine fraction,\n"
         "                    executed on the parallel sweep engine\n"
         "  --jobs <n>        sweep worker threads (default: BAAT_JOBS env or all\n"
         "                    cores); never changes results, only wall-clock time\n"
         "  --math <tier>     exact | fast | simd (default exact). fast swaps the\n"
         "                    aging stressor transcendentals for bounded-error\n"
         "                    polynomials (~2e-9 relative error; lifetime metrics\n"
         "                    within 0.1%); simd additionally batches cells across\n"
         "                    SIMD lanes (same tolerance, fastest); exact is\n"
         "                    bit-identical to the reference\n"
         "  --chemistry <c>   lead_acid | li_nmc | li_lfp | bucket (default\n"
         "                    lead_acid, byte-identical to the historical\n"
         "                    simulator). li_nmc/li_lfp swap in Li-ion presets\n"
         "                    (rainflow cycle + calendar aging; li_lfp's flat OCV\n"
         "                    stresses voltage-based SoC estimation); bucket is a\n"
         "                    low-fidelity energy bucket for huge sweeps\n"
         "  --old-fleet       start from a six-month-aged fleet\n"
         "  --checkpoint-every <n>\n"
         "                    write a crash-safe resume snapshot every n days\n"
         "                    (single-run mode; sweeps checkpoint per point)\n"
         "  --checkpoint-dir <d>\n"
         "                    directory for checkpoint files (default '.'); in\n"
         "                    sweep mode this alone enables per-point resume\n"
         "  --resume <path>   resume a single run from a snapshot; the scenario\n"
         "                    flags must match the checkpointed run exactly\n"
         "  --csv <path>      write per-day results to CSV (per-point in sweep mode)\n"
         "  --report <path>   write a markdown experiment report\n"
         "  --metrics-out <p> dump the metrics registry (JSON; .csv suffix for CSV)\n"
         "                    and enable hot-path timer histograms\n"
         "  --trace-out <p>   write the event trace (Chrome trace_event JSON — open\n"
         "                    in chrome://tracing or Perfetto; .jsonl suffix for JSONL)\n"
         "  --trace-events <n> trace ring capacity in events (default 65536)\n"
         "  --series-out <p>  stream a per-day aging-attribution/health time-series\n"
         "                    to <p> (columnar CSV; .jsonl suffix for JSONL). Rows\n"
         "                    are flushed per day — O(1) memory at any horizon. In\n"
         "                    sweep mode each point writes <stem>-point-<i>.<ext>\n"
         "  --series-every <n> emit every nth day of the series (default 1)\n"
         "  --no-health       disable the run-health watchdog (on by default)\n"
         "  --no-blackbox     disable the crash flight recorder (on by default)\n"
         "  --blackbox-dir <d> parent directory for blackbox-<day>/ bundles\n"
         "                    (default: current directory)\n"
         "  --log-level <l>   debug | info | warn | error | off (default warn)\n"
         "  --help            this text\n";
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&](const char* flag) -> const std::string& {
      BAAT_REQUIRE(i + 1 < args.size(), std::string(flag) + " needs a value");
      return args[++i];
    };
    if (a == "--help" || a == "-h") {
      options.show_help = true;
    } else if (a == "--policy") {
      options.policy = parse_policy(next("--policy"));
    } else if (a == "--days") {
      const long v = parse_long(a, next("--days"));
      BAAT_REQUIRE(v > 0, "--days must be positive");
      options.days = static_cast<std::size_t>(v);
    } else if (a == "--sunshine") {
      options.sunshine_fraction = parse_double(a, next("--sunshine"));
      BAAT_REQUIRE(options.sunshine_fraction >= 0.0 && options.sunshine_fraction <= 1.0,
                   "--sunshine must be in [0, 1]");
    } else if (a == "--nodes") {
      const long v = parse_long(a, next("--nodes"));
      BAAT_REQUIRE(v > 0, "--nodes must be positive");
      options.nodes = static_cast<std::size_t>(v);
    } else if (a == "--ratio") {
      options.watts_per_ah = parse_double(a, next("--ratio"));
      BAAT_REQUIRE(options.watts_per_ah > 0.0, "--ratio must be positive");
    } else if (a == "--cycles-plan") {
      options.cycles_plan = parse_double(a, next("--cycles-plan"));
      BAAT_REQUIRE(options.cycles_plan > 0.0, "--cycles-plan must be positive");
    } else if (a == "--seed") {
      options.seed = parse_uint64(a, next("--seed"));
    } else if (a == "--faults") {
      fault::append_fault_plan(options.faults,
                               fault::parse_fault_plan(next("--faults")));
    } else if (a == "--shards") {
      const long v = parse_long(a, next("--shards"));
      BAAT_REQUIRE(v > 0, "--shards must be positive");
      BAAT_REQUIRE(v <= 4096, "--shards must be at most 4096");
      options.shards = static_cast<std::size_t>(v);
    } else if (a == "--shard-workers") {
      const long v = parse_long(a, next("--shard-workers"));
      BAAT_REQUIRE(v > 0, "--shard-workers must be positive");
      options.shard_workers = static_cast<std::size_t>(v);
    } else if (a == "--demand") {
      if (!options.demand.empty()) {
        throw util::PreconditionError(
            "--demand given twice; put flash segments into one spec "
            "(comma-separated) instead");
      }
      options.demand = workload::parse_demand_spec(next("--demand"));
    } else if (a == "--sweep-sunshine") {
      options.sweep_sunshine = parse_fraction_list(a, next("--sweep-sunshine"));
    } else if (a == "--jobs") {
      const long v = parse_long(a, next("--jobs"));
      BAAT_REQUIRE(v > 0, "--jobs must be positive");
      options.jobs = static_cast<std::size_t>(v);
    } else if (a == "--math") {
      const std::string& tier = next("--math");
      if (tier == "exact") {
        options.math = battery::MathMode::Exact;
      } else if (tier == "fast") {
        options.math = battery::MathMode::Fast;
      } else if (tier == "simd") {
        options.math = battery::MathMode::Simd;
      } else {
        throw util::PreconditionError("bad value for --math: '" + tier +
                                      "' (exact|fast|simd)");
      }
    } else if (a == "--chemistry") {
      const std::string& name = next("--chemistry");
      if (!battery::parse_chemistry(name, options.chemistry)) {
        throw util::PreconditionError("bad value for --chemistry: '" + name +
                                      "' (lead_acid|li_nmc|li_lfp|bucket)");
      }
    } else if (a == "--old-fleet") {
      options.old_fleet = true;
    } else if (a == "--checkpoint-every") {
      const long v = parse_long(a, next("--checkpoint-every"));
      BAAT_REQUIRE(v > 0, "--checkpoint-every must be positive");
      options.checkpoint_every = static_cast<std::size_t>(v);
    } else if (a == "--checkpoint-dir") {
      options.checkpoint_dir = next("--checkpoint-dir");
      BAAT_REQUIRE(!options.checkpoint_dir.empty(),
                   "--checkpoint-dir needs a non-empty path");
    } else if (a == "--resume") {
      options.resume_path = next("--resume");
      BAAT_REQUIRE(!options.resume_path.empty(), "--resume needs a non-empty path");
    } else if (a == "--csv") {
      options.csv_path = next("--csv");
    } else if (a == "--report") {
      options.report_path = next("--report");
    } else if (a == "--metrics-out") {
      options.metrics_path = next("--metrics-out");
    } else if (a == "--trace-out") {
      options.trace_path = next("--trace-out");
    } else if (a == "--trace-events") {
      const long v = parse_long(a, next("--trace-events"));
      BAAT_REQUIRE(v > 0, "--trace-events must be positive");
      options.trace_events = static_cast<std::size_t>(v);
    } else if (a == "--series-out") {
      options.series_path = next("--series-out");
      BAAT_REQUIRE(!options.series_path.empty(), "--series-out needs a non-empty path");
    } else if (a == "--series-every") {
      const long v = parse_long(a, next("--series-every"));
      BAAT_REQUIRE(v > 0, "--series-every must be positive");
      options.series_every = v;
    } else if (a == "--no-health") {
      options.health = false;
    } else if (a == "--no-blackbox") {
      options.blackbox = false;
    } else if (a == "--blackbox-dir") {
      options.blackbox_dir = next("--blackbox-dir");
      BAAT_REQUIRE(!options.blackbox_dir.empty(),
                   "--blackbox-dir needs a non-empty path");
    } else if (a == "--log-level") {
      const std::string& name = next("--log-level");
      const auto level = util::parse_log_level(name);
      BAAT_REQUIRE(level.has_value(),
                   "bad value for --log-level: '" + name +
                       "' (debug|info|warn|error|off)");
      options.log_level = level;
    } else {
      throw util::PreconditionError("unknown option '" + a + "' (see --help)");
    }
  }
  if (options.policy == core::PolicyKind::BaatPlanned && options.cycles_plan <= 0.0) {
    throw util::PreconditionError("--policy baat-planned requires --cycles-plan");
  }
  if (options.shard_workers > 0 && options.shards == 0 && options.demand.empty()) {
    throw util::PreconditionError(
        "--shard-workers only applies to datacenter mode (add --shards)");
  }
  if (options.shards > 0 || !options.demand.empty()) {
    if (!options.sweep_sunshine.empty()) {
      throw util::PreconditionError(
          "--shards/--demand cannot combine with --sweep-sunshine; sweep points "
          "are single clusters");
    }
    if (options.shards > 1 && !options.report_path.empty()) {
      throw util::PreconditionError(
          "--report renders a single cluster; it is not available with "
          "--shards > 1");
    }
  }
  if (!options.sweep_sunshine.empty()) {
    // Sweep checkpoints are whole completed points, not day boundaries: the
    // engine skips any point whose `.ckpt` file is already in
    // --checkpoint-dir, so the day-granular flags don't apply.
    if (!options.resume_path.empty()) {
      throw util::PreconditionError(
          "--resume applies to single runs; an interrupted sweep resumes by "
          "re-running with the same --checkpoint-dir (finished points are "
          "skipped)");
    }
    if (options.checkpoint_every > 0) {
      throw util::PreconditionError(
          "--checkpoint-every applies to single runs; sweeps checkpoint each "
          "completed point into --checkpoint-dir");
    }
  }
  return options;
}

ScenarioConfig scenario_from_cli(const CliOptions& options) {
  ScenarioConfig cfg = prototype_scenario();
  cfg.nodes = options.nodes;
  cfg.seed = options.seed;
  cfg.policy = options.policy;
  cfg.bank.math = options.math;
  if (options.chemistry != battery::Chemistry::LeadAcid) {
    // Applied before the --ratio rescale so the server-to-battery ratio
    // reshapes the preset's capacity, not the lead-acid default's.
    battery::apply_chemistry_preset(cfg.bank, options.chemistry);
    cfg.metrics.nameplate = cfg.bank.chemistry.capacity_c20;
    // CAP_nom follows the preset's rated full cycles, as prototype_scenario
    // derives it for lead-acid.
    cfg.metrics.lifetime_throughput = util::ampere_hours(
        cfg.bank.chemistry.capacity_c20.value() * cfg.bank.cycle_curve.cycles_at_full);
    cfg.policy_params.planned.total_throughput = cfg.metrics.lifetime_throughput;
    cfg.policy_params.planned.nameplate = cfg.metrics.nameplate;
  }
  if (options.cycles_plan > 0.0) {
    cfg.policy_params.planned.cycles_plan = options.cycles_plan;
  }
  if (options.watts_per_ah > 0.0) {
    cfg = with_server_battery_ratio(cfg, options.watts_per_ah);
  }
  cfg.watchdog.enabled = options.health;
  cfg.faults = options.faults;
  if (!cfg.faults.empty()) {
    // Degraded-mode posture rides with the fault plan: telemetry guarding
    // on, forecast collapse rate-limited. A clean run keeps the exact
    // pre-fault-layer behaviour.
    cfg.guard.enabled = true;
    cfg.policy_params.forecast.max_attenuation_drop_per_obs = 0.2;
  }
  return cfg;
}

namespace {

/// Fold a value into a fingerprint (Boost-style hash combine). Used for the
/// CLI knobs that shape the trajectory but live outside ScenarioConfig /
/// MultiDayOptions / DatacenterConfig (old fleet, the sweep's fraction list).
std::uint64_t mix_hash(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h == 0 ? 1 : h;
}

/// Per-point series file name: "series.csv" → "series-point-3.csv". A sweep
/// writing every point into one file would interleave; give each its own.
std::string point_series_path(const std::string& path, std::size_t i) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const std::string suffix = "-point-" + std::to_string(i);
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

/// Sweep mode: one multi-day simulation per sunshine fraction, run on the
/// parallel engine. Per-point summaries print (and export) in point order,
/// so stdout, the CSV and the merged obs exports are byte-identical at any
/// --jobs value. With --checkpoint-dir, every finished point commits
/// `point-<i>.ckpt`; re-running the same sweep restores those points and
/// simulates only the missing ones.
void run_sunshine_sweep(const CliOptions& options, const ScenarioConfig& cfg) {
  const std::vector<double>& fractions = options.sweep_sunshine;
  SweepOptions sweep_opts;
  sweep_opts.jobs = options.jobs;
  sweep_opts.trace_capacity = options.trace_events;
  sweep_opts.checkpoint_dir = options.checkpoint_dir;

  MultiDayOptions base_opts;
  base_opts.days = options.days;
  base_opts.probe_every_days = 0;
  base_opts.keep_days = false;
  std::uint64_t sweep_hash =
      mix_hash(scenario_fingerprint(cfg, base_opts), options.old_fleet ? 1 : 0);
  for (double f : fractions) {
    sweep_hash = mix_hash(sweep_hash, std::bit_cast<std::uint64_t>(f));
  }
  sweep_opts.config_hash = sweep_hash;

  std::vector<LifetimeSummary> points(fractions.size());
  std::vector<SweepJob> jobs;
  jobs.reserve(fractions.size());
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    SweepJob job;
    job.name = "point-" + std::to_string(i);
    job.work = [&, i] {
      Cluster cluster{cfg};
      if (options.old_fleet) seed_aged_fleet(cluster, six_month_aged_state());
      MultiDayOptions opts;
      opts.days = options.days;
      opts.sunshine_fraction = fractions[i];
      opts.probe_every_days = 0;
      opts.keep_days = false;
      if (!options.series_path.empty()) {
        opts.series.path = point_series_path(options.series_path, i);
        opts.series.every = options.series_every;
      }
      opts.blackbox = options.blackbox;
      opts.blackbox_dir = options.blackbox_dir;
      const MultiDayResult run = run_multi_day(cluster, opts);
      LifetimeSummary s;
      s.sim_days = static_cast<double>(options.days);
      s.mean_health_end = run.mean_health_end;
      s.min_health_end = run.min_health_end;
      s.throughput = run.total_throughput;
      s.lifetime_days =
          core::extrapolate_lifetime(1.0, run.min_health_end, s.sim_days).days;
      s.lifetime_days_mean =
          core::extrapolate_lifetime(1.0, run.mean_health_end, s.sim_days).days;
      points[i] = s;
    };
    job.save_result = [&points, i](snapshot::SnapshotWriter& w) {
      const LifetimeSummary& s = points[i];
      w.write_f64(s.sim_days);
      w.write_f64(s.mean_health_end);
      w.write_f64(s.min_health_end);
      w.write_f64(s.throughput);
      w.write_f64(s.lifetime_days);
      w.write_f64(s.lifetime_days_mean);
    };
    job.restore_result = [&points, i](snapshot::SnapshotReader& r) {
      LifetimeSummary& s = points[i];
      s.sim_days = r.read_f64();
      s.mean_health_end = r.read_f64();
      s.min_health_end = r.read_f64();
      s.throughput = r.read_f64();
      s.lifetime_days = r.read_f64();
      s.lifetime_days_mean = r.read_f64();
    };
    jobs.push_back(std::move(job));
  }

  const std::vector<SweepResult> results = run_sweep(std::move(jobs), sweep_opts);
  std::size_t resumed = 0;
  for (const SweepResult& r : results) {
    if (!r.ok) {
      throw util::PreconditionError("sweep job '" + r.name + "' failed: " + r.error);
    }
    if (r.resumed) ++resumed;
  }
  if (resumed > 0) {
    std::fprintf(stderr, "[checkpoint] restored %zu of %zu sweep points from '%s'\n",
                 resumed, results.size(), options.checkpoint_dir.c_str());
  }

  std::printf("policy        : %s\n",
              std::string(core::policy_kind_name(cfg.policy)).c_str());
  if (!cfg.faults.empty()) {
    std::printf("faults        : %s\n", cfg.faults.to_string().c_str());
  }
  // Only printed off the default so lead-acid output stays byte-identical
  // to the pre-chemistry-backend simulator.
  if (cfg.bank.kind != battery::Chemistry::LeadAcid) {
    std::printf("chemistry     : %s\n",
                std::string(battery::chemistry_name(cfg.bank.kind)).c_str());
  }
  std::printf("sweep         : %zu sunshine points x %zu days (seed %llu%s)\n",
              fractions.size(), options.days,
              static_cast<unsigned long long>(options.seed),
              options.old_fleet ? ", old fleet" : "");
  std::printf("%10s %12s %12s %14s %12s\n", "sunshine", "lifetime", "mean life",
              "work (Mcs)", "min health");
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::printf("%10.2f %11.0fd %11.0fd %14.2f %12.4f\n", fractions[i],
                points[i].lifetime_days, points[i].lifetime_days_mean,
                points[i].throughput / 1e6, points[i].min_health_end);
  }

  if (!options.csv_path.empty()) {
    util::CsvWriter csv{options.csv_path,
                        {"sunshine_fraction", "policy", "days", "lifetime_days",
                         "lifetime_days_mean", "throughput", "mean_health_end",
                         "min_health_end"}};
    for (std::size_t i = 0; i < points.size(); ++i) {
      csv.write_row({util::CsvWriter::cell(fractions[i]),
                     std::string(core::policy_kind_name(cfg.policy)),
                     util::CsvWriter::cell(static_cast<double>(options.days)),
                     util::CsvWriter::cell(points[i].lifetime_days),
                     util::CsvWriter::cell(points[i].lifetime_days_mean),
                     util::CsvWriter::cell(points[i].throughput),
                     util::CsvWriter::cell(points[i].mean_health_end),
                     util::CsvWriter::cell(points[i].min_health_end)});
    }
    std::printf("per-point CSV : %s\n", options.csv_path.c_str());
  }
}

/// --metrics-out / --trace-out exports of the caller's obs sinks.
void write_obs_exports(const CliOptions& options) {
  if (!options.metrics_path.empty()) {
    std::ofstream out{options.metrics_path};
    if (!out) throw std::runtime_error("cannot open " + options.metrics_path);
    if (ends_with(options.metrics_path, ".csv")) {
      obs::global_registry().write_csv(out);
    } else {
      obs::global_registry().write_json(out);
    }
    std::printf("metrics       : %s\n", options.metrics_path.c_str());
  }
  if (!options.trace_path.empty()) {
    const obs::TraceBuffer& trace = obs::global_trace();
    std::ofstream out{options.trace_path};
    if (!out) throw std::runtime_error("cannot open " + options.trace_path);
    if (ends_with(options.trace_path, ".jsonl")) {
      trace.write_jsonl(out);
    } else {
      trace.write_chrome_trace(out);
    }
    std::printf("trace         : %s (%zu events, %zu dropped)\n",
                options.trace_path.c_str(), trace.size(), trace.dropped());
  }
}

/// Leave the process-global switches the way we found them (matters when
/// run_cli is driven from tests rather than main()).
int end_obs_session(int code) {
  obs::set_trace_enabled(false);
  obs::set_profiling_enabled(false);
  util::set_sim_time(-1.0);
  return code;
}

/// A single run: the datacenter engine, one shard unless --shards says
/// otherwise. Topology and demand lines print only off that default, so a
/// plain run and --shards 1 produce the same bytes.
int run_single(const CliOptions& options, const ScenarioConfig& cfg) {
  DatacenterConfig dcfg;
  dcfg.scenario = cfg;
  dcfg.shards = options.shards == 0 ? 1 : options.shards;
  dcfg.workers = options.shard_workers;
  dcfg.demand = options.demand;

  MultiDayOptions opts;
  opts.days = options.days;
  opts.sunshine_fraction = options.sunshine_fraction;
  opts.probe_every_days = 30;
  opts.checkpoint.every_days = options.checkpoint_every;
  opts.checkpoint.dir = options.checkpoint_dir;
  opts.checkpoint.resume_path = options.resume_path;
  opts.checkpoint.config_hash = mix_hash(datacenter_fingerprint(dcfg, opts),
                                         options.old_fleet ? 1 : 0);
  opts.series.path = options.series_path;
  opts.series.every = options.series_every;
  opts.blackbox = options.blackbox;
  opts.blackbox_dir = options.blackbox_dir;

  Datacenter dc{dcfg};
  if (options.old_fleet) {
    for (std::size_t s = 0; s < dc.shard_count(); ++s) {
      seed_aged_fleet(dc.shard(s), six_month_aged_state());
    }
  }

  MultiDayResult run;
  try {
    run = run_datacenter_multi_day(dc, opts);
  } catch (const obs::WatchdogError& e) {
    // The watchdog's what() is the full abort report: score, incident list,
    // day and node of every trip. The flight-recorder bundle (unless
    // --no-blackbox) was already written by the day loop.
    std::fprintf(stderr, "%s\n", e.what());
    return end_obs_session(3);
  }
  // The shards' metrics live in their private registries: fold them into
  // the caller's registry once, before anything reads it.
  dc.merge_metrics_into(obs::global_registry());

  if (!options.csv_path.empty()) {
    util::CsvWriter csv{options.csv_path,
                        {"day", "weather", "work", "worst_ah", "worst_low_soc_h",
                         "downtime_h", "migrations", "dvfs"}};
    for (std::size_t d = 0; d < run.days.size(); ++d) {
      const DayResult& r = run.days[d];
      csv.write_row({util::CsvWriter::cell(static_cast<double>(d)),
                     std::string(solar::day_type_name(r.day_type)),
                     util::CsvWriter::cell(r.throughput_work),
                     util::CsvWriter::cell(r.nodes[r.worst_node()].ah_discharged.value()),
                     util::CsvWriter::cell(r.worst_low_soc_time().value() / 3600.0),
                     util::CsvWriter::cell(r.total_downtime().value() / 3600.0),
                     util::CsvWriter::cell(static_cast<double>(r.migrations)),
                     util::CsvWriter::cell(static_cast<double>(r.dvfs_transitions))});
    }
  }

  std::printf("policy        : %s\n",
              std::string(core::policy_kind_name(cfg.policy)).c_str());
  if (!cfg.faults.empty()) {
    std::printf("faults        : %s\n", cfg.faults.to_string().c_str());
  }
  // Only printed off the default so lead-acid output stays byte-identical
  // to the pre-chemistry-backend simulator.
  if (cfg.bank.kind != battery::Chemistry::LeadAcid) {
    std::printf("chemistry     : %s\n",
                std::string(battery::chemistry_name(cfg.bank.kind)).c_str());
  }
  if (dc.shard_count() > 1) {
    std::printf("shards        : %zu x %zu nodes (%zu total)\n", dc.shard_count(),
                cfg.nodes, dc.node_count());
  }
  if (!dcfg.demand.empty()) {
    std::printf("demand        : %s\n", dcfg.demand.to_string().c_str());
  }
  std::printf("days          : %zu (sunshine %.2f, seed %llu%s)\n", options.days,
              options.sunshine_fraction,
              static_cast<unsigned long long>(options.seed),
              options.old_fleet ? ", old fleet" : "");
  std::printf("throughput    : %.2f M core-seconds\n", run.total_throughput / 1e6);
  std::printf("fleet health  : mean %.4f, min %.4f\n", run.mean_health_end,
              run.min_health_end);
  const core::LifetimeEstimate life = core::extrapolate_lifetime(
      1.0, run.min_health_end, static_cast<double>(options.days));
  if (life.beyond_horizon) {
    // The clamp value is a horizon, not a prediction — presenting it as a
    // day number ("end-of-life in 7300 days") misread as a forecast.
    std::printf("worst battery : no end-of-life within the %.0f-day projection horizon\n",
                life.days);
  } else {
    std::printf("worst battery : projected end-of-life in %.0f days\n", life.days);
  }
  for (const MonthlyProbe& p : run.monthly) {
    std::printf("probe month %d : Vfull %.2f V, capacity %.1f%%, round-trip %.1f%%\n",
                p.month, p.full_voltage, p.capacity_fraction * 100.0,
                p.round_trip_efficiency * 100.0);
  }
  if (!options.report_path.empty()) {
    // parse_cli only lets --report through at one shard.
    ReportInputs report;
    report.config = &cfg;
    report.result = &run;
    report.cluster = &dc.shard(0);
    report.sunshine_fraction = options.sunshine_fraction;
    report.registry = &obs::global_registry();
    report.trace = options.trace_path.empty() ? nullptr : &obs::global_trace();
    write_report(options.report_path, report);
    std::printf("report        : %s\n", options.report_path.c_str());
  }
  if (!options.csv_path.empty()) {
    std::printf("per-day CSV   : %s\n", options.csv_path.c_str());
  }
  if (!options.series_path.empty()) {
    std::printf("series        : %s\n", options.series_path.c_str());
  }
  write_obs_exports(options);
  return end_obs_session(0);
}

}  // namespace

int run_cli(const CliOptions& options) {
  if (options.show_help) {
    std::fputs(cli_usage().c_str(), stdout);
    return 0;
  }

  if (options.log_level) util::set_log_level(*options.log_level);

  // Observability session: fresh numbers per invocation. Profiling rides on
  // --metrics-out (wall-clock histograms are only useful when exported);
  // tracing rides on --trace-out.
  obs::global_registry().reset();
  obs::global_trace().set_capacity(options.trace_events);
  obs::set_trace_enabled(!options.trace_path.empty());
  obs::set_profiling_enabled(!options.metrics_path.empty());

  const ScenarioConfig cfg = scenario_from_cli(options);
  if (options.sweep_sunshine.empty()) return run_single(options, cfg);
  run_sunshine_sweep(options, cfg);
  write_obs_exports(options);
  return end_obs_session(0);
}

}  // namespace baat::sim
