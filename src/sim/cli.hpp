#pragma once

// Command-line front end for the simulator — the `baatsim` tool. The parser
// lives in the library so it is unit-testable; tools/baatsim.cpp is a thin
// main() around run_cli().

#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "util/logging.hpp"
#include "workload/demand.hpp"

namespace baat::sim {

struct CliOptions {
  core::PolicyKind policy = core::PolicyKind::Baat;
  std::size_t days = 30;
  double sunshine_fraction = 0.5;
  std::size_t nodes = 6;
  /// Server-to-battery capacity ratio in W/Ah; 0 keeps the prototype value.
  double watts_per_ah = 0.0;
  std::uint64_t seed = 42;
  /// Eq 7 planned cycles; 0 disables planned aging.
  double cycles_plan = 0.0;
  /// Optional CSV path for per-day results.
  std::string csv_path;
  /// Optional markdown report path.
  std::string report_path;
  bool old_fleet = false;
  bool show_help = false;
  /// Transcendental-math tier for the battery kernel. Exact (default) is
  /// bit-identical to the reference implementation; Fast swaps the aging
  /// Arrhenius/Peukert pow and exp for bounded-error polynomials.
  battery::MathMode math = battery::MathMode::Exact;
  /// Battery chemistry preset (--chemistry). The lead-acid default keeps
  /// every output byte-identical to the pre-chemistry-backend simulator.
  battery::Chemistry chemistry = battery::Chemistry::LeadAcid;
  /// Parsed --faults plan (repeatable flag; specs accumulate). Empty = clean
  /// run with byte-identical outputs to a build without the fault layer.
  fault::FaultPlan faults;

  // --- sharded datacenter -------------------------------------------------
  /// Shard count; 0 (flag absent) runs one shard, exactly like `--shards 1`:
  /// every single run is the datacenter engine, so the two share outputs
  /// and checkpoints byte-for-byte.
  std::size_t shards = 0;
  /// Worker threads stepping shards; 0 = default_sweep_jobs(). Never
  /// changes any output byte, only wall-clock time.
  std::size_t shard_workers = 0;
  /// Request-level demand model (--demand). Non-empty switches the daily
  /// workload from the fixed six-job plan to per-shard schedules derived
  /// from the model; implies datacenter mode (with one shard if --shards
  /// was not given).
  workload::DemandModel demand;

  // --- sweep mode ---------------------------------------------------------
  /// Sunshine fractions to sweep; non-empty switches run_cli into sweep
  /// mode (one multi-day simulation per fraction on the parallel engine).
  std::vector<double> sweep_sunshine;
  /// Worker threads for sweep mode; 0 = default_sweep_jobs(). The thread
  /// count never changes any output byte, only the wall-clock time.
  std::size_t jobs = 0;

  // --- checkpointing ------------------------------------------------------
  /// Write a resume snapshot every N completed days; 0 disables. Single-run
  /// mode only — sweeps checkpoint at point granularity instead.
  std::size_t checkpoint_every = 0;
  /// Directory for checkpoint files (single-run `checkpoint-day-<N>.snap`,
  /// sweep `point-<i>.ckpt`); empty keeps checkpointing off in sweep mode
  /// and means "." in single-run mode.
  std::string checkpoint_dir;
  /// Snapshot file to resume a single run from; empty = fresh run.
  std::string resume_path;

  // --- observability ------------------------------------------------------
  /// Metrics-registry JSON dump (`.csv` suffix switches to CSV). Also turns
  /// hot-path profiling on so the dump carries timer histograms.
  std::string metrics_path;
  /// Event-trace path: Chrome trace_event JSON by default, JSONL when the
  /// path ends in `.jsonl`. Enables tracing for the run.
  std::string trace_path;
  /// Trace ring capacity (events kept; older ones are dropped).
  std::size_t trace_events = obs::TraceBuffer::kDefaultCapacity;
  /// Logger threshold for the run, when given on the command line.
  std::optional<util::LogLevel> log_level;

  // --- run health / flight recorder ---------------------------------------
  /// Streamed per-day ledger/health time-series (off when empty; `.jsonl`
  /// suffix switches from columnar CSV to JSONL). In sweep mode each point
  /// writes its own `<stem>-point-<i>.<ext>` file.
  std::string series_path;
  /// Emit every Nth day of the series (downsampling for long horizons).
  long series_every = 1;
  /// Run-health watchdog; on by default, --no-health disables.
  bool health = true;
  /// Crash flight recorder; on by default, --no-blackbox disables.
  bool blackbox = true;
  /// Parent directory for `blackbox-<day>/` bundles (default '.').
  std::string blackbox_dir;
};

/// Parse argv. Throws util::PreconditionError with a readable message on a
/// bad flag or value.
CliOptions parse_cli(const std::vector<std::string>& args);

/// Human-readable usage text.
std::string cli_usage();

/// Build the scenario a CLI run describes.
ScenarioConfig scenario_from_cli(const CliOptions& options);

/// Run the simulation described by `options`, printing a summary (and the
/// per-day CSV when requested). Returns the process exit code.
int run_cli(const CliOptions& options);

}  // namespace baat::sim
