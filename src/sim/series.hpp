#pragma once

// Streamed per-day time-series export (DESIGN.md §5g): one row per node per
// emitted day — ledger deltas by mechanism, health/SoC gauges — plus a
// cluster rollup row, appended to a columnar CSV or JSONL file as the run
// progresses. Rows are flushed per day and never accumulated beyond the
// current day's text, so a 100k-cell multi-year run exports in O(1) memory.
//
// Resume bit-identity: the emitted text also accumulates in a bounded
// in-memory buffer (per-day cluster-level rows only — it grows with days,
// not cells×ticks) that rides through checkpoints. On resume the file is
// rewritten from the restored buffer and appending continues, so an
// interrupted-and-resumed run produces a byte-identical series file even
// when the interrupted process had written rows past the checkpoint day.

#include <fstream>
#include <string>

#include "sim/cluster.hpp"
#include "sim/results.hpp"
#include "snapshot/serialize.hpp"

namespace baat::sim {

struct SeriesOptions {
  std::string path;  ///< empty = series export off
  long every = 1;    ///< emit every Nth day (downsampling)
};

class SeriesWriter {
 public:
  SeriesWriter() = default;

  /// Set destination before the run. Format is chosen by extension:
  /// ".jsonl" streams JSON objects, anything else columnar CSV.
  void configure(const SeriesOptions& options);

  [[nodiscard]] bool active() const { return !options_.path.empty(); }
  /// True when `day` (0-based, just completed) is an emission day.
  [[nodiscard]] bool should_write(long day) const {
    return active() && options_.every > 0 && (day + 1) % options_.every == 0;
  }

  /// Append the rows of one completed day; the caller advances the ledgers
  /// afterwards so the next emission's deltas cover the next window.
  /// Per-node rows walk the shards in shard order with *global* node labels,
  /// each row scored by its owning shard's watchdog; the rollup row sums the
  /// shard ledgers and reports the worst (minimum) shard score. `merged` is
  /// the day's merged DayResult.
  void write_day(long day, const std::vector<const Cluster*>& shards,
                 const DayResult& merged);

  /// Checkpoint round-trip of the emitted text (not the path/cadence —
  /// those come from the CLI flags, which resume must repeat).
  void save_state(snapshot::SnapshotWriter& w) const;
  /// Restores the buffer and, when configured, rewrites the file from it so
  /// appending resumes exactly where the checkpointed run stood.
  void load_state(snapshot::SnapshotReader& r);

 private:
  void append(const std::string& text);
  void ensure_open();

  SeriesOptions options_;
  bool jsonl_ = false;
  bool header_written_ = false;
  std::ofstream out_;
  std::string emitted_;  ///< everything written so far (checkpoint payload)
};

}  // namespace baat::sim
