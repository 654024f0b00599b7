#include "sim/series.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "battery/chemistry_model.hpp"
#include "obs/metrics.hpp"

namespace baat::sim {

namespace {

/// Per-chemistry fade slot values in the axis order (slot mapping is fixed:
/// Li's calendar fade lives in the corrosion slot, its cycle fade in the
/// shedding slot — see battery/chemistry_model.hpp).
std::array<double, 5> mech_slots(const battery::MechanismFade& f) {
  return {f.corrosion, f.shedding, f.sulphation, f.stratification, f.water_loss};
}

/// For lead-acid this reproduces the historical header byte-for-byte
/// (corrosion, shedding, sulphation, stratification, water_loss); Li and
/// bucket chemistries emit only their active mechanism columns
/// (fade_calendar, fade_cycle / fade_throughput).
std::string csv_header(const battery::MechanismAxis& axis) {
  std::string h = "day,node,soc_end,soc_min,health";
  for (std::size_t i = 0; i < axis.count; ++i) {
    h += std::string(",fade_") + axis.names[i];
  }
  h += ",fade_total,cycle_damage,efc,low_soc_dwell_s,health_score,throughput_work\n";
  return h;
}

std::string csv_row(long day, const std::string& node, const NodeDayStats* n,
                    const battery::MechanismAxis& axis,
                    const battery::MechanismFade& fade, double cycle_damage, double efc,
                    double dwell, double health_score, double throughput) {
  using obs::format_number;
  std::string row = std::to_string(day) + "," + node + ",";
  row += (n != nullptr ? format_number(n->soc_end) : "") + ",";
  row += (n != nullptr ? format_number(n->soc_min) : "") + ",";
  row += (n != nullptr ? format_number(n->health) : "") + ",";
  const std::array<double, 5> slots = mech_slots(fade);
  for (std::size_t i = 0; i < axis.count; ++i) row += format_number(slots[i]) + ",";
  row += format_number(fade.total()) + ",";
  row += format_number(cycle_damage) + "," + format_number(efc) + "," +
         format_number(dwell) + "," + format_number(health_score) + "," +
         format_number(throughput) + "\n";
  return row;
}

std::string jsonl_row(long day, const std::string& node, const NodeDayStats* n,
                      const battery::MechanismAxis& axis,
                      const battery::MechanismFade& fade, double cycle_damage,
                      double efc, double dwell, double health_score,
                      double throughput) {
  using obs::format_number;
  std::string row = "{\"day\": " + std::to_string(day) + ", \"node\": " +
                    obs::json_quote(node);
  if (n != nullptr) {
    row += ", \"soc_end\": " + format_number(n->soc_end) +
           ", \"soc_min\": " + format_number(n->soc_min) +
           ", \"health\": " + format_number(n->health);
  }
  const std::array<double, 5> slots = mech_slots(fade);
  row += ", \"fade\": {";
  for (std::size_t i = 0; i < axis.count; ++i) {
    row += std::string("\"") + axis.names[i] + "\": " + format_number(slots[i]) + ", ";
  }
  row += "\"total\": " + format_number(fade.total()) + "}";
  row += ", \"cycle_damage\": " + format_number(cycle_damage) +
         ", \"efc\": " + format_number(efc) +
         ", \"low_soc_dwell_s\": " + format_number(dwell) +
         ", \"health_score\": " + format_number(health_score) +
         ", \"throughput_work\": " + format_number(throughput) + "}\n";
  return row;
}

}  // namespace

void SeriesWriter::configure(const SeriesOptions& options) {
  options_ = options;
  if (options_.every <= 0) options_.every = 1;
  const std::string& p = options_.path;
  jsonl_ = p.size() >= 6 && p.compare(p.size() - 6, 6, ".jsonl") == 0;
}

void SeriesWriter::ensure_open() {
  if (out_.is_open()) return;
  out_.open(options_.path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("cannot open series output file: " + options_.path);
  }
  out_ << emitted_;  // resume case: replay the checkpointed prefix
  out_.flush();
}

void SeriesWriter::append(const std::string& text) {
  emitted_ += text;
  out_ << text;
}

void SeriesWriter::write_day(long day, const std::vector<const Cluster*>& shards,
                             const DayResult& merged) {
  if (!active()) return;
  ensure_open();
  const battery::MechanismAxis axis =
      battery::mechanism_axis(shards.front()->config().bank.kind);
  if (!jsonl_ && !header_written_) {
    append(csv_header(axis));
    header_written_ = true;
  }

  std::size_t global = 0;
  for (const Cluster* shard : shards) {
    const double score = shard->watchdog().log().score();
    for (std::size_t i = 0; i < shard->node_count(); ++i, ++global) {
      const battery::CellLedgerEntry e = shard->node_ledger_delta(i);
      const NodeDayStats& n = merged.nodes[global];
      const std::string label = std::to_string(global);
      append(jsonl_ ? jsonl_row(day, label, &n, axis, e.fade, e.cycle_damage, e.efc,
                                e.low_soc_dwell_s, score, merged.throughput_work)
                    : csv_row(day, label, &n, axis, e.fade, e.cycle_damage, e.efc,
                              e.low_soc_dwell_s, score, merged.throughput_work));
    }
  }
  battery::LedgerRollup roll;
  double worst_score = shards.front()->watchdog().log().score();
  for (const Cluster* shard : shards) {
    roll += shard->ledger_rollup(false);
    worst_score = std::min(worst_score, shard->watchdog().log().score());
  }
  append(jsonl_ ? jsonl_row(day, "cluster", nullptr, axis, roll.fade, roll.cycle_damage,
                            roll.efc, roll.low_soc_dwell_s, worst_score,
                            merged.throughput_work)
                : csv_row(day, "cluster", nullptr, axis, roll.fade, roll.cycle_damage,
                          roll.efc, roll.low_soc_dwell_s, worst_score,
                          merged.throughput_work));
  out_.flush();
}

void SeriesWriter::save_state(snapshot::SnapshotWriter& w) const {
  w.write_bool(header_written_);
  w.write_string(emitted_);
}

void SeriesWriter::load_state(snapshot::SnapshotReader& r) {
  header_written_ = r.read_bool();
  emitted_ = r.read_string();
  if (active()) {
    // Truncate-and-replay: rows the interrupted run wrote past the
    // checkpoint day vanish, restoring exactly the checkpointed prefix.
    if (out_.is_open()) out_.close();
    ensure_open();
  }
}

}  // namespace baat::sim
