#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <set>

#include "obs/metrics.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::obs {

namespace {
bool g_trace_enabled = false;
}

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::DayStart: return "day_start";
    case EventKind::DayEnd: return "day_end";
    case EventKind::PolicySwitch: return "policy_switch";
    case EventKind::ChargePriority: return "charge_priority";
    case EventKind::DischargeFloor: return "discharge_floor";
    case EventKind::ProbeRun: return "probe_run";
    case EventKind::JobDeploy: return "job_deploy";
    case EventKind::JobQueued: return "job_queued";
    case EventKind::Migration: return "migration";
    case EventKind::Dvfs: return "dvfs";
    case EventKind::LowSocEnter: return "low_soc_enter";
    case EventKind::LowSocExit: return "low_soc_exit";
    case EventKind::UnmetDemand: return "unmet_demand";
    case EventKind::Brownout: return "brownout";
    case EventKind::NodeRestart: return "node_restart";
    case EventKind::BatteryEol: return "battery_eol";
    case EventKind::FaultInjected: return "fault_injected";
    case EventKind::PolicyFallback: return "policy_fallback";
    case EventKind::Health: return "health";
  }
  return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  BAAT_REQUIRE(capacity > 0, "trace capacity must be positive");
  ring_.reserve(std::min<std::size_t>(capacity, 1024));
}

void TraceBuffer::push(TraceEvent event) { next_slot() = std::move(event); }

TraceEvent& TraceBuffer::next_slot() {
  if (size_ < capacity_) {
    if (size_ < ring_.size()) return ring_[size_++];  // reuse a cleared slot
    ring_.emplace_back();
    ++size_;
    return ring_.back();
  }
  // Full: hand back the oldest slot for overwrite.
  TraceEvent& slot = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
  return slot;
}

void TraceBuffer::merge(const TraceBuffer& other) {
  for (TraceEvent& e : other.events()) push(std::move(e));
  dropped_ += other.dropped_;
}

void TraceBuffer::set_capacity(std::size_t capacity) {
  BAAT_REQUIRE(capacity > 0, "trace capacity must be positive");
  capacity_ = capacity;
  ring_.clear();
  ring_.shrink_to_fit();
  ring_.reserve(std::min<std::size_t>(capacity, 1024));
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void TraceBuffer::clear() {
  // Keep the ring's elements alive: next_slot() reuses them (and their
  // detail-string capacity), so a clear-per-day loop never re-allocates.
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> TraceBuffer::events() const {
  if (size_ < capacity_) {
    // Not yet wrapped: the first size_ slots, already in order (the ring may
    // hold more live-but-cleared slots beyond size_).
    return {ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(size_)};
  }
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(ring_[(head_ + i) % capacity_]);
  return out;
}

void TraceBuffer::save_state(snapshot::SnapshotWriter& w) const {
  w.write_u64(capacity_);
  w.write_u64(dropped_);
  const std::vector<TraceEvent> evs = events();
  w.write_u64(evs.size());
  for (const TraceEvent& e : evs) {
    w.write_f64(e.ts);
    w.write_i64(e.day);
    w.write_u8(static_cast<std::uint8_t>(e.kind));
    w.write_i64(e.node);
    w.write_f64(e.value);
    w.write_string(e.detail);
  }
}

void TraceBuffer::load_state(snapshot::SnapshotReader& r) {
  set_capacity(static_cast<std::size_t>(r.read_u64()));
  const std::size_t dropped = static_cast<std::size_t>(r.read_u64());
  const auto n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    TraceEvent& e = next_slot();
    e.ts = r.read_f64();
    e.day = static_cast<long>(r.read_i64());
    e.kind = static_cast<EventKind>(r.read_u8());
    e.node = static_cast<int>(r.read_i64());
    e.value = r.read_f64();
    e.detail = r.read_string();
  }
  // The replayed pushes above cannot evict (n <= saved capacity), so the
  // dropped counter carries over verbatim.
  dropped_ = dropped;
}

void TraceBuffer::write_jsonl(std::ostream& out) const {
  for (const TraceEvent& e : events()) {
    out << "{\"ts\": " << format_number(e.ts) << ", \"day\": " << e.day
        << ", \"kind\": " << json_quote(std::string(event_kind_name(e.kind)))
        << ", \"node\": " << e.node << ", \"value\": " << format_number(e.value)
        << ", \"detail\": " << json_quote(e.detail) << "}\n";
  }
}

void TraceBuffer::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceEvent> evs = events();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

  // Track metadata: tid 0 is the cluster, tid n+1 is battery node n.
  std::set<int> tids;
  for (const TraceEvent& e : evs) tids.insert(e.node + 1);
  bool first = true;
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
         "\"args\": {\"name\": \"baatsim\"}}";
  first = false;
  for (const int tid : tids) {
    const std::string label =
        tid == 0 ? std::string("cluster") : "node " + std::to_string(tid - 1);
    out << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " << tid
        << ", \"args\": {\"name\": " << json_quote(label) << "}}";
  }

  for (const TraceEvent& e : evs) {
    // Instant events on the node's track, simulated time in microseconds.
    out << (first ? "" : ",\n") << "{\"name\": "
        << json_quote(std::string(event_kind_name(e.kind)))
        << ", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": " << e.node + 1
        << ", \"ts\": " << format_number(e.ts * 1e6) << ", \"args\": {\"day\": " << e.day
        << ", \"value\": " << format_number(e.value)
        << ", \"detail\": " << json_quote(e.detail) << "}}";
    first = false;
  }
  out << "\n]}\n";
}

namespace {
thread_local TraceBuffer* t_trace = nullptr;
}  // namespace

TraceBuffer& global_trace() {
  if (t_trace != nullptr) return *t_trace;
  static TraceBuffer trace;
  return trace;
}

TraceBuffer* set_thread_trace(TraceBuffer* trace) {
  TraceBuffer* previous = t_trace;
  t_trace = trace;
  return previous;
}

bool trace_enabled() { return g_trace_enabled; }

void set_trace_enabled(bool enabled) { g_trace_enabled = enabled; }

void emit(EventKind kind, int node, double value, std::string_view detail) {
  if (!g_trace_enabled) return;
  // Fill a reused ring slot in place; assign() keeps the slot string's
  // existing capacity, so steady-state emission is allocation-free.
  TraceEvent& e = global_trace().next_slot();
  e.ts = std::max(0.0, util::sim_time());
  e.day = std::max(0L, util::sim_day());
  e.kind = kind;
  e.node = node;
  e.value = value;
  e.detail.assign(detail.begin(), detail.end());
}

}  // namespace baat::obs
