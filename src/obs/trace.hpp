#pragma once

// Structured event trace — a bounded ring of typed events emitted by the
// policies, the power router, the battery probes and the cluster loop.
// Events are stamped with *simulated* time (util/sim_clock.hpp), so the
// trace of a 180-day run is a deterministic artifact of the seed: two
// identically seeded runs export byte-identical traces.
//
// Two export formats:
//  * JSONL — one event object per line, easy to grep/jq;
//  * Chrome trace_event JSON — opens directly in chrome://tracing or
//    Perfetto, with one track ("thread") per battery node.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/serialize.hpp"

namespace baat::obs {

enum class EventKind {
  DayStart,
  DayEnd,
  PolicySwitch,
  ChargePriority,   ///< router charge order changed by the policy
  DischargeFloor,   ///< planned-aging floor (Eq 7) installed or moved
  ProbeRun,         ///< offline monthly battery probe (Figs 3-5)
  JobDeploy,
  JobQueued,        ///< job could not be placed, entered the retry queue
  Migration,
  Dvfs,
  LowSocEnter,      ///< node battery dropped below the 40% knee
  LowSocExit,
  UnmetDemand,      ///< router could not cover a node's load this tick
  Brownout,
  NodeRestart,
  BatteryEol,
  FaultInjected,    ///< a fault-plan entry fired (src/fault)
  PolicyFallback,   ///< controller rejected telemetry, used degraded estimate
  Health,           ///< run-health watchdog incident (obs/health.hpp)
};

/// Stable snake_case name used in both export formats.
std::string_view event_kind_name(EventKind kind);

struct TraceEvent {
  double ts = 0.0;          ///< simulated seconds since run start
  long day = 0;             ///< simulated day index
  EventKind kind{};
  int node = -1;            ///< battery/server node, -1 = cluster-wide
  double value = 0.0;       ///< kind-specific payload (SoC, watts, ...)
  std::string detail;       ///< kind-specific free text
};

/// Fixed-capacity ring: pushing past capacity evicts the oldest event and
/// counts it as dropped, so a multi-month run keeps the most recent window.
class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  void push(TraceEvent event);
  /// The slot the next event should be written into (allocation-free fast
  /// path used by emit()): a cleared or evicted slot is handed back with its
  /// detail-string capacity intact, so a steady-state tick loop emits events
  /// without touching the heap. The caller must overwrite every field.
  [[nodiscard]] TraceEvent& next_slot();
  /// Append every event of `other` (oldest first), honouring this ring's
  /// capacity, and carry over the events `other` already dropped — so
  /// draining a shard ring each day reports the same retained window and
  /// dropped count as emitting into this ring directly.
  void merge(const TraceBuffer& other);
  /// Re-size the ring; releases contents and the dropped counter.
  void set_capacity(std::size_t capacity);
  /// Empty the ring. Slots (and their string capacity) are kept alive for
  /// reuse by next_slot(), so clearing between days stays allocation-free.
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events evicted because the ring was full.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Events oldest → newest.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  void write_jsonl(std::ostream& out) const;
  void write_chrome_trace(std::ostream& out) const;

  /// Checkpoint support: round-trips capacity, the retained window (oldest
  /// first) and the dropped counter, so a resumed run exports the same
  /// trace bytes as one that never paused.
  void save_state(snapshot::SnapshotWriter& w) const;
  void load_state(snapshot::SnapshotReader& r);

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< next write slot once the ring is full
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
};

/// The trace the instrumented layers feed: the thread's override when one
/// is installed (a sweep job's private buffer), otherwise the process-wide
/// trace.
TraceBuffer& global_trace();

/// Install a thread-local trace override (nullptr restores the process-wide
/// default); returns the previous override so scopes can nest. Paired with
/// obs::set_thread_registry by the sweep engine.
TraceBuffer* set_thread_trace(TraceBuffer* trace);

/// Tracing master switch; `emit` below is a no-op while disabled (default).
/// The flag is written only from single-threaded phases (CLI setup, test
/// setup, between sweeps); worker threads only read it.
bool trace_enabled();
void set_trace_enabled(bool enabled);

/// Emit into the global trace, stamped from the simulated clock. No-op when
/// tracing is disabled, so call sites can stay unconditional. The detail
/// text is copied into a reused ring slot — no per-event allocation once
/// the ring's slots have grown to the working detail lengths.
void emit(EventKind kind, int node = -1, double value = 0.0, std::string_view detail = {});

}  // namespace baat::obs
