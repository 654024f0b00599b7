// baatbench — the driver of the repository benchmark (perfbench/README.md).
//
// One invocation runs one *operation* of one named workload through the
// simulator's public entry points — the ones `baatsim` drives: the
// Datacenter constructor, run_datacenter_multi_day, run_multi_day and the
// sweep engine — and prints one JSON object describing it as the last line
// of stdout. perfbench/run.py launches one process per operation, so a
// crash fails exactly one operation and peak RSS is per operation.
//
//   baatbench --workload <name> --seed <n> --out <dir> [--trace] [--tiny]
//             [--workers <n>] [--inject-crash]
//   baatbench --host
//
// An operation runs the workload uninterrupted (timed day by day through the
// engine's tick observer: node-days/s), lets the engine commit checkpoints
// on its own cadence (timed from outside with inotify: the engine writes
// `<path>.tmp` and renames it over `<path>`), resumes from a midway
// checkpoint and asserts that the resumed run reproduces the uninterrupted
// output bytes. It reports a digest of the
// simulated outputs (per-day CSV, series, summary) for run.py to check
// against the committed reference.
//
// --trace turns on the simulator's trace ring and its profile.* timers (the
// ones --metrics-out enables), and after the user-path run adds a short
// layer probe: engine days stepped by the driver itself (run_day cost,
// shard efficiency, allocations) and a replay of a recorded battery-current
// trace through FleetState::step_all. The driver's spans and the profile
// histograms are written as Chrome trace_event JSON. End-to-end numbers are
// only meaningful from untraced operations.

#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "battery/bank.hpp"
#include "core/lifetime.hpp"
#include "obs/obs.hpp"
#include "sim/cli.hpp"
#include "sim/datacenter.hpp"
#include "sim/experiment.hpp"
#include "sim/multiday.hpp"
#include "sim/report.hpp"
#include "sim/sweep.hpp"
#include "snapshot/snapshot.hpp"
#include "solar/location.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

// --- allocation counter ------------------------------------------------------
// Counts every operator new in the process. Relaxed atomic: shard workers
// allocate concurrently, and only the total over a span of days is read.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// All out of line: GCC warns when it sees an inlined malloc() or free() meet
// the other half of the pair as operator new or delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace baat;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr double kTicksPerDay = 1440.0;  // 86400 s / the scenario's 60 s dt

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the middle half of `v`: a burst in a few samples stays out, and
/// samples that fall into two modes average instead of flipping a median.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// FNV-1a, continued from `h` over `bytes`.
std::uint64_t digest_bytes(std::uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// --- spans -------------------------------------------------------------------

const Clock::time_point g_start = Clock::now();

struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
};

class SpanLog {
 public:
  void add(std::string name, Clock::time_point t0, Clock::time_point t1, int tid) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), seconds_between(g_start, t0) * 1e6,
                          seconds_between(t0, t1) * 1e6, tid});
  }
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

/// Run fn() as a named span on thread track `tid`; returns its wall seconds.
template <typename Fn>
double timed(const std::string& name, Fn&& fn, int tid = 0) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  g_spans.add(name, t0, t1, tid);
  return seconds_between(t0, t1);
}

// --- checkpoint commit watcher ------------------------------------------------

/// Times the simulator's own checkpoint commits from outside. Both snapshot
/// containers stream into `<path>.tmp` and rename it over `<path>`, so the
/// interval from the tmp file's creation to the rename is one commit. The
/// watcher thread sleeps in poll() between events and costs the run no CPU;
/// a commit shorter than the thread's wake-up would read too long, so only
/// multi-millisecond commits are measured this way.
class CommitWatcher {
 public:
  explicit CommitWatcher(const std::string& dir) {
    fd_ = inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
    if (fd_ < 0) throw std::runtime_error("inotify_init1: " + std::string(std::strerror(errno)));
    if (inotify_add_watch(fd_, dir.c_str(), IN_CREATE | IN_MOVED_TO) < 0 ||
        pipe(stop_) != 0) {
      const std::string why = std::strerror(errno);
      close(fd_);
      throw std::runtime_error("cannot watch " + dir + ": " + why);
    }
    thread_ = std::thread([this] { loop(); });
  }
  ~CommitWatcher() {
    stop();
    close(fd_);
    close(stop_[0]);
    close(stop_[1]);
  }
  CommitWatcher(const CommitWatcher&) = delete;
  CommitWatcher& operator=(const CommitWatcher&) = delete;

  /// Stop watching; returns every commit seen, in seconds, in order.
  std::vector<double> stop() {
    if (thread_.joinable()) {
      const char c = 0;
      if (write(stop_[1], &c, 1) != 1) std::perror("baatbench: watcher stop");
      thread_.join();
    }
    return commits_;
  }

 private:
  void loop() {
    std::map<std::string, Clock::time_point> open;
    alignas(inotify_event) char buf[8192];
    pollfd fds[2] = {{fd_, POLLIN, 0}, {stop_[0], POLLIN, 0}};
    const std::string suffix = ".tmp";
    for (;;) {
      if (poll(fds, 2, -1) < 0) {
        if (errno == EINTR) continue;
        return;
      }
      const Clock::time_point now = Clock::now();
      // Drain inotify before honouring stop: the rename that ends the last
      // commit is queued before the stop byte is written.
      for (;;) {
        const ssize_t n = read(fd_, buf, sizeof buf);
        if (n <= 0) break;
        for (ssize_t off = 0; off < n;) {
          inotify_event ev;
          std::memcpy(&ev, buf + off, sizeof ev);
          const std::string name =
              ev.len > 0 ? std::string(buf + off + sizeof(inotify_event)) : std::string();
          off += static_cast<ssize_t>(sizeof(inotify_event) + ev.len);
          if ((ev.mask & IN_CREATE) != 0 && name.size() > suffix.size() &&
              name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
            open[name.substr(0, name.size() - suffix.size())] = now;
          } else if ((ev.mask & IN_MOVED_TO) != 0) {
            const auto it = open.find(name);
            if (it != open.end()) {
              commits_.push_back(seconds_between(it->second, now));
              open.erase(it);
            }
          }
        }
      }
      if ((fds[1].revents & POLLIN) != 0) return;
    }
  }

  int fd_ = -1;
  int stop_[2] = {-1, -1};
  std::vector<double> commits_;
  std::thread thread_;  // last: starts after every member it reads exists
};

// --- registry readouts -------------------------------------------------------

double counter(const obs::Registry& reg, const std::string& name) {
  const obs::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0.0 : c->value();
}

/// Sum of a labelled counter family, e.g. every `fault.injected{...}`.
double counter_family(const obs::Registry& reg, const std::string& name) {
  double total = 0.0;
  const std::string prefix = name + "{";
  for (const auto& [key, c] : reg.counters()) {
    if (key.rfind(prefix, 0) == 0) total += c.value();
  }
  return total;
}

double profile_sum_ns(const obs::Registry& reg, const std::string& site) {
  const obs::Histogram* h = reg.find_histogram("profile." + site + "_ns");
  return h == nullptr ? 0.0 : h->sum();
}

/// Deterministic work counts of one run; run.py asserts they repeat exactly.
std::map<std::string, double> work_counts(const obs::Registry& reg,
                                          const obs::TraceBuffer& trace) {
  return {
      {"core.control_ticks", counter(reg, "policy.control_ticks")},
      {"core.decisions.dvfs", counter(reg, "policy.decisions{dvfs}")},
      {"core.decisions.migration", counter(reg, "policy.decisions{migration}")},
      {"core.decisions.charge_priority", counter(reg, "policy.decisions{charge_priority}")},
      {"power.route_calls", counter(reg, "router.ticks")},
      {"obs.trace_events", static_cast<double>(trace.size() + trace.dropped())},
      {"fault.injections", counter_family(reg, "fault.injected")},
      {"core.guard_fallbacks", counter_family(reg, "policy.fallback")},
      {"sim.jobs_deployed", counter(reg, "sim.jobs_deployed")},
      {"sim.vm_deploy_retries", counter(reg, "sim.vm_deploy_retries")},
  };
}

// --- the operation record ----------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string out;
  bool trace = false;
  bool tiny = false;
  std::size_t workers = 0;
  bool inject_crash = false;
  bool host = false;
};

struct OpReport {
  std::size_t attempted = 1;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  bool resume_identical = true;
  std::string resume_mismatch;
  std::size_t nodes = 0;
  double node_days = 0.0;
  /// Wall time of the uninterrupted run; node-days/s divides by it minus the
  /// checkpoint commits the watcher saw inside it (checkpoint_s reports those).
  double run_s = 0.0;
  double commit_s = 0.0;
  /// The uninterrupted run day by day (DayClock::day_seconds), per lane: one
  /// lane for a single engine, one per point for a sweep whose points run
  /// side by side.
  std::vector<std::vector<double>> lane_day_s;
  std::vector<double> setup_s;
  std::vector<double> checkpoint_s;
  std::vector<double> resume_s;
  double checkpoint_bytes = 0.0;
  /// Bytes one resume reads (the sweep restores every point's file).
  double resume_bytes = 0.0;
  std::map<std::string, double> counts;
  std::map<std::string, double> layers;
  /// profile.* histograms of the traced run: name -> (count, sum ns).
  std::map<std::string, std::pair<double, double>> profile;
};

void digest_outputs(OpReport& rep, const std::vector<std::string>& outputs) {
  for (const std::string& bytes : outputs) rep.digest = digest_bytes(rep.digest, bytes);
}

void expect_identical(OpReport& rep, const char* what, const std::string& a,
                      const std::string& b) {
  if (a != b && rep.resume_identical) {
    rep.resume_identical = false;
    rep.resume_mismatch = std::string("resumed ") + what + " differs from the uninterrupted run";
  }
}

void keep_profile(OpReport& rep, const obs::Registry& reg) {
  for (const auto& [name, h] : reg.histograms()) {
    if (name.rfind("profile.", 0) == 0) {
      rep.profile[name] = {static_cast<double>(h.count()), h.sum()};
    }
  }
}

/// Layer split of the traced user-path run from the profile.* timers: the
/// router (which drives the battery step) and the rest of Cluster::run_day.
void route_split(OpReport& rep, const obs::Registry& reg) {
  const double node_ticks = rep.node_days * kTicksPerDay;
  const double route = profile_sum_ns(reg, "router_route");
  const double day = profile_sum_ns(reg, "cluster_run_day");
  rep.layers["power.route_ns_per_node_tick"] = route / node_ticks;
  rep.layers["sim.other_ns_per_node_tick"] = (day - route) / node_ticks;
  rep.layers["sim.cluster_run_day_ns_per_node_tick"] = day / node_ticks;
  const double deployed = counter(reg, "sim.jobs_deployed");
  const double retries = counter(reg, "sim.vm_deploy_retries");
  rep.layers["sim.deploy_success_ratio"] =
      deployed + retries > 0.0 ? deployed / (deployed + retries) : 1.0;
  keep_profile(rep, reg);
}

void snapshot_layers(OpReport& rep) {
  rep.layers["snapshot.bytes_per_node"] = rep.checkpoint_bytes / static_cast<double>(rep.nodes);
  rep.layers["snapshot.write_mb_per_s"] =
      rep.checkpoint_bytes / 1e6 / interquartile_mean(rep.checkpoint_s);
  rep.layers["snapshot.read_mb_per_s"] =
      rep.resume_bytes / 1e6 / interquartile_mean(rep.resume_s);
}

// --- simulated outputs -------------------------------------------------------

/// The per-day CSV baatsim writes for a single run (--csv).
std::string day_csv(const sim::MultiDayResult& run, const std::string& path) {
  {
    util::CsvWriter csv{path,
                        {"day", "weather", "work", "worst_ah", "worst_low_soc_h",
                         "downtime_h", "migrations", "dvfs"}};
    for (std::size_t d = 0; d < run.days.size(); ++d) {
      const sim::DayResult& r = run.days[d];
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
  return read_file(path);
}

/// The summary baatsim prints for a single run.
std::string run_summary(const sim::ScenarioConfig& cfg, const sim::MultiDayResult& run,
                        std::size_t days, double sunshine, const std::string& topology) {
  std::string s;
  appendf(s, "policy        : %s\n", std::string(core::policy_kind_name(cfg.policy)).c_str());
  s += topology;
  appendf(s, "days          : %zu (sunshine %.2f, seed %llu)\n", days, sunshine,
          static_cast<unsigned long long>(cfg.seed));
  appendf(s, "throughput    : %.2f M core-seconds\n", run.total_throughput / 1e6);
  appendf(s, "fleet health  : mean %.4f, min %.4f\n", run.mean_health_end, run.min_health_end);
  const core::LifetimeEstimate life =
      core::extrapolate_lifetime(1.0, run.min_health_end, static_cast<double>(days));
  if (life.beyond_horizon) {
    appendf(s, "worst battery : no end-of-life within the %.0f-day projection horizon\n",
            life.days);
  } else {
    appendf(s, "worst battery : projected end-of-life in %.0f days\n", life.days);
  }
  for (const sim::MonthlyProbe& p : run.monthly) {
    appendf(s, "probe month %d : Vfull %.2f V, capacity %.1f%%, round-trip %.1f%%\n", p.month,
            p.full_voltage, p.capacity_fraction * 100.0, p.round_trip_efficiency * 100.0);
  }
  return s;
}

// --- layer probe (traced operations only) --------------------------------------

solar::DayType probe_weather(std::size_t d) {
  static constexpr solar::DayType kCycle[] = {solar::DayType::Sunny, solar::DayType::Cloudy,
                                              solar::DayType::Rainy};
  return kCycle[d % 3];
}

/// Wall-clock stamp of every simulated day's first tick, taken through a
/// cluster's tick observer (one std::function call per tick). On a
/// datacenter it watches shard 0: a day starts only after every shard has
/// finished and merged the day before.
struct DayClock {
  std::vector<Clock::time_point> starts;
  void operator()(const sim::TickObservation& o) {
    if (o.time_of_day.value() == 0.0) starts.push_back(Clock::now());
  }
  /// Wall time of every day of a run that spanned [begin, end]: day d ends
  /// where day d+1 starts, loop work between days included, so the days sum
  /// to end - begin. run.py takes each day's median over a run's operations,
  /// which keeps a burst of host noise in one operation out of the result.
  [[nodiscard]] std::vector<double> day_seconds(Clock::time_point begin,
                                                Clock::time_point end) const {
    std::vector<double> days;
    Clock::time_point from = begin;
    for (std::size_t i = 1; i < starts.size(); ++i) {
      days.push_back(seconds_between(from, starts[i]));
      from = starts[i];
    }
    days.push_back(seconds_between(from, end));
    return days;
  }
};

/// `days` of weather at sunshine fraction `sunshine`: how many days are
/// Sunny, Cloudy and Rainy comes from one fixed draw of the site model, the
/// order from `seed`. Every seed thus simulates the same weather mix, so
/// seeds vary the inputs but not the amount of work.
std::vector<solar::DayType> seeded_weather(std::size_t days, double sunshine,
                                           std::uint64_t seed) {
  util::Rng mix = util::Rng::stream(0, "perfbench-weather-mix");
  std::vector<solar::DayType> w = solar::Location{sunshine}.sample_days(days, mix);
  util::Rng order = util::Rng::stream(seed, "perfbench-weather-order");
  for (std::size_t i = w.size(); i > 1; --i) std::swap(w[i - 1], w[order.uniform_index(i)]);
  return w;
}

/// Records every node's battery current, tick by tick, while installed as a
/// cluster's tick observer.
struct CurrentRecorder {
  std::size_t nodes = 0;
  std::vector<double> amps;
  void operator()(const sim::TickObservation& o) {
    for (std::size_t i = 0; i < nodes; ++i) {
      amps.push_back(o.route != nullptr && i < o.route->nodes.size()
                         ? o.route->nodes[i].battery_current.value()
                         : 0.0);
    }
  }
};

/// Replays a recorded current trace through FleetState::step_all on a fresh
/// fleet built from the workload's own bank spec; ns per cell-tick. Profiling
/// is off for the replay: the scalar kernel's per-cell timer would otherwise
/// be measured instead of the kernel.
double kernel_ns_per_cell_tick(const battery::BankSpec& spec, const CurrentRecorder& rec,
                               util::Seconds dt, std::uint64_t seed) {
  const std::size_t ticks = rec.amps.size() / rec.nodes;
  if (ticks == 0) throw std::runtime_error("layer probe recorded no battery currents");
  battery::BankSpec bank = spec;
  bank.units = rec.nodes;
  util::Rng rng = util::Rng::stream(seed, "perfbench-fleet");
  const std::unique_ptr<battery::FleetState> fleet = battery::make_fleet(bank, rng);
  std::vector<util::Amperes> requested;
  requested.reserve(rec.amps.size());
  for (double a : rec.amps) requested.emplace_back(a);
  std::vector<battery::StepResult> results(rec.nodes);

  const bool profiling = obs::profiling_enabled();
  obs::set_profiling_enabled(false);
  double cell_ticks = 0.0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  while (seconds_between(t0, t1) < 0.25) {
    for (std::size_t t = 0; t < ticks; ++t) {
      fleet->step_all(std::span<const util::Amperes>(requested.data() + t * rec.nodes, rec.nodes),
                      dt, results);
    }
    cell_ticks += static_cast<double>(ticks * rec.nodes);
    t1 = Clock::now();
  }
  obs::set_profiling_enabled(profiling);
  g_spans.add("FleetState::step_all replay", t0, t1, 0);
  return seconds_between(t0, t1) * 1e9 / cell_ticks;
}

/// Engine days stepped by the driver itself: `step(d)` runs day d and
/// `run_day_ns_sum()` reads Σ profile.cluster_run_day over every shard.
/// Returns the mean wall nanoseconds of one engine day.
double probe_days(OpReport& rep, std::size_t days, std::size_t workers,
                  const std::function<void(std::size_t)>& step,
                  const std::function<double()>& run_day_ns_sum, const char* span) {
  const double crd0 = run_day_ns_sum();
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  double wall_s = 0.0;
  for (std::size_t d = 0; d < days; ++d) wall_s += timed(span, [&] { step(d); });
  const double allocs =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0);
  const double crd = run_day_ns_sum() - crd0;
  const double node_ticks = static_cast<double>(rep.nodes * days) * kTicksPerDay;
  rep.layers["sim.run_day_ns_per_node_tick"] = wall_s * 1e9 / node_ticks;
  rep.layers["sim.allocs_per_node_tick"] = allocs / node_ticks;
  rep.layers["sim.shard_efficiency"] = crd / (static_cast<double>(workers) * wall_s * 1e9);
  return wall_s * 1e9 / static_cast<double>(days);
}

/// The layer probe for a single-cluster workload: `days` engine days on
/// `cluster` (recording day 0's battery currents), then the kernel replay.
double probe_cluster(OpReport& rep, sim::Cluster& cluster, std::size_t days,
                     std::uint64_t seed) {
  CurrentRecorder rec{cluster.node_count(), {}};
  cluster.set_tick_observer(std::ref(rec));
  const double day_ns = probe_days(
      rep, days, 1,
      [&](std::size_t d) {
        (void)cluster.run_day(probe_weather(d));
        cluster.set_tick_observer({});
      },
      [] { return profile_sum_ns(obs::global_registry(), "cluster_run_day"); },
      "Cluster::run_day");
  rep.layers["battery.step_ns_per_cell_tick"] =
      kernel_ns_per_cell_tick(cluster.config().bank, rec, cluster.config().dt, seed);
  return day_ns;
}

// --- workload: dc_diurnal ----------------------------------------------------

OpReport run_dc_diurnal(const Args& a) {
  const std::size_t shards = a.tiny ? 2 : 8;
  const std::size_t nodes = a.tiny ? 8 : 500;
  const std::size_t days = a.tiny ? 3 : 4;
  const std::size_t ckpt_day = 2;
  const std::size_t workers = a.workers > 0 ? a.workers : 4;
  const std::string demand =
      "users=" + std::to_string(shards * nodes * 1000) +
      ",requests=150,peak=14,amplitude=0.6,spread=8,flash:day=1:mult=4:hour=12:hours=2";
  const sim::CliOptions cli = sim::parse_cli(
      {"--shards", std::to_string(shards), "--nodes", std::to_string(nodes),
       "--shard-workers", std::to_string(workers), "--policy", "baat", "--math", "simd",
       "--demand", demand, "--days", std::to_string(days), "--seed", std::to_string(a.seed)});
  sim::DatacenterConfig dcfg;
  dcfg.scenario = sim::scenario_from_cli(cli);
  dcfg.shards = cli.shards;
  dcfg.workers = cli.shard_workers;
  dcfg.demand = cli.demand;

  // Mixed weather with a seed-rotated day order: every seed sees the same
  // Sunny/Cloudy/Rainy mix, so seeds vary the inputs, not the work.
  sim::MultiDayOptions opts;
  opts.days = days;
  opts.weather = sim::mixed_weather(days, 1, 1, 1);
  std::rotate(opts.weather.begin(), opts.weather.begin() + static_cast<long>(a.seed % 3),
              opts.weather.end());
  opts.probe_every_days = 30;
  opts.checkpoint.every_days = ckpt_day;
  opts.checkpoint.dir = a.out + "/ckpt";
  opts.checkpoint.config_hash = sim::datacenter_fingerprint(dcfg, opts);
  opts.series.path = a.out + "/a.series.csv";
  opts.blackbox_dir = a.out;
  fs::create_directories(opts.checkpoint.dir);
  const std::string ckpt =
      opts.checkpoint.dir + "/checkpoint-day-" + std::to_string(ckpt_day) + ".snap";

  OpReport rep;
  rep.nodes = shards * nodes;
  rep.node_days = static_cast<double>(rep.nodes * days);
  const auto make_dc = [&] {
    std::unique_ptr<sim::Datacenter> dc;
    rep.setup_s.push_back(
        timed("Datacenter::Datacenter", [&] { dc = std::make_unique<sim::Datacenter>(dcfg); }));
    return dc;
  };

  // Construction takes milliseconds against seconds of simulation: build a
  // few spare datacenters so set-up time is a median, not one sample.
  for (int i = 0; i < 5; ++i) make_dc().reset();
  std::unique_ptr<sim::Datacenter> dc = make_dc();
  sim::MultiDayResult run;
  {
    CommitWatcher watcher{opts.checkpoint.dir};
    DayClock clock;
    dc->shard(0).set_tick_observer(std::ref(clock));
    const Clock::time_point t0 = Clock::now();
    run = sim::run_datacenter_multi_day(*dc, opts);
    const Clock::time_point t1 = Clock::now();
    dc->shard(0).set_tick_observer({});
    g_spans.add("run_datacenter_multi_day", t0, t1, 0);
    rep.run_s = seconds_between(t0, t1);
    rep.lane_day_s = {clock.day_seconds(t0, t1)};
    rep.checkpoint_s = watcher.stop();
    for (double c : rep.checkpoint_s) rep.commit_s += c;
  }
  std::string topology;
  appendf(topology, "shards        : %zu x %zu nodes (%zu total)\n", shards, nodes, rep.nodes);
  appendf(topology, "demand        : %s\n", dcfg.demand.to_string().c_str());
  const std::string csv_a = day_csv(run, a.out + "/a.csv");
  const std::string series_a = read_file(opts.series.path);
  const std::string summary_a = run_summary(dcfg.scenario, run, days, 0.5, topology);
  digest_outputs(rep, {csv_a, series_a, summary_a});

  obs::Registry merged;
  merged.merge(obs::global_registry());
  dc->merge_metrics_into(merged);
  rep.counts = work_counts(merged, obs::global_trace());
  const double run_multi_day_ns = profile_sum_ns(obs::global_registry(), "run_multi_day");
  if (a.trace) route_split(rep, merged);
  rep.checkpoint_bytes = static_cast<double>(fs::file_size(ckpt));
  rep.resume_bytes = rep.checkpoint_bytes;
  // One datacenter resident at a time; hand its pages back so peak RSS is
  // one datacenter's, not the sum of two.
  dc.reset();
  malloc_trim(0);

  // Resume into a fresh datacenter and continue to the end, comparing every
  // output byte. resume_s runs until the first resumed tick.
  dc = make_dc();
  sim::MultiDayOptions resume = opts;
  resume.checkpoint.every_days = 0;
  resume.checkpoint.resume_path = ckpt;
  resume.series.path = a.out + "/b.series.csv";
  DayClock resumed_clock;
  dc->shard(0).set_tick_observer(std::ref(resumed_clock));
  const Clock::time_point r0 = Clock::now();
  const sim::MultiDayResult resumed = sim::run_datacenter_multi_day(*dc, resume);
  dc->shard(0).set_tick_observer({});
  const Clock::time_point r1 = resumed_clock.starts.at(0);
  g_spans.add("resume (until the first resumed tick)", r0, r1, 0);
  rep.resume_s.push_back(seconds_between(r0, r1));
  expect_identical(rep, "per-day CSV", csv_a, day_csv(resumed, a.out + "/b.csv"));
  expect_identical(rep, "series", series_a, read_file(resume.series.path));
  expect_identical(rep, "summary", summary_a,
                   run_summary(dcfg.scenario, resumed, days, 0.5, topology));
  fs::remove_all(opts.checkpoint.dir);

  if (a.trace) {
    CurrentRecorder rec{nodes, {}};
    dc->shard(0).set_tick_observer(std::ref(rec));
    const double day_ns = probe_days(
        rep, 2, std::min(workers, shards),
        [&](std::size_t d) {
          (void)dc->run_day(probe_weather(d));
          dc->shard(0).set_tick_observer({});
        },
        [&] {
          obs::Registry r;
          dc->merge_metrics_into(r);
          return profile_sum_ns(r, "cluster_run_day");
        },
        "Datacenter::run_day");
    rep.layers["battery.step_ns_per_cell_tick"] =
        kernel_ns_per_cell_tick(dcfg.scenario.bank, rec, dcfg.scenario.dt, a.seed);
    rep.layers["sim.loop_ns_per_day"] =
        (run_multi_day_ns - rep.commit_s * 1e9 - static_cast<double>(days) * day_ns) /
        static_cast<double>(days);
    rep.layers["sim.sweep_efficiency"] = 1.0;
    snapshot_layers(rep);
  }
  return rep;
}

// --- workload: proto_lifetime ------------------------------------------------

OpReport run_proto_lifetime(const Args& a) {
  const std::size_t days = a.tiny ? 120 : 730;
  const std::size_t every = 30;
  const std::size_t resume_day = days / 2 / every * every;
  const sim::CliOptions cli = sim::parse_cli(
      {"--days", std::to_string(days), "--nodes", "6", "--policy", "baat", "--math", "exact",
       "--sunshine", "0.5", "--seed", std::to_string(a.seed), "--checkpoint-every",
       std::to_string(every)});
  const sim::ScenarioConfig cfg = sim::scenario_from_cli(cli);

  sim::MultiDayOptions opts;
  opts.days = days;
  opts.sunshine_fraction = cli.sunshine_fraction;
  opts.weather = seeded_weather(days, cli.sunshine_fraction, a.seed);
  opts.probe_every_days = 30;
  opts.checkpoint.every_days = every;
  opts.checkpoint.dir = a.out + "/ckpt";
  opts.checkpoint.config_hash = sim::scenario_fingerprint(cfg, opts);
  opts.series.path = a.out + "/a.series.csv";
  opts.blackbox_dir = a.out;
  fs::create_directories(opts.checkpoint.dir);
  const std::string ckpt =
      opts.checkpoint.dir + "/checkpoint-day-" + std::to_string(resume_day) + ".snap";

  OpReport rep;
  rep.nodes = cfg.nodes;
  rep.node_days = static_cast<double>(cfg.nodes * days);
  // A six-node cluster builds in microseconds: build it repeatedly so the
  // reported set-up time is a median, not one scheduler-sized sample.
  std::unique_ptr<sim::Cluster> cluster;
  for (int i = 0; i < 100; ++i) {
    rep.setup_s.push_back(
        timed("Cluster::Cluster", [&] { cluster = std::make_unique<sim::Cluster>(cfg); }));
  }

  sim::MultiDayResult run;
  {
    CommitWatcher watcher{opts.checkpoint.dir};
    DayClock clock;
    cluster->set_tick_observer(std::ref(clock));
    const Clock::time_point t0 = Clock::now();
    run = sim::run_multi_day(*cluster, opts);
    const Clock::time_point t1 = Clock::now();
    cluster->set_tick_observer({});
    g_spans.add("run_multi_day", t0, t1, 0);
    rep.run_s = seconds_between(t0, t1);
    rep.lane_day_s = {clock.day_seconds(t0, t1)};
    rep.checkpoint_s = watcher.stop();
    for (double c : rep.checkpoint_s) rep.commit_s += c;
  }
  sim::ReportInputs report;
  report.config = &cfg;
  report.result = &run;
  report.cluster = cluster.get();
  report.sunshine_fraction = opts.sunshine_fraction;
  timed("write_report", [&] { sim::write_report(a.out + "/report.md", report); });
  const std::string csv_a = day_csv(run, a.out + "/a.csv");
  const std::string series_a = read_file(opts.series.path);
  const std::string summary_a = run_summary(cfg, run, days, opts.sunshine_fraction, "");
  digest_outputs(rep, {csv_a, series_a, summary_a});

  rep.counts = work_counts(obs::global_registry(), obs::global_trace());
  const double loop_ns = profile_sum_ns(obs::global_registry(), "run_multi_day") -
                         profile_sum_ns(obs::global_registry(), "cluster_run_day") -
                         rep.commit_s * 1e9;
  if (a.trace) route_split(rep, obs::global_registry());
  rep.checkpoint_bytes = static_cast<double>(fs::file_size(ckpt));
  rep.resume_bytes = rep.checkpoint_bytes;

  // Resume from the midway checkpoint: the restore alone, then to the end.
  sim::MultiDayOptions restore = opts;
  restore.days = resume_day;
  restore.checkpoint.every_days = 0;
  restore.checkpoint.resume_path = ckpt;
  restore.series.path.clear();
  for (int i = 0; i < 15; ++i) {
    cluster = std::make_unique<sim::Cluster>(cfg);
    rep.resume_s.push_back(timed("resume (restore only)", [&] {
      (void)sim::run_multi_day(*cluster, restore);
    }));
  }
  cluster = std::make_unique<sim::Cluster>(cfg);
  sim::MultiDayOptions resume = opts;
  resume.checkpoint.every_days = 0;
  resume.checkpoint.resume_path = ckpt;
  resume.series.path = a.out + "/b.series.csv";
  const sim::MultiDayResult resumed = sim::run_multi_day(*cluster, resume);
  expect_identical(rep, "per-day CSV", csv_a, day_csv(resumed, a.out + "/b.csv"));
  expect_identical(rep, "series", series_a, read_file(resume.series.path));
  expect_identical(rep, "summary", summary_a,
                   run_summary(cfg, resumed, days, opts.sunshine_fraction, ""));
  fs::remove_all(opts.checkpoint.dir);

  if (a.trace) {
    probe_cluster(rep, *cluster, 30, a.seed);
    rep.layers["sim.loop_ns_per_day"] = loop_ns / static_cast<double>(days);
    rep.layers["sim.sweep_efficiency"] = 1.0;
    snapshot_layers(rep);
  }
  return rep;
}

// --- workload: sweep_li_faulted ----------------------------------------------

OpReport run_sweep_li_faulted(const Args& a) {
  const std::vector<double> fractions =
      a.tiny ? std::vector<double>{0.3, 0.7} : std::vector<double>{0.2, 0.4, 0.6, 0.8};
  const std::size_t nodes = a.tiny ? 8 : 48;
  const std::size_t days = a.tiny ? 20 : 180;
  const std::size_t jobs = a.workers > 0 ? a.workers : 4;
  std::string fraction_list;
  for (double f : fractions) appendf(fraction_list, "%s%.1f", fraction_list.empty() ? "" : ",", f);
  const sim::CliOptions cli = sim::parse_cli(
      {"--sweep-sunshine", fraction_list, "--jobs", std::to_string(jobs), "--nodes",
       std::to_string(nodes), "--chemistry", "li_nmc", "--policy", "baat", "--faults",
       "sensor_noise:soc:0.03,pv_dropout:day=2:hours=4,cell_weak:bank=1:capacity=0.8,"
       "probe_stale:p=0.01",
       "--days", std::to_string(days), "--seed", std::to_string(a.seed), "--no-blackbox"});
  const sim::ScenarioConfig cfg = sim::scenario_from_cli(cli);
  const std::size_t n = fractions.size();

  OpReport rep;
  rep.attempted = n;
  rep.nodes = nodes;
  rep.node_days = static_cast<double>(n * nodes * days);
  for (int i = 0; i < 50; ++i) {
    rep.setup_s.push_back(timed("Cluster::Cluster", [&] { sim::Cluster c{cfg}; }));
  }

  sim::MultiDayOptions base;
  base.days = days;
  base.probe_every_days = 0;
  base.keep_days = false;
  sim::SweepOptions sweep_opts;
  sweep_opts.jobs = jobs;
  sweep_opts.checkpoint_dir = a.out + "/ckpt";
  sweep_opts.config_hash = sim::scenario_fingerprint(cfg, base) ^ util::fnv1a(fraction_list);

  // The point jobs baatsim's sweep mode builds. The flight recorder is off:
  // its crash hook is one process-global slot that every concurrent
  // run_multi_day writes, which races at more than one job.
  std::vector<sim::LifetimeSummary> points(n);
  rep.lane_day_s.resize(n);
  const auto make_jobs = [&](std::vector<sim::LifetimeSummary>& out, bool restore_only) {
    std::vector<sim::SweepJob> list;
    for (std::size_t i = 0; i < n; ++i) {
      sim::SweepJob job;
      job.name = "point-" + std::to_string(i);
      job.work = [&, i, restore_only] {
        if (restore_only) throw std::runtime_error("point re-ran instead of resuming");
        const Clock::time_point t0 = Clock::now();
        DayClock clock;
        sim::Cluster cluster{cfg};
        cluster.set_tick_observer(std::ref(clock));
        sim::MultiDayOptions o = base;
        o.sunshine_fraction = fractions[i];
        o.weather = seeded_weather(days, fractions[i], a.seed);
        o.series.path = a.out + "/series-point-" + std::to_string(i) + ".csv";
        o.blackbox = false;
        const sim::MultiDayResult r = sim::run_multi_day(cluster, o);
        sim::LifetimeSummary s;
        s.sim_days = static_cast<double>(days);
        s.mean_health_end = r.mean_health_end;
        s.min_health_end = r.min_health_end;
        s.throughput = r.total_throughput;
        s.lifetime_days = core::extrapolate_lifetime(1.0, r.min_health_end, s.sim_days).days;
        s.lifetime_days_mean =
            core::extrapolate_lifetime(1.0, r.mean_health_end, s.sim_days).days;
        out[i] = s;
        const Clock::time_point t1 = Clock::now();
        rep.lane_day_s[i] = clock.day_seconds(t0, t1);
        g_spans.add("sweep point " + std::to_string(i), t0, t1, static_cast<int>(i) + 1);
      };
      job.save_result = [&out, i](snapshot::SnapshotWriter& w) {
        const sim::LifetimeSummary& s = out[i];
        for (double v : {s.sim_days, s.mean_health_end, s.min_health_end, s.throughput,
                         s.lifetime_days, s.lifetime_days_mean}) {
          w.write_f64(v);
        }
      };
      job.restore_result = [&out, i](snapshot::SnapshotReader& r) {
        sim::LifetimeSummary& s = out[i];
        s.sim_days = r.read_f64();
        s.mean_health_end = r.read_f64();
        s.min_health_end = r.read_f64();
        s.throughput = r.read_f64();
        s.lifetime_days = r.read_f64();
        s.lifetime_days_mean = r.read_f64();
      };
      list.push_back(std::move(job));
    }
    return list;
  };

  std::vector<sim::SweepResult> results;
  rep.run_s = timed("run_sweep",
                    [&] { results = sim::run_sweep(make_jobs(points, false), sweep_opts); });
  for (const sim::SweepResult& r : results) {
    if (!r.ok) {
      ++rep.failed;
      rep.failures.push_back(r.name + ": " + r.error);
    }
  }

  // The CSV and summary table baatsim's sweep mode writes, plus every
  // point's series file.
  std::string summary;
  appendf(summary, "policy        : %s\n", std::string(core::policy_kind_name(cfg.policy)).c_str());
  appendf(summary, "faults        : %s\n", cfg.faults.to_string().c_str());
  appendf(summary, "chemistry     : %s\n",
          std::string(battery::chemistry_name(cfg.bank.kind)).c_str());
  appendf(summary, "sweep         : %zu sunshine points x %zu days (seed %llu)\n", n, days,
          static_cast<unsigned long long>(cfg.seed));
  {
    util::CsvWriter csv{a.out + "/points.csv",
                        {"sunshine_fraction", "policy", "days", "lifetime_days",
                         "lifetime_days_mean", "throughput", "mean_health_end",
                         "min_health_end"}};
    for (std::size_t i = 0; i < n; ++i) {
      const sim::LifetimeSummary& p = points[i];
      appendf(summary, "%10.2f %11.0fd %11.0fd %14.2f %12.4f\n", fractions[i], p.lifetime_days,
              p.lifetime_days_mean, p.throughput / 1e6, p.min_health_end);
      csv.write_row({util::CsvWriter::cell(fractions[i]),
                     std::string(core::policy_kind_name(cfg.policy)),
                     util::CsvWriter::cell(static_cast<double>(days)),
                     util::CsvWriter::cell(p.lifetime_days),
                     util::CsvWriter::cell(p.lifetime_days_mean),
                     util::CsvWriter::cell(p.throughput),
                     util::CsvWriter::cell(p.mean_health_end),
                     util::CsvWriter::cell(p.min_health_end)});
    }
  }
  std::vector<std::string> outputs{read_file(a.out + "/points.csv")};
  for (std::size_t i = 0; i < n; ++i) {
    outputs.push_back(read_file(a.out + "/series-point-" + std::to_string(i) + ".csv"));
  }
  outputs.push_back(summary);
  digest_outputs(rep, outputs);

  rep.counts = work_counts(obs::global_registry(), obs::global_trace());
  if (a.trace) {
    route_split(rep, obs::global_registry());
    rep.layers["sim.loop_ns_per_day"] =
        (profile_sum_ns(obs::global_registry(), "run_multi_day") -
         profile_sum_ns(obs::global_registry(), "cluster_run_day")) /
        static_cast<double>(n * days);
    double busy = 0.0;
    for (const std::vector<double>& lane : rep.lane_day_s) {
      for (double s : lane) busy += s;
    }
    rep.layers["sim.sweep_efficiency"] =
        busy / (static_cast<double>(std::min(jobs, n)) * rep.run_s);
  }

  // The sweep engine's resume path: re-running the sweep over its checkpoint
  // directory restores every point instead of simulating it.
  {
    std::vector<sim::LifetimeSummary> restored(n);
    const std::vector<sim::SweepResult> again =
        sim::run_sweep(make_jobs(restored, true), sweep_opts);
    for (std::size_t i = 0; i < n; ++i) {
      const bool same = again[i].ok && again[i].resumed &&
                        std::memcmp(&restored[i], &points[i], sizeof(sim::LifetimeSummary)) == 0;
      if (!same && rep.resume_identical) {
        rep.resume_identical = false;
        rep.resume_mismatch = "resumed sweep point " + std::to_string(i) +
                              " differs from the computed one" +
                              (again[i].ok ? "" : ": " + again[i].error);
      }
    }
  }
  fs::remove_all(sweep_opts.checkpoint_dir);

  // checkpoint_s, checkpoint_mb and resume_s. The sweep engine's own point
  // checkpoint is an 80-byte result record whose commit is file-system
  // metadata alone, too short to time steadily. A point's state is what a
  // single run of the same scenario checkpoints (baatsim --chemistry li_nmc
  // --faults ... --checkpoint-every 1): one point for a few days, a commit
  // after every day, then resumed from midway.
  {
    const std::size_t point_days = 16;
    const std::size_t resume_day = point_days / 2;
    sim::MultiDayOptions o = base;
    o.days = point_days;
    o.weather = seeded_weather(point_days, o.sunshine_fraction, a.seed);
    o.checkpoint.every_days = 1;
    o.checkpoint.dir = a.out + "/point-state";
    o.checkpoint.config_hash = sim::scenario_fingerprint(cfg, o);
    o.series.path = a.out + "/point-state-a.series.csv";
    o.blackbox_dir = a.out;
    fs::create_directories(o.checkpoint.dir);
    const std::string ckpt =
        o.checkpoint.dir + "/checkpoint-day-" + std::to_string(resume_day) + ".snap";

    sim::MultiDayResult full;
    {
      CommitWatcher watcher{o.checkpoint.dir};
      sim::Cluster cluster{cfg};
      timed("run_multi_day (point state, checkpoint every day)",
            [&] { full = sim::run_multi_day(cluster, o); });
      rep.checkpoint_s = watcher.stop();
    }
    rep.checkpoint_bytes = static_cast<double>(fs::file_size(ckpt));
    rep.resume_bytes = rep.checkpoint_bytes;

    sim::MultiDayOptions restore = o;
    restore.days = resume_day;
    restore.checkpoint.every_days = 0;
    restore.checkpoint.resume_path = ckpt;
    restore.series.path.clear();
    for (int i = 0; i < 10; ++i) {
      sim::Cluster cluster{cfg};
      rep.resume_s.push_back(timed("resume (restore only)", [&] {
        (void)sim::run_multi_day(cluster, restore);
      }));
    }
    sim::MultiDayOptions resume = o;
    resume.checkpoint.every_days = 0;
    resume.checkpoint.resume_path = ckpt;
    resume.series.path = a.out + "/point-state-b.series.csv";
    sim::Cluster cluster{cfg};
    const sim::MultiDayResult resumed = sim::run_multi_day(cluster, resume);
    expect_identical(rep, "point-state series", read_file(o.series.path),
                     read_file(resume.series.path));
    expect_identical(rep, "point-state summary",
                     run_summary(cfg, full, point_days, o.sunshine_fraction, ""),
                     run_summary(cfg, resumed, point_days, o.sunshine_fraction, ""));
    fs::remove_all(o.checkpoint.dir);
  }

  if (a.trace) {
    sim::Cluster cluster{cfg};
    probe_cluster(rep, cluster, 10, a.seed);
    snapshot_layers(rep);
  }
  return rep;
}

// --- host stamp and output ---------------------------------------------------

/// Same dependent multiply-add chain as bench/kernel_bench.cpp: the
/// machine-speed scalar to divide by before comparing hosts.
double calibration_ns() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 5; ++rep) {
    volatile double seed = 1.0;
    double x = seed;
    const auto t0 = Clock::now();
    for (long i = 0; i < 5'000'000; ++i) x = x * 0.999999999 + 1e-9;
    const auto t1 = Clock::now();
    volatile double sink = x;
    (void)sink;
    best = std::min(best, seconds_between(t0, t1) * 1e9);
  }
  return best;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cores = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
#if defined(__x86_64__)
  const bool avx2 = __builtin_cpu_supports("avx2");
#else
  const bool avx2 = false;
#endif
  std::string s = "{\"cores\": " + std::to_string(cores);
  s += ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"compiler\": " + obs::json_quote(std::string("g++ ") + __VERSION__);
  s += ", \"build_type\": " + obs::json_quote(BENCH_BUILD_TYPE);
  s += ", \"simd_backend\": " + obs::json_quote(BENCH_SIMD_BACKEND);
  s += std::string(", \"cpu_avx2\": ") + (avx2 ? "true" : "false");
  s += ", \"calibration_ns\": " + num(calibration_ns());
  return s + "}";
}

std::string map_json(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ", ";
    s += obs::json_quote(k) + ": " + num(v);
  }
  return s + "}";
}

std::string list_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s + "]";
}

void write_chrome_trace(const std::string& path, const Args& a, const OpReport& rep) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"traceEvents\": [\n";
  out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"name\": "
      << obs::json_quote("baatbench " + a.workload) << "}}";
  for (const Span& s : g_spans.spans()) {
    out << ",\n{\"name\": " << obs::json_quote(s.name) << ", \"cat\": \"driver\", \"ph\": \"X\""
        << ", \"ts\": " << num(s.start_us) << ", \"dur\": " << num(s.dur_us)
        << ", \"pid\": 1, \"tid\": " << s.tid << "}";
  }
  const double end_us = seconds_between(g_start, Clock::now()) * 1e6;
  for (const auto& [name, cs] : rep.profile) {
    out << ",\n{\"name\": " << obs::json_quote(name) << ", \"cat\": \"profile\", \"ph\": \"C\""
        << ", \"ts\": " << num(end_us) << ", \"pid\": 1, \"args\": {\"count\": "
        << num(cs.first) << ", \"sum_ns\": " << num(cs.second) << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": "
      << obs::json_quote(a.workload) << ", \"seed\": " << a.seed
      << ", \"layers\": " << map_json(rep.layers) << ", \"counts\": " << map_json(rep.counts)
      << "}}\n";
}

void emit(const Args& a, const OpReport& rep) {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(rep.digest));
  const std::map<std::string, double> e2e = {
      {"node_days_per_s", rep.node_days / (rep.run_s - rep.commit_s)},
      {"setup_s", median(rep.setup_s)},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"checkpoint_s", interquartile_mean(rep.checkpoint_s)},
      {"checkpoint_mb", rep.checkpoint_bytes / 1e6},
      {"resume_s", interquartile_mean(rep.resume_s)},
  };
  std::string failures = "[";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    failures += (i ? ", " : "") + obs::json_quote(rep.failures[i]);
  }
  failures += "]";
  std::string line = "{\"workload\": " + obs::json_quote(a.workload);
  line += ", \"seed\": " + std::to_string(a.seed);
  line += std::string(", \"traced\": ") + (a.trace ? "true" : "false");
  line += ", \"attempted\": " + std::to_string(rep.attempted);
  line += ", \"failed\": " + std::to_string(rep.failed);
  line += ", \"failures\": " + failures;
  line += ", \"digest\": \"" + std::string(digest) + "\"";
  line += std::string(", \"resume_identical\": ") + (rep.resume_identical ? "true" : "false");
  line += ", \"resume_mismatch\": " + obs::json_quote(rep.resume_mismatch);
  line += ", \"node_days\": " + num(rep.node_days);
  line += ", \"run_s\": " + num(rep.run_s);
  line += ", \"commit_s\": " + num(rep.commit_s);
  std::string lanes = "[";
  for (std::size_t i = 0; i < rep.lane_day_s.size(); ++i) {
    lanes += (i ? ", " : "") + list_json(rep.lane_day_s[i]);
  }
  line += ", \"day_samples\": " + lanes + "]";
  line += ", \"e2e\": " + map_json(e2e);
  line += ", \"setup_samples\": " + list_json(rep.setup_s);
  line += ", \"layers\": " + map_json(rep.layers);
  line += ", \"counts\": " + map_json(rep.counts) + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--workers") {
      a.workers = std::stoul(value());
    } else if (flag == "--trace") {
      a.trace = true;
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--inject-crash") {
      a.inject_crash = true;
    } else if (flag == "--host") {
      a.host = true;
    } else {
      throw std::runtime_error("unknown argument '" + flag + "'");
    }
  }
  if (!a.host && (a.workload.empty() || a.out.empty())) {
    throw std::runtime_error(
        "usage: baatbench --workload <name> --seed <n> --out <dir> [--trace] [--tiny] "
        "[--workers <n>] | --host");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baatbench: %s\n", e.what());
    return 2;
  }
  if (a.host) {
    std::printf("%s\n", host_json().c_str());
    return 0;
  }
  if (a.inject_crash) {
    // Self-test hook: a process that dies the way a crashing operation does.
    std::fprintf(stderr, "baatbench: injected crash\n");
    std::fflush(stderr);
    std::abort();
  }

  // Brownout warnings are expected under demand and would flood stderr: the
  // lines are still formatted, only not written. The engine's std::cerr
  // status lines ("[checkpoint] wrote ...") are kept in memory and shown
  // only after a failure, so a failure's first stderr line is its cause.
  util::set_log_sink([](util::LogLevel, const std::string&) {});
  std::ostringstream engine_log;
  std::streambuf* const cerr_buf = std::cerr.rdbuf(engine_log.rdbuf());
  obs::global_registry().reset();
  obs::set_trace_enabled(a.trace);
  obs::set_profiling_enabled(a.trace);
  try {
    fs::create_directories(a.out);
    OpReport rep;
    if (a.workload == "dc_diurnal") {
      rep = run_dc_diurnal(a);
    } else if (a.workload == "proto_lifetime") {
      rep = run_proto_lifetime(a);
    } else if (a.workload == "sweep_li_faulted") {
      rep = run_sweep_li_faulted(a);
    } else {
      throw std::runtime_error("unknown workload '" + a.workload + "'");
    }
    obs::set_trace_enabled(false);
    obs::set_profiling_enabled(false);
    if (a.trace) write_chrome_trace(a.out + "/trace.json", a, rep);
    std::cerr.rdbuf(cerr_buf);
    emit(a, rep);
    if (!rep.resume_identical) {
      std::fprintf(stderr, "baatbench: %s\n", rep.resume_mismatch.c_str());
      return 1;
    }
    for (const std::string& f : rep.failures) std::fprintf(stderr, "baatbench: %s\n", f.c_str());
    return rep.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr.rdbuf(cerr_buf);
    std::fprintf(stderr, "baatbench: %s: %s\n", a.workload.c_str(), e.what());
    std::fputs(engine_log.str().c_str(), stderr);
    return 1;
  }
}
