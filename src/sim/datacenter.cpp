#include "sim/datacenter.hpp"

#include <algorithm>
#include <optional>

#include "obs/obs.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {

namespace {

std::size_t pool_lanes(const DatacenterConfig& cfg) {
  std::size_t workers = cfg.workers > 0 ? cfg.workers : default_sweep_jobs();
  return std::min(workers, cfg.shards);
}

DatacenterConfig one_shard_config(const Cluster& cluster) {
  DatacenterConfig cfg;
  cfg.scenario = cluster.config();
  cfg.workers = 1;
  return cfg;
}

}  // namespace

Datacenter::Datacenter(DatacenterConfig cfg)
    : cfg_(std::move(cfg)), pool_(pool_lanes(cfg_)) {
  BAAT_REQUIRE(cfg_.shards >= 1, "datacenter needs at least one shard");
  BAAT_REQUIRE(cfg_.shards <= 4096, "shard count out of range (max 4096)");
  BAAT_REQUIRE(cfg_.scenario.shard == 0,
               "DatacenterConfig::scenario.shard must be 0; the datacenter "
               "stamps shard indices itself");

  const std::size_t trace_capacity = obs::global_trace().capacity();
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i) {
    // Per-shard solar-day stream, keyed on the shard index so adding shards
    // never perturbs existing ones; shard 0 keeps the exact unsharded
    // "solar-days" stream the single-cluster run has always used.
    const std::string stream =
        i == 0 ? std::string("solar-days") : "solar-days-shard-" + std::to_string(i);
    auto s = std::make_unique<Shard>(util::Rng::stream(cfg_.scenario.seed, stream));
    s->sinks = std::make_unique<ShardSinks>(trace_capacity);
    s->sinks->log_sink = [sinks = s->sinks.get()](util::LogLevel level,
                                                  const std::string& line) {
      sinks->log_lines.emplace_back(level, line);
    };
    {
      // Construct under the shard's sinks so the Cluster binds its metric
      // handles into the shard registry, not the global one.
      ObsSinkScope scope{&s->sinks->registry, &s->sinks->trace, &s->sinks->log_sink};
      ScenarioConfig sc = cfg_.scenario;
      sc.shard = i;
      s->owned = std::make_unique<Cluster>(std::move(sc));
    }
    s->cluster = s->owned.get();
    shards_.push_back(std::move(s));
  }
  // Construction-time events/log lines (if any) surface immediately, in
  // shard order — matching a plain Cluster constructed under global sinks.
  for (const std::unique_ptr<Shard>& s : shards_) drain_obs(*s);
}

Datacenter::Datacenter(Cluster& cluster)
    : cfg_(one_shard_config(cluster)), pool_(1), day_counter_(cluster.days_run()) {
  auto s = std::make_unique<Shard>(util::Rng::stream(cfg_.scenario.seed, "solar-days"));
  s->cluster = &cluster;
  shards_.push_back(std::move(s));
}

std::vector<const Cluster*> Datacenter::shard_ptrs() const {
  std::vector<const Cluster*> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& s : shards_) out.push_back(s->cluster);
  return out;
}

void Datacenter::drain_obs(Shard& s) {
  if (!s.sinks) return;
  obs::global_trace().merge(s.sinks->trace);
  s.sinks->trace.clear();
  for (const auto& [level, line] : s.sinks->log_lines) util::emit_log_line(level, line);
  s.sinks->log_lines.clear();
}

void Datacenter::install_demand_jobs() {
  if (cfg_.demand.empty()) return;
  const Seconds window = cfg_.scenario.day_end - cfg_.scenario.day_start;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::vector<workload::DemandJob> schedule =
        cfg_.demand.shard_day_jobs(i, shards_.size(), day_counter_);
    std::vector<JobSpec> jobs;
    jobs.reserve(schedule.size());
    for (const workload::DemandJob& j : schedule) {
      jobs.push_back(JobSpec{j.kind, Seconds{j.start_frac * window.value()}});
    }
    shards_[i]->cluster->set_daily_jobs(std::move(jobs));
  }
}

std::vector<solar::SolarDay> Datacenter::sample_solar_days(solar::DayType type) {
  std::vector<solar::SolarDay> days;
  days.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& s : shards_) {
    days.emplace_back(cfg_.scenario.plant, type, s->solar_rng.fork("day"));
  }
  return days;
}

DayResult Datacenter::dispatch_day(
    const std::function<DayResult(std::size_t, Cluster&)>& step_shard) {
  install_demand_jobs();

  pool_.run(shards_.size(), [&](std::size_t i) {
    Shard& s = *shards_[i];
    // The worker's sinks point at the shard's private buffers for the whole
    // day; the scope restores the worker's previous sinks (and the caller's
    // when running inline), so nothing leaks across shards.
    std::optional<ObsSinkScope> scope;
    if (s.sinks) scope.emplace(&s.sinks->registry, &s.sinks->trace, &s.sinks->log_sink);
    s.error = nullptr;
    try {
      s.result = step_shard(i, *s.cluster);
    } catch (...) {
      s.error = std::current_exception();
      s.failed_at = util::sim_time();
    }
  });

  // Shard-ordered merge on the caller thread — even when a shard failed,
  // every shard's events up to the failure reach the global trace first.
  for (const std::unique_ptr<Shard>& s : shards_) drain_obs(*s);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->error) {
      // Stop the caller's clock where the shard died, for the post-mortem.
      last_failed_shard_ = i;
      util::set_sim_time(shards_[i]->failed_at);
      std::rethrow_exception(shards_[i]->error);
    }
  }

  ++day_counter_;
  // Owned shards advanced their thread-local sim clocks under their scopes;
  // bring the caller's clock to the same day boundary for probe/checkpoint
  // stamps. The inline shard already advanced the caller's clock.
  if (shards_.front()->sinks) util::set_sim_time(static_cast<double>(day_counter_) * 86400.0);
  if (shards_.size() == 1) return std::move(shards_.front()->result);
  std::vector<DayResult> per_shard;
  per_shard.reserve(shards_.size());
  for (std::unique_ptr<Shard>& s : shards_) per_shard.push_back(std::move(s->result));
  return merge_day_results(per_shard);
}

DayResult Datacenter::run_day(const std::vector<solar::SolarDay>& days) {
  BAAT_REQUIRE(days.size() == shards_.size(),
               "run_day needs exactly one SolarDay per shard");
  return dispatch_day([&days](std::size_t i, Cluster& c) { return c.run_day(days[i]); });
}

DayResult Datacenter::run_day(solar::DayType type) {
  return dispatch_day([type](std::size_t, Cluster& c) { return c.run_day(type); });
}

void Datacenter::merge_metrics_into(obs::Registry& target) const {
  for (const std::unique_ptr<Shard>& s : shards_) {
    if (s->sinks) target.merge(s->sinks->registry);
  }
}

void Datacenter::save_shard_sections(snapshot::SectionFileWriter& out) const {
  for (const std::unique_ptr<Shard>& s : shards_) {
    snapshot::SnapshotWriter w;
    s->solar_rng.save_state(w);
    if (s->sinks) s->sinks->registry.save_state(w);
    s->cluster->save_state(w);
    out.append(w.bytes());
  }
}

void Datacenter::load_shard_sections(snapshot::SectionFileReader& in) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    const std::vector<std::uint8_t> payload = in.read_section();
    snapshot::SnapshotReader r{payload};
    s.solar_rng.load_state(r);
    if (s.sinks) s.sinks->registry.load_state(r);
    s.cluster->load_state(r);
    if (!r.exhausted()) {
      throw snapshot::SnapshotError("shard section " + std::to_string(i) + " carries " +
                                    std::to_string(r.remaining()) +
                                    " trailing bytes past the restored state");
    }
  }
}

std::uint64_t datacenter_fingerprint(const DatacenterConfig& cfg,
                                     const MultiDayOptions& options) {
  std::uint64_t h = scenario_fingerprint(cfg.scenario, options);
  // Fold in the topology knobs (never the worker count: resume must work —
  // and stay byte-identical — under any --shard-workers).
  h ^= cfg.shards * 0x9E3779B97F4A7C15ULL;
  h ^= util::fnv1a(cfg.demand.to_string()) << 1;
  return h == 0 ? 1 : h;
}

}  // namespace baat::sim
