#include "sim/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>

#include "core/demand.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/require.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {

namespace {
constexpr double kBrownoutWatts = 1.0;  ///< unmet power that counts as a brownout
}

Cluster::Cluster(ScenarioConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  BAAT_REQUIRE(cfg_.nodes > 0, "cluster needs at least one node");
  BAAT_REQUIRE(cfg_.dt.value() > 0.0 && cfg_.dt.value() <= 300.0,
               "dt must be in (0, 300] seconds");
  BAAT_REQUIRE(cfg_.day_start < cfg_.day_end, "day window must be non-empty");

  // Sharded datacenters re-key every stream on the shard index; shard 0
  // keeps the historical unsharded draws bit-for-bit, so a 1-shard
  // datacenter reproduces a plain Cluster exactly.
  if (cfg_.shard > 0) {
    rng_ = util::Rng::stream(cfg_.seed, "shard-" + std::to_string(cfg_.shard));
  }

  cfg_.bank.units = cfg_.nodes;
  util::Rng bank_rng = rng_.fork("bank");
  // One shared FleetState for the whole bank (same RNG draws as make_bank),
  // with a thin Battery view per node: the router batch-steps idle cells
  // through the fleet kernel while everything else keeps the object API.
  fleet_ = battery::make_fleet(cfg_.bank, bank_rng);
  batteries_ = battery::fleet_views(*fleet_);

  // Fault layer: the injector exists only when the plan is non-empty, so a
  // clean run takes exactly the code paths (and RNG draws) it always has.
  if (!cfg_.faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(cfg_.faults, cfg_.seed,
                                                       cfg_.nodes, cfg_.shard);
    injector_->apply_bank_faults(batteries_, cfg_.bank);
  }
  guard_ = core::TelemetryGuard{cfg_.guard, cfg_.nodes};
  watchdog_ = Watchdog{cfg_.watchdog, cfg_.nodes};

  table_params_.chemistry = cfg_.bank.chemistry;
  table_params_.ocv_curve = cfg_.bank.ocv;
  table_params_.estimation = cfg_.soc_estimation;
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    servers_.emplace_back(cfg_.server);
    life_tables_.emplace_back(table_params_);
    day_tables_.emplace_back(table_params_);
    sensors_.emplace_back(cfg_.sensor_noise, rng_.fork("sensor"));
  }
  readings_.resize(cfg_.nodes);
  voltage_soc_.resize(cfg_.nodes);

  if (cfg_.daily_jobs.empty()) cfg_.daily_jobs = default_daily_jobs(cfg_.replicas);
  std::stable_sort(cfg_.daily_jobs.begin(), cfg_.daily_jobs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.arrival < b.arrival; });

  charge_priority_.resize(cfg_.nodes);
  std::iota(charge_priority_.begin(), charge_priority_.end(), std::size_t{0});

  policy_ = core::make_policy(cfg_.policy, cfg_.policy_params);

  obs::Registry& reg = obs::global_registry();
  obs_.jobs_deployed = &reg.counter("sim.jobs_deployed");
  obs_.deploy_retries = &reg.counter("sim.vm_deploy_retries");
  obs_.low_soc_ticks = &reg.counter("battery.low_soc_ticks");
  obs_.critical_soc_ticks = &reg.counter("battery.critical_soc_ticks");
  obs_.brownouts = &reg.counter("sim.brownouts");
  obs_.migrations = &reg.counter("sim.migrations");
  obs_.dvfs_transitions = &reg.counter("sim.dvfs_transitions");
  obs_.days_run = &reg.counter("sim.days_run");
  obs_.control_ticks = &reg.counter("policy.control_ticks");
  obs_.decided_migrations = &reg.counter("policy.decisions", "migration");
  obs_.decided_dvfs = &reg.counter("policy.decisions", "dvfs");
  obs_.decided_charge_priority = &reg.counter("policy.decisions", "charge_priority");
  obs_.decided_discharge_floor = &reg.counter("policy.decisions", "discharge_floor");
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    // Label by *global* node index: per-shard registries are merged into
    // one export, and shard-local labels would alias every shard's node 0
    // onto the same gauge (last-write-wins would silently drop data).
    const std::string label = std::to_string(cfg_.shard * cfg_.nodes + i);
    obs_.node_soc.push_back(&reg.gauge("node.soc", label));
    obs_.node_health.push_back(&reg.gauge("node.health", label));
  }
  node_low_soc_.assign(cfg_.nodes, false);
  node_eol_seen_.assign(cfg_.nodes, false);
}

void Cluster::set_policy(core::PolicyKind kind) {
  obs::emit(obs::EventKind::PolicySwitch, -1, static_cast<double>(day_counter_),
            std::string(core::policy_kind_name(kind)));
  cfg_.policy = kind;
  policy_ = core::make_policy(kind, cfg_.policy_params);
  // Reset router hints a previous policy may have installed.
  std::iota(charge_priority_.begin(), charge_priority_.end(), std::size_t{0});
  charge_priority_explicit_ = false;
  discharge_floor_.clear();
}

void Cluster::set_daily_jobs(std::vector<JobSpec> jobs) {
  BAAT_REQUIRE(vms_.empty() && pending_jobs_.empty(),
               "daily jobs can only change at a day boundary");
  BAAT_REQUIRE(!jobs.empty(), "daily job plan must not be empty");
  cfg_.daily_jobs = std::move(jobs);
  std::stable_sort(cfg_.daily_jobs.begin(), cfg_.daily_jobs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.arrival < b.arrival; });
}

void Cluster::save_state(snapshot::SnapshotWriter& w) const {
  if (!vms_.empty() || !pending_jobs_.empty()) {
    throw snapshot::SnapshotError(
        "cluster snapshot requested mid-day: VMs or queued jobs are still "
        "live; snapshots are only taken at day boundaries");
  }
  rng_.save_state(w);
  fleet_->save_state(w);
  w.write_u64(servers_.size());
  for (const server::Server& s : servers_) s.save_state(w);
  w.write_u64(life_tables_.size());
  for (const telemetry::PowerTable& t : life_tables_) t.save_state(w);
  for (const telemetry::PowerTable& t : day_tables_) t.save_state(w);
  for (const telemetry::BatterySensor& s : sensors_) s.save_state(w);
  w.write_bool(injector_ != nullptr);
  if (injector_ != nullptr) injector_->save_state(w);
  guard_.save_state(w);
  policy_->save_state(w);
  w.write_u64_vec(std::vector<std::uint64_t>(charge_priority_.begin(), charge_priority_.end()));
  w.write_bool(charge_priority_explicit_);
  w.write_f64_vec(discharge_floor_);
  w.write_i64(next_vm_id_);
  w.write_i64(day_counter_);
  w.write_bool_vec(node_low_soc_);
  w.write_bool_vec(node_eol_seen_);
  watchdog_.save_state(w);
}

void Cluster::load_state(snapshot::SnapshotReader& r) {
  rng_.load_state(r);
  fleet_->load_state(r);
  const auto n_servers = static_cast<std::size_t>(r.read_u64());
  if (n_servers != servers_.size()) {
    throw snapshot::SnapshotError("cluster snapshot covers " + std::to_string(n_servers) +
                                  " servers but the scenario builds " +
                                  std::to_string(servers_.size()));
  }
  for (server::Server& s : servers_) s.load_state(r);
  const auto n_tables = static_cast<std::size_t>(r.read_u64());
  if (n_tables != life_tables_.size()) {
    throw snapshot::SnapshotError("cluster snapshot covers " + std::to_string(n_tables) +
                                  " telemetry tables but the scenario builds " +
                                  std::to_string(life_tables_.size()));
  }
  for (telemetry::PowerTable& t : life_tables_) t.load_state(r);
  for (telemetry::PowerTable& t : day_tables_) t.load_state(r);
  for (telemetry::BatterySensor& s : sensors_) s.load_state(r);
  const bool had_injector = r.read_bool();
  if (had_injector != (injector_ != nullptr)) {
    throw snapshot::SnapshotError(
        "cluster snapshot and scenario disagree on whether a fault plan is "
        "active; resume with the same --faults spec");
  }
  if (injector_ != nullptr) injector_->load_state(r);
  guard_.load_state(r);
  policy_->load_state(r);
  const std::vector<std::uint64_t> prio = r.read_u64_vec();
  if (prio.size() != charge_priority_.size()) {
    throw snapshot::SnapshotError("cluster snapshot charge priority covers " +
                                  std::to_string(prio.size()) + " nodes, scenario builds " +
                                  std::to_string(charge_priority_.size()));
  }
  charge_priority_.assign(prio.begin(), prio.end());
  charge_priority_explicit_ = r.read_bool();
  discharge_floor_ = r.read_f64_vec();
  next_vm_id_ = static_cast<workload::VmId>(r.read_i64());
  day_counter_ = static_cast<long>(r.read_i64());
  node_low_soc_ = r.read_bool_vec();
  node_eol_seen_ = r.read_bool_vec();
  if (node_low_soc_.size() != cfg_.nodes || node_eol_seen_.size() != cfg_.nodes) {
    throw snapshot::SnapshotError("cluster snapshot per-node latches disagree with the "
                                  "scenario's node count");
  }
  watchdog_.load_state(r);
}

battery::CellLedgerEntry Cluster::node_ledger_delta(std::size_t node) const {
  BAAT_REQUIRE(node < cfg_.nodes, "node index out of range");
  return fleet_->ledger_delta(node);
}

battery::CellLedgerEntry Cluster::node_ledger_total(std::size_t node) const {
  BAAT_REQUIRE(node < cfg_.nodes, "node index out of range");
  return fleet_->ledger_total(node);
}

battery::LedgerRollup Cluster::ledger_rollup(bool lifetime_totals) const {
  battery::LedgerRollup roll;
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    roll.add(lifetime_totals ? fleet_->ledger_total(i) : fleet_->ledger_delta(i));
  }
  return roll;
}

void Cluster::ledger_advance() { fleet_->ledger_advance(); }

telemetry::AgingMetrics Cluster::life_metrics(std::size_t node) const {
  BAAT_REQUIRE(node < life_tables_.size(), "node index out of range");
  return telemetry::compute_metrics(life_tables_[node], cfg_.metrics);
}

Cluster::VmRecord* Cluster::find_vm(workload::VmId id) {
  const auto it = std::find_if(vms_.begin(), vms_.end(),
                               [id](const VmRecord& r) { return r.vm.id() == id; });
  return it == vms_.end() ? nullptr : &*it;
}

core::PolicyContext Cluster::build_context(util::Seconds now,
                                           const power::RouteResult* last_route,
                                           util::Watts solar_now) {
  core::PolicyContext ctx;
  ctx.now = now;
  ctx.time_of_day = util::Seconds{std::fmod(now.value(), 86400.0)};
  ctx.solar_now = solar_now;
  if (injector_ != nullptr) {
    // The controller reads the plant meter, not the sun: glitch it.
    ctx.solar_now = util::Watts{std::max(
        0.0, solar_now.value() * injector_->meter_scale(-1, now))};
  }
  ctx.nodes.resize(cfg_.nodes);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    core::NodeView& n = ctx.nodes[i];
    n.index = i;
    n.powered_on = servers_[i].powered_on();
    n.soc = life_tables_[i].estimated_soc();
    if (guard_.enabled()) {
      // Staleness is judged by the newest sensor sample behind the estimate
      // (stuck/stale injections deliver old timestamps, so it lags).
      const auto& last = life_tables_[i].last_reading();
      const util::Seconds reading_time = last ? last->time : now;
      n.soc = guard_.filter_soc(i, n.soc, reading_time, now);
    }
    n.metrics = telemetry::compute_metrics(day_tables_[i], cfg_.metrics);
    n.metrics_life = telemetry::compute_metrics(life_tables_[i], cfg_.metrics);
    n.cores_free = servers_[i].cores_free();
    n.mem_free_gb = servers_[i].mem_free_gb();
    n.dvfs_level = servers_[i].dvfs_level();
    n.dvfs_top = servers_[i].spec().dvfs.top();
    n.server_power = servers_[i].power_now();
    if (last_route != nullptr) {
      n.battery_draw = last_route->nodes[i].battery_delivered;
    }
    if (injector_ != nullptr) {
      // Per-node meter glitches corrupt what the controller *reads*, never
      // what physically flowed.
      const double m = injector_->meter_scale(static_cast<int>(i), now);
      n.server_power = util::Watts{std::max(0.0, n.server_power.value() * m)};
      n.battery_draw = util::Watts{std::max(0.0, n.battery_draw.value() * m)};
    }

    // P_threshold of Fig 9: the largest load power the battery can sustain
    // for the 2-minute reserve window, from the controller's SoC estimate.
    const battery::Battery& bat = batteries_[i];
    const double ah_est = n.soc * bat.nameplate().value();
    const double window_h = cfg_.policy_params.slowdown.reserve_window.value() / 3600.0;
    const double i_by_charge = window_h > 0.0 ? ah_est / window_h : 0.0;
    const double i_sus = std::min(bat.max_discharge_current().value(), i_by_charge);
    n.sustainable_reserve_power =
        util::Watts{bat.chemistry().nominal_voltage().value() * i_sus *
                    cfg_.router.inverter_efficiency};

    for (const server::HostedVm& h : servers_[i].hosted()) {
      const auto it = std::find_if(vms_.begin(), vms_.end(),
                                   [&h](const VmRecord& r) { return r.vm.id() == h.vm; });
      BAAT_INVARIANT(it != vms_.end(), "hosted VM missing from registry");
      core::VmView view;
      view.id = h.vm;
      view.kind = it->vm.kind();
      view.cores = h.cores;
      view.mem_gb = h.mem_gb;
      view.migratable = it->vm.migratable();
      view.demand = core::profile_for(it->vm.spec(), cfg_.server);
      n.vms.push_back(view);
    }
  }
  return ctx;
}

bool Cluster::deploy_job(const JobSpec& job) {
  const workload::Spec spec = workload::spec_for(job.kind);
  const core::PolicyContext ctx = build_context(
      util::Seconds{static_cast<double>(day_counter_) * 86400.0 + job.arrival.value() +
                    cfg_.day_start.value()},
      nullptr);
  const core::DemandProfile demand = core::profile_for(spec, cfg_.server);
  const auto target = policy_->place_vm(ctx, spec.cores, spec.mem_gb, demand);
  if (!target) return false;
  const workload::VmId id = next_vm_id_++;
  const double phase = rng_.uniform(0.0, spec.period.value());
  vms_.push_back(VmRecord{workload::Vm{id, job.kind, phase, rng_.fork("vm")}, *target, 0.0});
  servers_[*target].attach(id, spec.cores, spec.mem_gb);
  obs_.jobs_deployed->inc();
  obs::emit(obs::EventKind::JobDeploy, static_cast<int>(*target),
            static_cast<double>(id), std::string(workload::kind_name(job.kind)));
  return true;
}

void Cluster::apply_actions(const core::Actions& actions, DayResult& result) {
  obs_.control_ticks->inc();
  if (!actions.migrations.empty()) {
    obs_.decided_migrations->inc(static_cast<double>(actions.migrations.size()));
  }
  if (!actions.dvfs.empty()) obs_.decided_dvfs->inc(static_cast<double>(actions.dvfs.size()));
  if (!actions.charge_priority.empty()) obs_.decided_charge_priority->inc();
  if (!actions.discharge_floor_soc.empty()) obs_.decided_discharge_floor->inc();

  for (const core::DvfsAction& a : actions.dvfs) {
    if (a.node >= servers_.size()) continue;
    if (a.level < 0 || a.level >= servers_[a.node].spec().dvfs.levels()) continue;
    if (servers_[a.node].dvfs_level() != a.level) {
      servers_[a.node].set_dvfs_level(a.level);
      ++result.dvfs_transitions;
      obs_.dvfs_transitions->inc();
      obs::emit(obs::EventKind::Dvfs, static_cast<int>(a.node),
                static_cast<double>(a.level), a.cause);
    }
  }

  for (const core::MigrationAction& m : actions.migrations) {
    VmRecord* rec = find_vm(m.vm);
    if (rec == nullptr || rec->host != m.from || m.to >= servers_.size()) continue;
    if (!rec->vm.migratable()) continue;
    const workload::Spec& spec = rec->vm.spec();
    if (!servers_[m.to].can_host(spec.cores, spec.mem_gb)) continue;
    servers_[m.from].detach(m.vm);
    servers_[m.to].attach(m.vm, spec.cores, spec.mem_gb);
    rec->host = m.to;
    rec->vm.start_migration(cfg_.migration_pause);
    ++result.migrations;
    obs_.migrations->inc();
    std::string detail = "to node " + std::to_string(m.to);
    if (m.cause[0] != '\0') detail += std::string(" (") + m.cause + ")";
    obs::emit(obs::EventKind::Migration, static_cast<int>(m.from),
              static_cast<double>(m.vm), detail);
  }

  if (actions.charge_priority.size() == cfg_.nodes) {
    // Accept only a valid permutation.
    std::vector<bool> seen(cfg_.nodes, false);
    bool ok = true;
    for (std::size_t i : actions.charge_priority) {
      if (i >= cfg_.nodes || seen[i]) {
        ok = false;
        break;
      }
      seen[i] = true;
    }
    if (ok) {
      if (!charge_priority_explicit_ || charge_priority_ != actions.charge_priority) {
        // Most-favoured node first in the detail string.
        std::string order;
        for (const std::size_t i : actions.charge_priority) {
          if (!order.empty()) order += ',';
          order += std::to_string(i);
        }
        obs::emit(obs::EventKind::ChargePriority,
                  static_cast<int>(actions.charge_priority.front()), 0.0, order);
      }
      charge_priority_ = actions.charge_priority;
      charge_priority_explicit_ = true;
    }
  }

  if (actions.discharge_floor_soc.size() == cfg_.nodes) {
    if (discharge_floor_ != actions.discharge_floor_soc) {
      const auto worst = std::max_element(actions.discharge_floor_soc.begin(),
                                          actions.discharge_floor_soc.end());
      obs::emit(obs::EventKind::DischargeFloor,
                static_cast<int>(worst - actions.discharge_floor_soc.begin()), *worst);
    }
    discharge_floor_ = actions.discharge_floor_soc;
  }
}

DayResult Cluster::run_day(solar::DayType type) {
  std::string stream_name = "solar-day-" + std::string(solar::day_type_name(type));
  if (cfg_.shard > 0) stream_name += "-shard-" + std::to_string(cfg_.shard);
  util::Rng day_rng = util::Rng::stream(cfg_.seed, stream_name);
  for (long i = 0; i <= day_counter_; ++i) day_rng.next();
  return run_day(solar::SolarDay{cfg_.plant, type, day_rng});
}

DayResult Cluster::run_day(const solar::SolarDay& day) {
  BAAT_OBS_TIMED("cluster_run_day");
  util::set_sim_time(static_cast<double>(day_counter_) * 86400.0);
  obs::emit(obs::EventKind::DayStart, -1, static_cast<double>(day_counter_),
            std::string(solar::day_type_name(day.type())));

  if (injector_ != nullptr) injector_->begin_day(day_counter_, batteries_);
  // Day-start sentinels run before the first kernel step: a poisoned state
  // word must become a readable watchdog abort, not a precondition crash.
  watchdog_.check_day_start(day_counter_, batteries_);

  DayResult result;
  result.day_type = day.type();
  result.solar_energy = day.daily_energy();
  result.nodes.resize(cfg_.nodes);

  // Fresh per-day power tables: "the logs contain ... aging metrics
  // information of six battery nodes" recorded per experiment day (§VI-B).
  day_tables_.assign(cfg_.nodes, telemetry::PowerTable{table_params_});

  std::vector<double> soc_min(cfg_.nodes, 1.0);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) soc_min[i] = batteries_[i].soc();

  // Stage timer handle, resolved once per day and only when profiling is on:
  // profile_histogram() builds its key string on every call.
  obs::Histogram* telemetry_ns =
      obs::profiling_enabled() ? &obs::profile_histogram("cluster_telemetry") : nullptr;

  std::size_t next_job = 0;
  const double dt = cfg_.dt.value();
  const auto ticks = static_cast<long>(86400.0 / dt);
  double next_control = cfg_.day_start.value();
  power::RouteResult last_route;
  bool window_open = false;

  for (long k = 0; k < ticks; ++k) {
    const double tod = static_cast<double>(k) * dt;
    const util::Seconds now{static_cast<double>(day_counter_) * 86400.0 + tod};
    util::set_sim_time(now.value());
    const bool in_window = tod >= cfg_.day_start.value() && tod < cfg_.day_end.value();

    // Physical PV feed this tick — the fault layer can drop or derate it.
    util::Watts solar_now = day.power(util::Seconds{tod});
    if (injector_ != nullptr) {
      solar_now = util::Watts{solar_now.value() *
                              injector_->solar_scale(day_counter_, util::Seconds{tod})};
    }

    // --- day window transitions -------------------------------------------
    if (in_window && !window_open) {
      window_open = true;
      for (auto& s : servers_) s.power_on();
    }
    if (!in_window && window_open) {
      // Day end: retire the day's VMs and shut the servers down (§V-B).
      window_open = false;
      for (VmRecord& r : vms_) {
        result.throughput_work += r.vm.progress_work();
        if (r.vm.state() == workload::VmState::Finished) ++result.jobs_finished;
        servers_[r.host].detach(r.vm.id());
      }
      vms_.clear();
      pending_jobs_.clear();
      for (auto& s : servers_) s.power_off();
    }

    if (in_window) {
      // --- job arrivals ------------------------------------------------------
      // Queue semantics: a job that cannot be placed yet (capacity
      // fragmentation) waits and is retried as earlier batches finish.
      if (!pending_jobs_.empty()) {
        std::vector<JobSpec> still_pending;
        for (const JobSpec& job : pending_jobs_) {
          if (!deploy_job(job)) {
            obs_.deploy_retries->inc();
            still_pending.push_back(job);
          }
        }
        pending_jobs_ = std::move(still_pending);
      }
      while (next_job < cfg_.daily_jobs.size() &&
             cfg_.daily_jobs[next_job].arrival.value() <= tod - cfg_.day_start.value()) {
        if (!deploy_job(cfg_.daily_jobs[next_job])) {
          obs::emit(obs::EventKind::JobQueued, -1,
                    static_cast<double>(pending_jobs_.size() + 1),
                    std::string(workload::kind_name(cfg_.daily_jobs[next_job].kind)));
          pending_jobs_.push_back(cfg_.daily_jobs[next_job]);
        }
        ++next_job;
      }

      // --- control tick -------------------------------------------------------
      if (tod >= next_control) {
        next_control += cfg_.control_period.value();
        const core::PolicyContext ctx =
            build_context(now, k > 0 ? &last_route : nullptr, solar_now);
        apply_actions(policy_->on_control_tick(ctx), result);
      }
    }

    // --- VM demand sampling ---------------------------------------------------
    for (VmRecord& r : vms_) {
      r.last_util = r.vm.demand_utilization(cfg_.dt);
      if (servers_[r.host].hosts(r.vm.id())) {
        servers_[r.host].set_demand(r.vm.id(), r.last_util);
      }
    }

    // --- power routing ----------------------------------------------------------
    demands_.assign(cfg_.nodes, util::Watts{0.0});
    for (std::size_t i = 0; i < cfg_.nodes; ++i) {
      demands_[i] = in_window ? servers_[i].power_now() : util::Watts{0.0};
    }
    power::RouterParams router = cfg_.router;
    router.charge_allocation = charge_priority_explicit_
                                   ? power::ChargeAllocation::PriorityOrder
                                   : power::ChargeAllocation::Proportional;
    power::route_power_into(solar_now, demands_, batteries_, charge_priority_, router,
                            cfg_.dt, discharge_floor_, last_route, router_scratch_);
    watchdog_.check_tick(day_counter_, last_route, batteries_);

    // --- brownout / restart ----------------------------------------------------
    for (std::size_t i = 0; i < cfg_.nodes; ++i) {
      server::Server& srv = servers_[i];
      if (srv.powered_on() && last_route.nodes[i].unmet.value() > kBrownoutWatts) {
        srv.power_off();
        ++result.nodes[i].brownouts;
        obs_.brownouts->inc();
        obs::emit(obs::EventKind::Brownout, static_cast<int>(i),
                  last_route.nodes[i].unmet.value());
        util::log_warn() << "node " << i << " brownout: "
                         << last_route.nodes[i].unmet.value() << " W unmet";
        for (VmRecord& r : vms_) {
          if (r.host == i) r.vm.pause();
        }
      } else if (!srv.powered_on() && in_window &&
                 batteries_[i].soc() >=
                     std::max(cfg_.brownout_restart_soc,
                              discharge_floor_.empty() ? 0.0
                                                       : discharge_floor_[i] + 0.05)) {
        srv.power_on();
        obs::emit(obs::EventKind::NodeRestart, static_cast<int>(i), batteries_[i].soc());
        for (VmRecord& r : vms_) {
          if (r.host == i) r.vm.resume();
        }
      }
    }

    // --- telemetry ---------------------------------------------------------------
    // Sense every node, invert every voltage in one batch, then record each
    // reading into both of its tables with the shared inversion.
    {
      std::optional<obs::ScopedTimer> timer;
      if (telemetry_ns != nullptr) timer.emplace(*telemetry_ns);
      for (std::size_t i = 0; i < cfg_.nodes; ++i) {
        readings_[i] = sensors_[i].read(batteries_[i], last_route.nodes[i].battery_current, now);
        if (injector_ != nullptr) readings_[i] = injector_->perturb_reading(i, readings_[i]);
      }
      telemetry::voltage_soc_batch(table_params_, readings_, voltage_soc_);
      for (std::size_t i = 0; i < cfg_.nodes; ++i) {
        life_tables_[i].record(readings_[i], cfg_.dt, voltage_soc_[i]);
        day_tables_[i].record(readings_[i], cfg_.dt, voltage_soc_[i]);
      }
    }

    // --- work grants ----------------------------------------------------------------
    for (VmRecord& r : vms_) {
      const server::Server& srv = servers_[r.host];
      if (!srv.powered_on()) continue;
      r.vm.grant(r.last_util, srv.freq_factor(), cfg_.dt);
    }

    // --- observer ---------------------------------------------------------------
    if (observer_) {
      TickObservation obs;
      obs.time_of_day = util::Seconds{tod};
      obs.solar = solar_now;
      double total_demand = 0.0;
      for (const util::Watts& d : demands_) total_demand += d.value();
      obs.total_demand = util::Watts{total_demand};
      obs.route = &last_route;
      obs.batteries = &batteries_;
      obs.day_tables = &day_tables_;
      observer_(obs);
    }

    // --- per-tick stats ----------------------------------------------------------------
    result.meter.add(last_route, cfg_.dt);
    for (std::size_t i = 0; i < cfg_.nodes; ++i) {
      const double soc = batteries_[i].soc();
      soc_min[i] = std::min(soc_min[i], soc);
      result.soc_histogram.add(soc * 100.0, dt);
      if (soc < 0.40) {
        result.nodes[i].low_soc_time += cfg_.dt;
        obs_.low_soc_ticks->inc();
        if (!node_low_soc_[i]) {
          node_low_soc_[i] = true;
          obs::emit(obs::EventKind::LowSocEnter, static_cast<int>(i), soc);
        }
      } else if (node_low_soc_[i]) {
        node_low_soc_[i] = false;
        obs::emit(obs::EventKind::LowSocExit, static_cast<int>(i), soc);
      }
      if (soc < 0.15) {
        result.nodes[i].critical_soc_time += cfg_.dt;
        obs_.critical_soc_ticks->inc();
      }
      if (in_window && !servers_[i].powered_on()) result.nodes[i].downtime += cfg_.dt;
    }
  }

  // In case the loop ended with the window still open (day_end == 24 h).
  if (window_open) {
    for (VmRecord& r : vms_) {
      result.throughput_work += r.vm.progress_work();
      if (r.vm.state() == workload::VmState::Finished) ++result.jobs_finished;
      servers_[r.host].detach(r.vm.id());
    }
    vms_.clear();
    pending_jobs_.clear();
    for (auto& s : servers_) s.power_off();
  }

  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    NodeDayStats& n = result.nodes[i];
    n.metrics_day = telemetry::compute_metrics(day_tables_[i], cfg_.metrics);
    n.metrics_life = telemetry::compute_metrics(life_tables_[i], cfg_.metrics);
    n.soc_min = soc_min[i];
    n.soc_end = batteries_[i].soc();
    n.health = batteries_[i].health();
    n.ah_discharged = day_tables_[i].ah_discharged();

    obs_.node_soc[i]->set(n.soc_end);
    obs_.node_health[i]->set(n.health);
    if (batteries_[i].end_of_life() && !node_eol_seen_[i]) {
      node_eol_seen_[i] = true;
      obs::emit(obs::EventKind::BatteryEol, static_cast<int>(i), n.health);
      util::log_warn() << "node " << i << " battery reached end of life (health "
                       << n.health << ")";
    }
  }

  watchdog_.check_day_end(day_counter_, result, batteries_);

  obs_.days_run->inc();
  obs::emit(obs::EventKind::DayEnd, -1, result.throughput_work);
  ++day_counter_;
  util::set_sim_time(static_cast<double>(day_counter_) * 86400.0);
  return result;
}

}  // namespace baat::sim
