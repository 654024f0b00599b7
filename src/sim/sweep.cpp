#include "sim/sweep.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <thread>

#include "snapshot/sections.hpp"
#include "util/sim_clock.hpp"

namespace baat::sim {

WorkerPool::WorkerPool(std::size_t workers) {
  if (workers <= 1) return;
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      n = n_;
    }
    while (true) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      (*fn)(i);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

void WorkerPool::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  active_ = threads_.size();
  ++generation_;
  cv_work_.notify_all();
  cv_done_.wait(lock, [&] { return active_ == 0; });
  fn_ = nullptr;
}

namespace {

void run_one(const SweepJob& job, std::size_t index, const SweepOptions& options,
             SweepResult& slot) {
  slot.index = index;
  slot.name = job.name;

  const bool checkpointing = !options.checkpoint_dir.empty();
  const std::string ckpt_path =
      checkpointing ? options.checkpoint_dir + "/" + job.name + ".ckpt"
                    : std::string();
  if (checkpointing && job.restore_result &&
      std::filesystem::exists(ckpt_path)) {
    // A valid per-job checkpoint means the job already ran to completion in
    // an earlier (interrupted) sweep: restore its result and skip the work.
    // Anything wrong with the file — truncation, CRC, version, config hash,
    // trailing bytes, the retired flat container — downgrades to a warning
    // and a normal re-run, which overwrites the bad file.
    try {
      snapshot::SectionFileReader in(ckpt_path, options.config_hash);
      const std::vector<std::uint8_t> payload = in.read_section();
      in.finish();
      snapshot::SnapshotReader r{payload};
      job.restore_result(r);
      if (!r.exhausted()) {
        throw snapshot::SnapshotError("checkpoint carries " +
                                      std::to_string(r.remaining()) +
                                      " trailing bytes");
      }
      slot.ok = true;
      slot.resumed = true;
      return;
    } catch (const std::exception& e) {
      std::cerr << "[checkpoint] ignoring '" << ckpt_path << "' (" << e.what()
                << "); re-running " << job.name << "\n";
    }
  }

  obs::TraceBuffer local_trace{options.trace_capacity};
  util::LogSink local_log = [&slot](util::LogLevel level, const std::string& line) {
    slot.log_lines.emplace_back(level, line);
  };
  {
    ObsSinkScope sinks{&slot.metrics, &local_trace, &local_log};
    try {
      job.work();
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
  }
  slot.trace = local_trace.events();

  if (slot.ok && checkpointing && job.save_result) {
    // Commit is atomic (write-then-rename) and each job owns a distinct
    // path, so concurrent workers never collide. A failed write (disk full,
    // permissions) costs the resume point, not the job's result.
    try {
      snapshot::SnapshotWriter w;
      job.save_result(w);
      snapshot::SectionFileWriter out(ckpt_path, options.config_hash, 1);
      out.append(w.bytes());
      out.commit();
    } catch (const std::exception& e) {
      std::cerr << "[checkpoint] could not write '" << ckpt_path << "': "
                << e.what() << "\n";
    }
  }
}

}  // namespace

std::size_t default_sweep_jobs() {
  if (const char* env = std::getenv("BAAT_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::vector<SweepResult> run_sweep(std::vector<SweepJob> jobs,
                                   const SweepOptions& options) {
  for (const SweepJob& job : jobs) {
    BAAT_REQUIRE(static_cast<bool>(job.work), "sweep job must have work");
  }
  BAAT_REQUIRE(options.trace_capacity > 0, "trace capacity must be positive");

  if (!options.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_dir, ec);
    if (ec) {
      throw snapshot::SnapshotError("cannot create checkpoint directory '" +
                                    options.checkpoint_dir + "': " + ec.message());
    }
  }

  const std::size_t n = jobs.size();
  std::vector<SweepResult> results(n);
  std::size_t workers = options.jobs > 0 ? options.jobs : default_sweep_jobs();
  if (workers > n) workers = n;

  // Each slot is written by exactly one worker and read only after run()
  // returns, so no synchronisation beyond the pool's own barrier is needed.
  WorkerPool pool{workers};
  pool.run(n, [&](std::size_t i) { run_one(jobs[i], i, options, results[i]); });

  if (options.merge_obs) {
    // Job-index order makes the merged exports independent of completion
    // order and worker count.
    obs::Registry& registry = obs::global_registry();
    obs::TraceBuffer& trace = obs::global_trace();
    for (const SweepResult& r : results) {
      registry.merge(r.metrics);
      for (const obs::TraceEvent& e : r.trace) trace.push(e);
      for (const auto& [level, line] : r.log_lines) {
        util::emit_log_line(level, line);
      }
    }
  }
  return results;
}

}  // namespace baat::sim
