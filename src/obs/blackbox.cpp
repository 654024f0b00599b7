#include "obs/blackbox.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace baat::obs {

namespace fs = std::filesystem;

std::string write_blackbox_bundle(const std::string& parent_dir, long day,
                                  const std::vector<BlackboxFile>& files) {
  const fs::path parent = parent_dir.empty() ? fs::path{"."} : fs::path{parent_dir};
  const fs::path final_dir = parent / ("blackbox-" + std::to_string(day));
  // Unique per call so two dumps racing (signal during dump) cannot collide.
  static std::atomic<unsigned> g_seq{0};
  const fs::path tmp_dir =
      parent / ("blackbox-" + std::to_string(day) + ".tmp-" +
                std::to_string(g_seq.fetch_add(1, std::memory_order_relaxed)));

  std::error_code ec;
  fs::remove_all(tmp_dir, ec);
  fs::create_directories(tmp_dir, ec);
  if (ec) {
    throw std::runtime_error("blackbox: cannot create " + tmp_dir.string() + ": " +
                             ec.message());
  }
  for (const BlackboxFile& f : files) {
    std::ofstream out(tmp_dir / f.name, std::ios::binary | std::ios::trunc);
    out.write(f.content.data(), static_cast<std::streamsize>(f.content.size()));
    if (!out) {
      throw std::runtime_error("blackbox: cannot write " + (tmp_dir / f.name).string());
    }
  }
  // Publish: drop any stale bundle, then one rename makes the new one
  // visible complete-or-not-at-all.
  fs::remove_all(final_dir, ec);
  fs::rename(tmp_dir, final_dir, ec);
  if (ec) {
    throw std::runtime_error("blackbox: cannot publish " + final_dir.string() + ": " +
                             ec.message());
  }
  return final_dir.string();
}

namespace {

struct HookEntry {
  std::thread::id owner;
  const std::function<void(const char*)>* hook;
};

std::mutex g_hooks_mu;
std::vector<HookEntry> g_hooks;  // registration order
std::atomic<bool> g_dumping{false};

void run_dump_hook(const char* reason) noexcept {
  // One dump per process: a crash inside the dump must not recurse.
  if (g_dumping.exchange(true)) return;
  try {
    // The lock may be held by the thread that crashed; give up rather than
    // deadlock a dying process.
    std::unique_lock<std::mutex> lock(g_hooks_mu, std::try_to_lock);
    if (!lock.owns_lock() || g_hooks.empty()) return;
    const std::thread::id self = std::this_thread::get_id();
    auto it = std::find_if(g_hooks.rbegin(), g_hooks.rend(),
                           [self](const HookEntry& e) { return e.owner == self; });
    (*(it != g_hooks.rend() ? it->hook : g_hooks.back().hook))(reason);
  } catch (...) {
    // The process is dying; swallow so the original crash surfaces.
  }
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_with_dump() {
  run_dump_hook("uncaught exception (std::terminate)");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

void signal_with_dump(int sig) {
  run_dump_hook("fatal signal");
  // Restore default disposition and re-raise so the exit status (and any
  // core dump) is what the crash would have produced anyway.
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

CrashDumpHook::CrashDumpHook(std::function<void(const char* reason)> hook)
    : hook_(std::move(hook)) {
  std::lock_guard<std::mutex> lock(g_hooks_mu);
  g_hooks.push_back({std::this_thread::get_id(), &hook_});
}

CrashDumpHook::~CrashDumpHook() {
  std::lock_guard<std::mutex> lock(g_hooks_mu);
  g_hooks.erase(std::find_if(g_hooks.begin(), g_hooks.end(),
                             [this](const HookEntry& e) { return e.hook == &hook_; }));
}

void install_crash_handlers() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  g_prev_terminate = std::set_terminate(terminate_with_dump);
  std::signal(SIGSEGV, signal_with_dump);
  std::signal(SIGFPE, signal_with_dump);
  std::signal(SIGABRT, signal_with_dump);
#ifdef SIGBUS
  std::signal(SIGBUS, signal_with_dump);
#endif
}

}  // namespace baat::obs
