#pragma once

// Crash flight recorder (DESIGN.md §5g): when a run dies — watchdog trip,
// uncaught exception, fatal signal — the last-N trace ring, the metrics
// registry, the ledger rollups and (at a day boundary) a snapshot are
// dumped into a `blackbox-<day>/` bundle for post-mortem analysis with
// tools/blackbox_dump.py.
//
// This layer is content-agnostic: the sim layer assembles the bundle files
// (it knows about clusters and ledgers); this writer only guarantees the
// bundle appears atomically — everything is written into a temporary
// directory that one rename() publishes, so a half-written bundle is never
// observable under the final name.

#include <functional>
#include <string>
#include <vector>

namespace baat::obs {

/// One file of a flight-recorder bundle.
struct BlackboxFile {
  std::string name;     ///< file name inside the bundle (no directories)
  std::string content;  ///< raw bytes
};

/// Atomically materialize `blackbox-<day>/` under `parent_dir` (empty =
/// current directory) containing `files`. An existing bundle of the same
/// name is replaced. Returns the bundle path; throws std::runtime_error on
/// I/O failure.
std::string write_blackbox_bundle(const std::string& parent_dir, long day,
                                  const std::vector<BlackboxFile>& files);

/// Registers a crash dump hook for the lifetime of the object. The hook
/// must be safe to call once from a dying process: write the bundle, touch
/// nothing else. Registration is thread-safe, so concurrent day loops (the
/// points of a parallel sweep) each hold their own. On a crash the hook
/// registered by the crashing thread runs; a crash on a thread that holds
/// none (a shard worker) runs the most recently registered hook.
class CrashDumpHook {
 public:
  explicit CrashDumpHook(std::function<void(const char* reason)> hook);
  ~CrashDumpHook();
  CrashDumpHook(const CrashDumpHook&) = delete;
  CrashDumpHook& operator=(const CrashDumpHook&) = delete;

 private:
  std::function<void(const char* reason)> hook_;
};

/// Install fatal-signal (SIGSEGV/SIGBUS/SIGFPE/SIGABRT) and std::terminate
/// handlers that run the dump hook, then hand the crash back to the default
/// behavior so exit codes and cores are preserved. Idempotent. Writing
/// files from a signal handler is formally unsafe; a flight recorder takes
/// that best-effort trade knowingly — the process is already dead.
void install_crash_handlers();

}  // namespace baat::obs
