//===- support/ProcessPool.h - Crash-isolated worker pool -------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fork/exec supervisor that shards work units across crash-isolated
/// worker subprocesses — the hard-fault counterpart to the in-process
/// exception barriers (docs/ROBUSTNESS.md): a SIGSEGV, abort(), OOM kill
/// or runaway loop inside one unit costs exactly that unit, never the
/// supervising process or any other unit's result.
///
/// Protocol (src/support/Wire.h): each worker is an exec'd subprocess
/// speaking length-prefixed record frames over its stdin/stdout pipes.
/// A fresh worker receives one `setup` frame (and must answer `ready`)
/// before unit frames; each `unit` frame is answered by exactly one
/// `result` or `crash` frame.  Workers additionally emit `hb` heartbeat
/// frames from a monitor thread so the supervisor can distinguish a slow
/// unit (deadline watchdog applies) from a wedged or silently-dead worker
/// (heartbeat watchdog applies).
///
/// Containment mechanics:
///  - RLIMIT_CPU / RLIMIT_AS are applied between fork and exec, so a
///    runaway or leaking unit is bounded by the kernel, not by trust;
///  - every worker death is classified — {signal+name, timeout, oom,
///    protocol-error, spawn-failure} — by waitpid status plus protocol
///    state, and the classification lands in the unit's outcome;
///  - a worker death triggers a bounded respawn with exponential backoff
///    and the in-flight unit is re-dispatched exactly once: a unit that
///    kills two workers is poisoned (quarantined), not retried — the
///    fault is assumed deterministic, like every other per-unit outcome;
///  - outcomes are keyed by unit index, so callers commit results in
///    canonical order regardless of which worker ran what when.
///
/// Layering: this lives in narada_support, *below* narada_obs, so it
/// reports statistics through PoolStats; its pipeline caller, UnitExecutor
/// (obs/UnitExecutor.h), publishes those as `pool.*` metrics.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_PROCESSPOOL_H
#define NARADA_SUPPORT_PROCESSPOOL_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace narada {
namespace pool {

/// How a work unit's worker came to grief.
enum class CrashKind {
  None,          ///< The unit completed (a result frame arrived).
  Signal,        ///< Worker terminated by a signal (SIGSEGV, SIGABRT, ...).
  Timeout,       ///< Killed by the supervisor's wall-deadline or heartbeat
                 ///< watchdog, or by RLIMIT_CPU (SIGXCPU/SIGKILL).
  Oom,           ///< Allocation failure under RLIMIT_AS: either a graceful
                 ///< `crash kind=oom` frame (worker caught std::bad_alloc)
                 ///< or an OOM kill.
  ProtocolError, ///< Garbled frame, unexpected verb, or clean exit without
                 ///< answering the in-flight unit.
  SpawnFailure,  ///< No worker could be (re)spawned to run the unit.
};

/// Stable lower-case name of \p K ("signal", "timeout", "oom", ...).
const char *crashKindName(CrashKind K);

struct UnitOutcome;

/// Quarantine message for a hard-faulted unit: "hard fault: <kind>:
/// <detail>" plus partial-output / poison annotations.  Shared by the
/// synth and detect stages so crash records read the same everywhere.
std::string describeCrash(const UnitOutcome &O);

/// Exponential backoff before respawning a crashed worker:
/// base * 2^(respawn-1) milliseconds, capped.
constexpr double RespawnBackoffBaseMs = 10.0;
constexpr double RespawnBackoffCapMs = 500.0;

/// Caller-facing isolation configuration: what the CLI's --isolate /
/// --worker-* flags (and the NARADA_ISOLATE env hook) select, threaded
/// through NaradaOptions and the detect stage to wherever a pool is built.
struct IsolateOptions {
  bool Enabled = false;
  /// Worker executable (normally the running narada-cli binary itself,
  /// re-exec'd in `worker` mode).
  std::string WorkerExe;
  /// Per-unit wall deadline in seconds (0 = none); contains :hang faults:
  /// a unit not answered in time has its worker killed and is classified
  /// Timeout.
  double UnitDeadlineSeconds = 60.0;
  /// --worker-cpu-limit: RLIMIT_CPU per worker in seconds (0 = inherit).
  uint64_t WorkerCpuLimitSeconds = 0;
  /// --worker-mem-limit: RLIMIT_AS per worker in MiB (0 = inherit).
  uint64_t WorkerMemLimitMb = 0;
};

/// The outcome of one work unit.
struct UnitOutcome {
  bool Ok = false;          ///< A `result` frame arrived; Payload is valid.
  std::string Payload;      ///< The result frame's payload (when Ok).
  CrashKind Crash = CrashKind::None;
  std::string CrashDetail;  ///< Human-readable classification detail.
  int TermSignal = 0;       ///< Terminating signal (CrashKind::Signal).
  bool RlimitCpuHit = false; ///< Death consistent with RLIMIT_CPU expiry.
  bool PartialOutput = false; ///< Worker died mid-frame (response lost).
  unsigned WorkerDeaths = 0; ///< Workers this unit killed (poison rule).
  uint64_t Micros = 0;      ///< Dispatch-to-outcome wall time.
};

/// Aggregate statistics across a pool's lifetime; callers publish these
/// as `pool.*` metrics.
struct PoolStats {
  uint64_t WorkersSpawned = 0;
  uint64_t WorkersRespawned = 0;
  uint64_t WorkersCrashed = 0;   ///< Signal deaths (incl. OOM kills).
  uint64_t WorkersTimedOut = 0;  ///< Deadline/heartbeat watchdog kills.
  uint64_t UnitsDispatched = 0;
  uint64_t UnitsRedispatched = 0;
  uint64_t UnitsPoisoned = 0;    ///< Quarantined by the poison-task rule.
  uint64_t BackoffWaits = 0;
  double BackoffMsTotal = 0.0;
};

/// The supervisor.  Not thread-safe: one owner drives run() calls; the
/// workers themselves provide the parallelism.
class ProcessPool {
public:
  /// \p Workers concurrent `<Isolate.WorkerExe> worker` subprocesses, each
  /// sent \p SetupPayload as its `setup` frame when it starts.
  ProcessPool(const IsolateOptions &Isolate, unsigned Workers,
              std::string SetupPayload);
  ~ProcessPool();
  ProcessPool(const ProcessPool &) = delete;
  ProcessPool &operator=(const ProcessPool &) = delete;

  /// Executes one request payload per unit and returns outcomes in unit
  /// order.  Workers persist across calls (their setup survives), so
  /// callers may run several rounds against the same pool.
  std::vector<UnitOutcome> run(const std::vector<std::string> &Units);

  const PoolStats &stats() const { return Stats; }

private:
  struct Impl;
  std::unique_ptr<Impl> P;
  PoolStats Stats;
};

/// Absolute path of the running executable (/proc/self/exe), or
/// \p Fallback when unavailable.
std::string currentExecutablePath(const std::string &Fallback = "");

} // namespace pool
} // namespace narada

#endif // NARADA_SUPPORT_PROCESSPOOL_H
