//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named fault-injection probe sites threaded through the pipeline, so
/// tests can force a failure at any stage and assert the pipeline degrades
/// to a structured skip/quarantine instead of aborting.
///
/// A probe site is a string like "synth.derive" placed at a containment
/// boundary.  Probes are keyed by the *logical work unit* (canonical pair
/// index in the synthesis stage, test index in the detection stage), not by
/// temporal hit order: workers enter a fault::ScopedUnit before touching a
/// unit, and an armed probe fires exactly when its site is reached inside
/// the armed unit.  That makes injection deterministic for every --jobs
/// value — the same pair faults no matter which worker picks it up.
///
/// Arming: programmatic (fault::arm) or via the environment,
///
///   NARADA_FAULT_INJECT=<site>:<unit>[:throw|:timeout|:crash|:segv|:hang|:oom]
///
/// "throw" (default) makes the probe raise fault::InjectedFault, which the
/// exception barriers in ParallelDriver / detectRacesInTests convert into
/// an internal_fault skip or a quarantined test.  "timeout" makes the
/// matching timeoutProbe() report a simulated step-budget blowout, which
/// exercises the retry-then-quarantine watchdog path.  The hard modes
/// (crash/segv/hang/oom) kill or wedge the process for real; they test the
/// ProcessPool supervisor's containment and must only be armed under
/// --isolate (in-process, they do exactly what they say).
///
/// Probes are no-ops when nothing is armed apart from registering their
/// site (one mutex-guarded map touch at pair/test granularity — far off
/// every hot path), so the sweep test can enumerate every site a clean run
/// crosses via throwSites()/timeoutSites().
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_FAULTINJECTION_H
#define NARADA_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace narada {
namespace fault {

/// The exception an armed throw-mode probe raises.  Derives from
/// std::runtime_error so generic barriers (catch std::exception) contain it
/// without knowing about injection.
class InjectedFault : public std::runtime_error {
public:
  explicit InjectedFault(const std::string &What)
      : std::runtime_error(What) {}
};

/// What an armed probe does when it fires.  Throw and Timeout are the
/// soft modes contained by in-process barriers; the hard modes genuinely
/// take the process down (or hang it) and exist to exercise out-of-process
/// containment — fire them only inside an isolated worker (--isolate).
enum class Mode {
  Throw,   ///< probe() raises InjectedFault.
  Timeout, ///< timeoutProbe() returns true (simulated step-budget blowout).
  Crash,   ///< probe() calls abort(): SIGABRT, no unwinding, no cleanup.
  Segv,    ///< probe() raises SIGSEGV, as a wild pointer write would.
  Hang,    ///< probe() sleeps forever: the supervisor's wall-deadline
           ///< watchdog is the only way out.
  Oom,     ///< probe() exhausts memory: under a finite RLIMIT_AS it
           ///< allocates-and-touches until the real std::bad_alloc escapes;
           ///< without a limit it throws std::bad_alloc directly (so
           ///< in-process runs don't dirty all of RAM).
};

/// Arms injection: the probe at \p Site fires when reached inside logical
/// unit \p Unit.  Replaces any previous arming (one site at a time — the
/// sweep iterates).
void arm(std::string Site, uint64_t Unit, Mode M = Mode::Throw);

/// Disarms injection; probes return to no-ops.
void disarm();

/// True when a site is armed.
bool armed();

/// Parses and arms a "<site>:<unit>[:throw|:timeout]" spec.  Returns false
/// (leaving the armed state untouched, \p Why set when non-null) on
/// malformed input.
bool armFromSpec(const std::string &Spec, std::string *Why = nullptr);

/// Declares the logical unit the current thread is working on (RAII;
/// restores the previous unit on destruction, so scopes nest).  Probes
/// only fire inside a unit scope.
class ScopedUnit {
public:
  explicit ScopedUnit(uint64_t Unit);
  ~ScopedUnit();
  ScopedUnit(const ScopedUnit &) = delete;
  ScopedUnit &operator=(const ScopedUnit &) = delete;

private:
  std::optional<uint64_t> Previous;
};

/// The current thread's logical unit, if inside a ScopedUnit.
std::optional<uint64_t> currentUnit();

/// A throw-mode probe: registers \p Site and fires when \p Site is armed
/// in any non-Timeout mode and the current unit matches — raising
/// InjectedFault (Throw) or executing the armed hard fault
/// (Crash/Segv/Hang/Oom; see Mode).
void probe(const char *Site);

/// A timeout-mode probe: registers \p Site and returns true when \p Site
/// is armed in Mode::Timeout and the current unit matches.  The caller
/// simulates a step-budget/watchdog expiry for the unit.
bool timeoutProbe(const char *Site);

/// Every throw-mode site some probe() call has registered, sorted.
std::vector<std::string> throwSites();

/// Every timeout-mode site some timeoutProbe() call has registered, sorted.
std::vector<std::string> timeoutSites();

/// Total probe hits at \p Site (0 when never reached).
uint64_t hitCount(const std::string &Site);

/// The smallest logical unit \p Site has been reached under, if any —
/// the sweep test injects there so every site is exercisable.
std::optional<uint64_t> minUnitOf(const std::string &Site);

/// Drops all registered sites and hit counts (test isolation; does not
/// touch the armed state).
void resetRegistry();

} // namespace fault

/// Renders the exception held by \p E ("<message>" for std::exception,
/// a fixed string otherwise) for skip/quarantine records.
std::string describeException(std::exception_ptr E);

} // namespace narada

#endif // NARADA_SUPPORT_FAULTINJECTION_H
