//===- detect/Detection.h - Detection orchestration -------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a synthesized multithreaded test through the full detector stack,
/// mirroring the paper's §5 protocol (Table 5):
///
///  1. execute the test under several random schedules with the
///     happens-before and lockset detectors attached; the union of their
///     reports (deduplicated by static label pair) is the set of *detected*
///     races;
///  2. each detected race is handed to the RaceFuzzer-style confirmation
///     scheduler, which tries to *reproduce* it by pausing one thread at
///     the access;
///  3. every reproduced race is run in both access orders; differing final
///     heap states, faults or deadlocks classify it *harmful*, identical
///     states *benign* (e.g. racy writes of identical constant values —
///     the paper's C6 reset() pattern).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_DETECTION_H
#define NARADA_DETECT_DETECTION_H

#include "detect/RaceReport.h"
#include "explore/Explorer.h"
#include "explore/ScheduleTrace.h"
#include "runtime/Execution.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace narada {

namespace detectworker {
struct DetectIsolateContext;
} // namespace detectworker

/// How phase 1 chooses the schedules it runs (see src/explore/).
enum class ExplorationMode {
  Random,     ///< RandomRuns executions under RandomPolicy (the default).
  PCT,        ///< RandomRuns executions under PCTPolicy.
  Systematic, ///< Bounded DFS via explore::exploreSchedules; degrades to
              ///< the random loop when the schedule budget is hit before
              ///< the bounded space is exhausted.
  Replay,     ///< Exactly one execution of DetectOptions::ReplayTrace.
};

/// Parses "random" / "pct" / "systematic" / "replay"; false on anything
/// else (\p Mode untouched).
bool parseExplorationMode(const std::string &Name, ExplorationMode &Mode);
const char *explorationModeName(ExplorationMode Mode);

/// Options for the detection protocol.
struct DetectOptions {
  unsigned RandomRuns = 12;    ///< Random-schedule detection executions.
  unsigned ConfirmAttempts = 4; ///< Scheduler seeds tried per confirmation.
  uint64_t BaseSeed = 1;
  uint64_t MaxSteps = 400'000;
  bool UseHB = true;
  bool UseLockSet = true;
  /// Schedule source for phase 1.  Confirmation (phases 2 + 3) is
  /// identical in every mode.
  ExplorationMode Mode = ExplorationMode::Random;
  /// Budgets for Mode == Systematic.  MaxSteps/RandSeed in here are
  /// overridden from the fields above so budget escalation stays uniform.
  explore::ExploreOptions Explore;
  /// When non-empty, every race found in phase 1 emits a minimized,
  /// replayable witness trace file under this directory (all modes).
  std::string WitnessDir;
  /// The trace to execute when Mode == Replay.  Shared because
  /// DetectOptions is copied per worker; the trace is read-only.
  std::shared_ptr<const explore::ScheduleTrace> ReplayTrace;
  /// Watchdog budgets.  A run that exhausts its step budget is retried
  /// with an escalated budget (MaxSteps * StepBudgetEscalation^try) up to
  /// StepLimitRetries times; if the final retry still hits the ceiling the
  /// test is quarantined — never reported as a clean schedule.
  unsigned StepLimitRetries = 2;
  static constexpr uint64_t StepBudgetEscalation = 4; ///< Per-retry factor.
  /// Per-test wall-clock budget in seconds; exceeded => the test is
  /// quarantined with whatever results were already gathered.  0 disables
  /// the watchdog (the default: wall-clock cutoffs are inherently timing-
  /// dependent, so they are opt-in to keep default runs deterministic).
  double WallBudgetSeconds = 0.0;
};

/// The step budget of a replay: the fully escalated one, MaxSteps *
/// StepBudgetEscalation^StepLimitRetries, since the recorded run already
/// fit in some budget.  A replay takes one pick per step, so this is also
/// the most picks a trace read for it can hold.
uint64_t replayStepBudget(const DetectOptions &Options);

/// One race after confirmation and classification.
struct ConfirmedRace {
  RaceReport Report;
  bool Reproduced = false;
  bool Harmful = false; ///< Meaningful when Reproduced.
  uint64_t HashFirstOrder = 0;
  uint64_t HashSecondOrder = 0;
};

/// The detection outcome for one test.
struct TestDetectionResult {
  std::vector<RaceReport> Detected; ///< Deduplicated by key().
  std::vector<ConfirmedRace> Races; ///< One entry per detected race.
  bool SawFault = false;
  bool SawDeadlock = false;
  /// Some run hit its step ceiling (even if a budget-escalated retry then
  /// completed) — the schedule was NOT clean end to end.
  bool SawStepLimit = false;
  /// The test was pulled from the run: its step/wall budget was exhausted
  /// after retries, or its detection crashed (exception contained by
  /// detectRacesInTests).  Results gathered before quarantine are kept,
  /// but the test must not be counted as having run clean.
  bool Quarantined = false;
  std::string QuarantineReason; ///< Human-readable; empty when !Quarantined.
  /// Phase-1 schedule accounting: executions performed (random runs,
  /// systematic schedules, or the single replay) and, for Systematic,
  /// subtrees the DPOR/preemption-bound pruning discarded.
  unsigned SchedulesRun = 0;
  uint64_t SchedulesPruned = 0;
  /// Systematic mode covered its whole bounded space (no random fallback
  /// was needed).
  bool ExplorationExhausted = false;
  /// Witness trace files written for this test (sorted by race key).
  std::vector<std::string> WitnessFiles;

  unsigned reproducedCount() const;
  unsigned harmfulCount() const;
  unsigned benignCount() const;
};

/// Runs the full protocol on \p TestName.  \p Hints adds candidate label
/// pairs from the synthesizer even if no random schedule detected them.
Result<TestDetectionResult>
detectRacesInTest(const IRModule &M, const std::string &TestName,
                  const DetectOptions &Options = {},
                  const std::vector<std::pair<std::string, std::string>>
                      &Hints = {});

/// One unit of the parallel detection stage: a test and its synthesizer
/// hint pairs.
struct TestDetectJob {
  std::string TestName;
  std::vector<std::pair<std::string, std::string>> Hints;
};

/// Runs detectRacesInTest for every job as one unit of a UnitExecutor
/// (obs/UnitExecutor.h) with \p JobCount workers (1 = inline on the
/// calling thread, 0 = one per hardware thread).  Each test's schedule
/// exploration is an independent deterministic function of (module, test,
/// options) — the VM is rebuilt per run over the shared read-only module —
/// so results are returned in input order and are identical for every
/// JobCount.  On failure the first error in input order is returned.
///
/// When \p Iso is non-null and enabled, each job instead runs in a worker
/// subprocess (detect/DetectWorker.h); clean results are identical.
///
/// Fault containment: jobs run under fault::ScopedUnit(index).  A unit
/// fault — an exception escaping one test's detection (e.g. an injected
/// fault, see support/FaultInjection.h), or a hard fault (SIGSEGV, OOM
/// kill, hang) that took its worker process down — is committed as a
/// quarantined TestDetectionResult carrying the exception message or the
/// crash classification; every other test's results are unaffected and
/// the call still succeeds.
Result<std::vector<TestDetectionResult>>
detectRacesInTests(const IRModule &M, const std::vector<TestDetectJob> &Jobs,
                   const DetectOptions &Options = {}, unsigned JobCount = 1,
                   const detectworker::DetectIsolateContext *Iso = nullptr);

} // namespace narada

#endif // NARADA_DETECT_DETECTION_H
