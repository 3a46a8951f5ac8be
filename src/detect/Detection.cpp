//===- detect/Detection.cpp - Detection orchestration --------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/Detection.h"

#include "detect/DetectWorker.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "detect/RaceConfirmer.h"
#include "explore/Explorer.h"
#include "explore/WitnessMinimizer.h"
#include "obs/Log.h"
#include "obs/Span.h"
#include "obs/UnitExecutor.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <map>
#include <optional>
#include <set>

using namespace narada;

bool narada::parseExplorationMode(const std::string &Name,
                                  ExplorationMode &Mode) {
  if (Name == "random")
    Mode = ExplorationMode::Random;
  else if (Name == "pct")
    Mode = ExplorationMode::PCT;
  else if (Name == "systematic")
    Mode = ExplorationMode::Systematic;
  else if (Name == "replay")
    Mode = ExplorationMode::Replay;
  else
    return false;
  return true;
}

const char *narada::explorationModeName(ExplorationMode Mode) {
  switch (Mode) {
  case ExplorationMode::Random:
    return "random";
  case ExplorationMode::PCT:
    return "pct";
  case ExplorationMode::Systematic:
    return "systematic";
  case ExplorationMode::Replay:
    return "replay";
  }
  narada_unreachable("unknown exploration mode");
}

unsigned TestDetectionResult::reproducedCount() const {
  unsigned N = 0;
  for (const ConfirmedRace &R : Races)
    if (R.Reproduced)
      ++N;
  return N;
}

unsigned TestDetectionResult::harmfulCount() const {
  unsigned N = 0;
  for (const ConfirmedRace &R : Races)
    if (R.Reproduced && R.Harmful)
      ++N;
  return N;
}

unsigned TestDetectionResult::benignCount() const {
  unsigned N = 0;
  for (const ConfirmedRace &R : Races)
    if (R.Reproduced && !R.Harmful)
      ++N;
  return N;
}

namespace {

/// The passive detectors of one execution: HB and LockSet, each attached
/// per Options.UseHB / UseLockSet.  Built fresh for every execution, so a
/// retried or replayed run starts from clean detector state.  The set is
/// the VM's observer and calls the detectors directly, one virtual call
/// per event.
class DetectorSet final : public ExecutionObserver {
public:
  explicit DetectorSet(const DetectOptions &Options)
      : UseHB(Options.UseHB), UseLockSet(Options.UseLockSet) {}
  DetectorSet(const DetectorSet &) = delete;
  DetectorSet &operator=(const DetectorSet &) = delete;

  void onEvent(const TraceEvent &Event) override {
    if (UseHB)
      HB.onEvent(Event);
    if (UseLockSet)
      LockSet.onEvent(Event);
  }

  /// Calls \p Note on every reported race, HB's before LockSet's, so the
  /// first report per race key is HB's whenever both detectors saw it.
  template <typename NoteFn> void forEachRace(NoteFn Note) const {
    for (const RaceReport &R : HB.races())
      Note(R);
    for (const RaceReport &R : LockSet.races())
      Note(R);
  }

private:
  HBDetector HB;
  LockSetDetector LockSet;
  bool UseHB, UseLockSet;
};

/// Hashes the values flowing through the two candidate accesses.  A racy
/// *read* does not change the heap, but the value it observes depends on
/// the access order — h2's getCurrentValue() race is harmful precisely
/// because concurrent readers see torn sequence states.  This observer
/// captures that order-sensitivity.
class AccessValueHasher : public ExecutionObserver {
public:
  AccessValueHasher(const std::string &LabelA, const std::string &LabelB)
      : MatchA(LabelA), MatchB(LabelB) {}

  void onEvent(const TraceEvent &Event) override {
    if (!Event.isAccess())
      return;
    if (!MatchA.matches(Event.Func, Event.Pc) &&
        !MatchB.matches(Event.Func, Event.Pc))
      return;
    mix(static_cast<uint64_t>(Event.Val.kind()));
    if (Event.Val.isInt())
      mix(static_cast<uint64_t>(Event.Val.asInt()));
    else if (Event.Val.isBool())
      mix(Event.Val.asBool() ? 1 : 0);
    else if (Event.Val.isRef())
      mix(Event.Val.asRef());
  }

  uint64_t hash() const { return Hash; }

private:
  void mix(uint64_t V) {
    for (int Shift = 0; Shift < 64; Shift += 8) {
      Hash ^= (V >> Shift) & 0xff;
      Hash *= 0x100000001b3ULL;
    }
  }

  LabelMatcher MatchA;
  LabelMatcher MatchB;
  uint64_t Hash = 0xcbf29ce484222325ULL;
};

/// One confirmation execution; returns the policy (confirmed or not) plus
/// the run outcome.
struct ConfirmRun {
  bool Confirmed = false;
  RaceReport Report;
  uint64_t HeapHash = 0;
  uint64_t ObservedHash = 0; ///< Values seen at the racy accesses.
  bool Faulted = false;
  bool Deadlocked = false;
  bool HitStepLimit = false; ///< Ran into its step budget (see retries).
};

Result<ConfirmRun> runConfirm(const IRModule &M, const std::string &TestName,
                              const std::string &LabelA,
                              const std::string &LabelB, uint64_t Seed,
                              bool SecondFirst, uint64_t MaxSteps) {
  obs::Span ScheduleSpan("schedule");
  obs::MetricsRegistry::global().counter("detect.schedules_explored").inc();
  obs::MetricsRegistry::global().counter("detect.confirm_runs").inc();
  fault::probe("detect.confirm");
  if (fault::timeoutProbe("detect.confirm.steps")) {
    // Simulated watchdog expiry: report a step-limited, unconfirmed run
    // without executing, so tests can drive the retry/quarantine path.
    ConfirmRun Out;
    Out.HitStepLimit = true;
    return Out;
  }
  RaceConfirmPolicy Policy(LabelA, LabelB, Seed, SecondFirst);
  AccessValueHasher Hasher(LabelA, LabelB);
  Result<TestRun> Run = runTest(M, TestName, Policy, /*RandSeed=*/1, &Hasher,
                                MaxSteps);
  if (!Run)
    return Run.error();
  ConfirmRun Out;
  Out.Confirmed = Policy.confirmed();
  if (Out.Confirmed)
    Out.Report = Policy.confirmedRace();
  Out.HeapHash = Run->HeapHash;
  Out.ObservedHash = Hasher.hash();
  Out.Faulted = Run->Result.Faulted;
  Out.Deadlocked = Run->Result.Deadlocked;
  Out.HitStepLimit = Run->Result.HitStepLimit;
  return Out;
}

/// The escalated step budget for retry \p Try (0 = first attempt).
uint64_t escalatedBudget(const DetectOptions &Options, unsigned Try) {
  uint64_t Budget = Options.MaxSteps;
  for (unsigned I = 0; I < Try; ++I)
    Budget *= DetectOptions::StepBudgetEscalation;
  return Budget;
}

/// Marks \p Out quarantined with \p Reason (first reason wins) and counts
/// it; detection results gathered so far stay attached.
void quarantine(TestDetectionResult &Out, const std::string &TestName,
                std::string Reason) {
  if (Out.Quarantined)
    return;
  Out.Quarantined = true;
  Out.QuarantineReason = std::move(Reason);
  obs::MetricsRegistry::global().counter("detect.quarantined").inc();
  NARADA_LOG_WARN("quarantined test %s: %s", TestName.c_str(),
                  Out.QuarantineReason.c_str());
}

/// The watchdog's retry ladder, shared by every step-limited execution:
/// calls \p Attempt(Budget) with an escalating budget until an attempt
/// finishes inside it or Options.StepLimitRetries retries are spent.  Each
/// step-limited attempt latches Out.SawStepLimit and counts
/// detect.step_limit_runs; each retry counts detect.retries.  When even the
/// last budget is exhausted, \p Out is quarantined — a runaway run never
/// passes for a clean one — and the returned attempt still has
/// HitStepLimit set.  \p What names the run in the quarantine reason.
template <typename AttemptFn>
auto runWithRetries(const DetectOptions &Options, const std::string &TestName,
                    const std::string &What, TestDetectionResult &Out,
                    AttemptFn Attempt) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  for (unsigned Try = 0;; ++Try) {
    auto Run = Attempt(escalatedBudget(Options, Try));
    if (!Run || !Run->HitStepLimit)
      return Run;
    Out.SawStepLimit = true;
    Metrics.counter("detect.step_limit_runs").inc();
    if (Try >= Options.StepLimitRetries) {
      quarantine(Out, TestName,
                 formatString("%s exceeded its step budget (%llu steps "
                              "after %u retries)",
                              What.c_str(),
                              static_cast<unsigned long long>(
                                  escalatedBudget(Options, Try)),
                              Try));
      return Run;
    }
    Metrics.counter("detect.retries").inc();
    NARADA_LOG_DEBUG("%s of %s hit step budget %llu, retrying",
                     What.c_str(), TestName.c_str(),
                     static_cast<unsigned long long>(
                         escalatedBudget(Options, Try)));
  }
}

} // namespace

Result<TestDetectionResult> narada::detectRacesInTest(
    const IRModule &M, const std::string &TestName,
    const DetectOptions &Options,
    const std::vector<std::pair<std::string, std::string>> &Hints) {
  obs::Span TestSpan("test");
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Metrics.counter("detect.tests_run").inc();
  fault::probe("detect.test");

  TestDetectionResult Out;
  std::map<std::string, RaceReport> ByKey;

  // Watchdog: per-test wall-clock budget (0 = unlimited), checked at run
  // boundaries — a runaway single run is bounded by the step budget below.
  // Quarantines the test once the budget is spent.
  Timer Wall;
  auto WallExpired = [&] {
    if (Options.WallBudgetSeconds <= 0.0 ||
        Wall.seconds() <= Options.WallBudgetSeconds)
      return false;
    quarantine(Out, TestName,
               formatString("wall-clock budget of %.3fs exceeded after %.3fs",
                            Options.WallBudgetSeconds, Wall.seconds()));
    return true;
  };

  // Phase 1: pick schedules per Options.Mode with the passive detectors
  // attached.  First-witness traces are kept per race key so witness
  // emission works uniformly across modes.
  const bool WantWitness = !Options.WitnessDir.empty();
  std::map<std::string, explore::ScheduleTrace> WitnessTraces;
  std::optional<Error> PhaseError;

  auto NoteRace = [&](const RaceReport &R,
                      const explore::ScheduleTrace &Trace) {
    if (!ByKey.emplace(R.key(), R).second || !WantWitness)
      return;
    explore::ScheduleTrace T = Trace;
    T.RaceKeys = {R.key()};
    WitnessTraces.emplace(R.key(), std::move(T));
  };

  // The randomized loop (modes Random and PCT, and the Systematic
  // fallback).  Each run goes through the retry ladder, which quarantines
  // the test when even the last escalated budget is exhausted — a runaway
  // schedule must never pass for a clean one.  Returns false when the
  // caller must return immediately (either PhaseError is set or Out was
  // quarantined).
  auto runRandomPhase = [&]() -> bool {
    for (unsigned RunIdx = 0; RunIdx < Options.RandomRuns; ++RunIdx) {
      if (WallExpired())
        return false;
      obs::Span ScheduleSpan("schedule");
      Metrics.counter("detect.schedules_explored").inc();
      ++Out.SchedulesRun;
      fault::probe("detect.random_run");
      Result<RunResult> Run = runWithRetries(
          Options, TestName, formatString("random-schedule run %u", RunIdx),
          Out, [&](uint64_t Budget) -> Result<RunResult> {
            // Detectors and policy are rebuilt per attempt so a retry
            // replays the identical schedule, only with more budget.
            DetectorSet Detectors(Options);
            if (fault::timeoutProbe("detect.random.steps")) {
              RunResult Limited;
              Limited.HitStepLimit = true;
              return Limited;
            }
            RandomPolicy Random(Options.BaseSeed + RunIdx);
            PCTPolicy PCT(Options.BaseSeed + RunIdx);
            SchedulingPolicy &Inner =
                Options.Mode == ExplorationMode::PCT
                    ? static_cast<SchedulingPolicy &>(PCT)
                    : static_cast<SchedulingPolicy &>(Random);
            // Recording delegates every pick, so wrapping is transparent
            // to the inner policy's schedule.
            explore::RecordingPolicy Recorder(Inner);
            SchedulingPolicy &Policy =
                WantWitness ? static_cast<SchedulingPolicy &>(Recorder)
                            : Inner;
            Result<TestRun> Run = runTest(M, TestName, Policy,
                                          /*RandSeed=*/1,
                                          &Detectors, Budget);
            if (!Run)
              return Run.error();
            if (!Run->Result.HitStepLimit) {
              explore::ScheduleTrace Trace;
              if (WantWitness)
                Trace = Recorder.trace(TestName, /*RandSeed=*/1);
              Detectors.forEachRace(
                  [&](const RaceReport &R) { NoteRace(R, Trace); });
            }
            return std::move(Run->Result);
          });
      if (!Run) {
        PhaseError = Run.error();
        return false;
      }
      if (Run->HitStepLimit)
        return false;
      Out.SawFault = Out.SawFault || Run->Faulted;
      Out.SawDeadlock = Out.SawDeadlock || Run->Deadlocked;
    }
    return true;
  };

  // The bounded DFS (mode Systematic), degrading to the randomized loop
  // when the schedule budget was hit before the pruned space was covered.
  auto runSystematicPhase = [&]() -> bool {
    struct Visitor final : explore::ScheduleVisitor {
      const DetectOptions &Options;
      std::function<bool(const DetectorSet &, const explore::ScheduleTrace &,
                         const TestRun &)>
          End;
      std::optional<DetectorSet> Detectors;

      Visitor(const DetectOptions &Options, decltype(End) End)
          : Options(Options), End(std::move(End)) {}
      ExecutionObserver *beginSchedule(unsigned) override {
        Detectors.emplace(Options);
        return &*Detectors;
      }
      bool endSchedule(const explore::ScheduleTrace &Trace,
                       const TestRun &Run) override {
        return End(*Detectors, Trace, Run);
      }
    };
    Visitor V(Options, [&](const DetectorSet &Detectors,
                           const explore::ScheduleTrace &Trace,
                           const TestRun &Run) {
      Out.SawFault = Out.SawFault || Run.Result.Faulted;
      Out.SawDeadlock = Out.SawDeadlock || Run.Result.Deadlocked;
      if (Run.Result.HitStepLimit) {
        // A step-limited schedule is recorded (its prefix branches were
        // still expanded) but the test can no longer count as clean.
        Out.SawStepLimit = true;
        Metrics.counter("detect.step_limit_runs").inc();
      }
      Detectors.forEachRace([&](const RaceReport &R) { NoteRace(R, Trace); });
      return !WallExpired();
    });

    explore::ExploreOptions ExOpts = Options.Explore;
    // Keep the step budget and VM seed uniform with the randomized loop so
    // the two phases explore the same per-schedule universe.
    ExOpts.MaxSteps = Options.MaxSteps;
    ExOpts.RandSeed = 1;
    Result<explore::ExploreOutcome> Outcome =
        explore::exploreSchedules(M, TestName, ExOpts, V);
    if (!Outcome) {
      PhaseError = Outcome.error();
      return false;
    }
    Out.SchedulesRun += Outcome->SchedulesRun;
    Out.SchedulesPruned += Outcome->Pruned;
    Out.ExplorationExhausted = Outcome->Exhausted;
    if (WallExpired())
      return false;
    if (!Outcome->Exhausted) {
      // Budget ladder bottom: the bounded space was too large, fall back
      // to the randomized policies over what remains.
      Metrics.counter("explore.fallbacks").inc();
      NARADA_LOG_DEBUG("systematic exploration of %s hit its budget after "
                       "%u schedules; falling back to %u random runs",
                       TestName.c_str(), Outcome->SchedulesRun,
                       Options.RandomRuns);
      return runRandomPhase();
    }
    return true;
  };

  // Mode Replay: exactly one execution of the recorded trace.
  auto runReplayPhase = [&]() -> bool {
    if (!Options.ReplayTrace) {
      PhaseError = Error("replay mode requires a schedule trace");
      return false;
    }
    if (Options.ReplayTrace->TestName != TestName) {
      PhaseError = Error(formatString(
          "schedule trace was recorded for test '%s', not '%s'",
          Options.ReplayTrace->TestName.c_str(), TestName.c_str()));
      return false;
    }
    obs::Span ScheduleSpan("schedule");
    Metrics.counter("detect.schedules_explored").inc();
    Metrics.counter("explore.replays").inc();
    ++Out.SchedulesRun;
    DetectorSet Detectors(Options);
    explore::ReplayPolicy Policy(*Options.ReplayTrace);
    // Replays get the fully escalated budget up front: the recorded run
    // already fit in some budget, so there is nothing to ladder.
    Result<TestRun> Run =
        runTest(M, TestName, Policy, Options.ReplayTrace->RandSeed,
                &Detectors,
                escalatedBudget(Options, Options.StepLimitRetries));
    if (!Run) {
      PhaseError = Run.error();
      return false;
    }
    if (Policy.diverged())
      NARADA_LOG_WARN("replay of %s diverged from its recorded schedule "
                      "(trace from a different module or build?)",
                      TestName.c_str());
    Out.SawFault = Out.SawFault || Run->Result.Faulted;
    Out.SawDeadlock = Out.SawDeadlock || Run->Result.Deadlocked;
    Out.SawStepLimit = Out.SawStepLimit || Run->Result.HitStepLimit;
    Detectors.forEachRace(
        [&](const RaceReport &R) { ByKey.emplace(R.key(), R); });
    return true;
  };

  bool PhaseOk = false;
  switch (Options.Mode) {
  case ExplorationMode::Random:
  case ExplorationMode::PCT:
    PhaseOk = runRandomPhase();
    break;
  case ExplorationMode::Systematic:
    PhaseOk = runSystematicPhase();
    break;
  case ExplorationMode::Replay:
    PhaseOk = runReplayPhase();
    break;
  }
  if (!PhaseOk) {
    if (PhaseError)
      return *PhaseError;
    return Out; // Quarantined with partial results attached.
  }

  for (const auto &[Key, Report] : ByKey)
    Out.Detected.push_back(Report);
  Metrics.counter("detect.races_detected").inc(Out.Detected.size());
  NARADA_LOG_DEBUG("detect %s: %zu distinct races after %u phase-1 "
                   "schedules",
                   TestName.c_str(), Out.Detected.size(), Out.SchedulesRun);

  // Witness emission: minimize each race's first-witness schedule to a
  // minimal preemption set, then write it as a replayable trace file.
  // WitnessTraces is a sorted map and file names are derived from
  // (test, index), so output is deterministic and --jobs-independent.
  if (WantWitness && !WitnessTraces.empty()) {
    obs::Span WitnessSpan("witness");
    unsigned Index = 0;
    for (auto &[Key, Trace] : WitnessTraces) {
      // The oracle replays a relaxed segment candidate and hands back the
      // exact re-recorded schedule iff this race key still manifests.
      explore::MinimizeOracle Oracle =
          [&, &Key = Key, &Trace = Trace](
              const std::vector<explore::SegmentReplayPolicy::Segment>
                  &Candidate) -> std::optional<explore::ScheduleTrace> {
        DetectorSet Detectors(Options);
        explore::SegmentReplayPolicy Inner(Candidate);
        explore::RecordingPolicy Recorder(Inner);
        Result<TestRun> Run =
            runTest(M, TestName, Recorder, Trace.RandSeed,
                    &Detectors, Options.MaxSteps);
        if (!Run || Run->Result.HitStepLimit)
          return std::nullopt;
        bool Seen = false;
        Detectors.forEachRace(
            [&](const RaceReport &R) { Seen = Seen || R.key() == Key; });
        if (!Seen)
          return std::nullopt;
        return Recorder.trace(TestName, Trace.RandSeed);
      };
      explore::MinimizeOutcome Min = explore::minimizeWitness(Trace, Oracle);
      Metrics.counter("explore.minimized_steps").inc(Min.PreemptionsRemoved);
      std::string Path = formatString("%s/%s.w%u.trace",
                                      Options.WitnessDir.c_str(),
                                      TestName.c_str(), Index);
      ++Index;
      if (Status S = Min.Minimized.writeFile(Path); !S.ok())
        return S.error();
      Metrics.counter("explore.witnesses").inc();
      Out.WitnessFiles.push_back(std::move(Path));
      NARADA_LOG_DEBUG("witness for %s written to %s (%u -> %u "
                       "preemptions, %u candidates)",
                       Key.c_str(), Out.WitnessFiles.back().c_str(),
                       Trace.preemptions(), Min.Minimized.preemptions(),
                       Min.CandidatesTried);
    }
  }

  // Phase 2 + 3: confirm and classify each detected race (and each
  // synthesizer hint that no random schedule happened to expose).
  std::set<std::string> ConfirmTargets;
  std::vector<std::pair<std::string, std::string>> LabelPairs;
  for (const RaceReport &R : Out.Detected) {
    if (ConfirmTargets.insert(R.key()).second)
      LabelPairs.emplace_back(R.FirstLabel, R.SecondLabel);
  }
  for (const auto &[A, B] : Hints) {
    std::string HintKey = A < B ? A + "~" + B : B + "~" + A;
    if (ConfirmTargets.insert("hint:" + HintKey).second) {
      LabelPairs.emplace_back(A, B);
      Metrics.counter("detect.hint_targets").inc();
    }
  }

  std::set<std::string> Classified;
  for (const auto &[LabelA, LabelB] : LabelPairs) {
    if (WallExpired())
      return Out;
    obs::Span ConfirmSpan("confirm");
    ConfirmedRace Entry;
    for (unsigned Attempt = 0; Attempt < Options.ConfirmAttempts;
         ++Attempt) {
      Metrics.counter("detect.confirm_attempts").inc();
      uint64_t Seed = Options.BaseSeed + 1000 + Attempt;
      auto Confirm = [&](bool SecondFirst) {
        std::string What = formatString("confirmation of %s~%s%s",
                                        LabelA.c_str(), LabelB.c_str(),
                                        SecondFirst ? " (reversed order)" : "");
        return runWithRetries(Options, TestName, What, Out,
                              [&](uint64_t Budget) {
                                return runConfirm(M, TestName, LabelA, LabelB,
                                                  Seed, SecondFirst, Budget);
                              });
      };
      // A step-limited result means even the escalated budgets were
      // exhausted and the test is quarantined: this confirmation can not be
      // trusted to have run clean.
      Result<ConfirmRun> FirstOrder = Confirm(/*SecondFirst=*/false);
      if (!FirstOrder)
        return FirstOrder.error();
      if (FirstOrder->HitStepLimit)
        return Out;
      if (!FirstOrder->Confirmed)
        continue;

      Result<ConfirmRun> SecondOrder = Confirm(/*SecondFirst=*/true);
      if (!SecondOrder)
        return SecondOrder.error();
      if (SecondOrder->HitStepLimit)
        return Out;

      Entry.Reproduced = true;
      Entry.Report = FirstOrder->Report;
      Entry.HashFirstOrder = FirstOrder->HeapHash;
      Entry.HashSecondOrder =
          SecondOrder->Confirmed ? SecondOrder->HeapHash
                                 : FirstOrder->HeapHash;
      bool StateDiverges = SecondOrder->Confirmed &&
                           FirstOrder->HeapHash != SecondOrder->HeapHash;
      bool ObservationDiverges =
          SecondOrder->Confirmed &&
          FirstOrder->ObservedHash != SecondOrder->ObservedHash;
      // Step-limited runs count as misbehaving (defense in depth: the
      // retry protocol above normally quarantines them first) — a
      // schedule that ran away is anything but clean.
      bool Misbehaved = FirstOrder->Faulted || FirstOrder->Deadlocked ||
                        FirstOrder->HitStepLimit ||
                        SecondOrder->Faulted || SecondOrder->Deadlocked ||
                        SecondOrder->HitStepLimit;
      Entry.Harmful = StateDiverges || ObservationDiverges || Misbehaved;
      break;
    }
    if (!Entry.Reproduced) {
      // Keep an unreproduced placeholder so counts line up with Detected.
      Entry.Report.FirstLabel = LabelA;
      Entry.Report.SecondLabel = LabelB;
      Entry.Report.Detector = "confirm";
    }
    if (Classified.insert(Entry.Report.key()).second)
      Out.Races.push_back(std::move(Entry));
  }
  Metrics.counter("detect.races_reproduced").inc(Out.reproducedCount());
  Metrics.counter("detect.races_harmful").inc(Out.harmfulCount());
  Metrics.counter("detect.races_benign").inc(Out.benignCount());
  return Out;
}

Result<std::vector<TestDetectionResult>> narada::detectRacesInTests(
    const IRModule &M, const std::vector<TestDetectJob> &Jobs,
    const DetectOptions &Options, unsigned JobCount,
    const detectworker::DetectIsolateContext *Iso) {
  const bool Isolated = Iso && Iso->Isolate.Enabled;
  UnitExecutor Exec(JobCount, "test", Isolated ? &Iso->Isolate : nullptr,
                    Isolated ? detectworker::encodeSetup(*Iso, Options)
                             : std::string());
  std::vector<std::optional<Result<TestDetectionResult>>> Slots(Jobs.size());
  std::vector<std::optional<UnitFault>> Faults = Exec.run(
      unitIds(Jobs.size()),
      [&](size_t I) {
        Slots[I].emplace(
            detectRacesInTest(M, Jobs[I].TestName, Options, Jobs[I].Hints));
      },
      [&](size_t I) { return detectworker::encodeUnit(I, Jobs[I]); },
      [&](size_t I, const wire::RecordReader &Reply) {
        if (std::optional<std::string> Err = Reply.get("err"))
          Slots[I].emplace(Error(*Err));
        else
          Slots[I].emplace(detectworker::decodeDetectResult(Reply));
      });

  // Commit in input order: a faulted unit costs its own test, which is
  // quarantined; the first detection error in input order fails the call.
  std::vector<TestDetectionResult> Out;
  Out.reserve(Jobs.size());
  std::optional<Error> FirstError;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (Faults[I]) {
      const bool Crash = Faults[I]->K == UnitFault::Kind::Crash;
      TestDetectionResult Q;
      quarantine(Q, Jobs[I].TestName,
                 Crash ? Faults[I]->Message
                       : "internal fault: " + Faults[I]->Message);
      obs::MetricsRegistry::global()
          .counter(Crash ? "detect.worker_crashes" : "detect.internal_faults")
          .inc();
      Out.push_back(std::move(Q));
    } else if (*Slots[I]) {
      Out.push_back(Slots[I]->take());
    } else if (!FirstError) {
      FirstError = Slots[I]->error();
    }
  }
  if (FirstError)
    return *FirstError;
  return Out;
}
