//===- serve/Engine.cpp - Command engine shared by CLI and daemon --------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Moved essentially verbatim from tools/narada-cli.cpp so the daemon can
// execute the same commands in-process; behavior changes are limited to
// the EngineHooks detection memo (inert when no hooks are installed).
//
//===----------------------------------------------------------------------===//

#include "serve/Engine.h"

#include "analysis/AnalysisPrinter.h"
#include "contege/Contege.h"
#include "corpus/Corpus.h"
#include "detect/DetectWorker.h"
#include "detect/LockOrderDetector.h"
#include "explore/ScheduleTrace.h"
#include "gen/GenEngine.h"
#include "obs/RunReport.h"
#include "obs/Span.h"
#include "runtime/Execution.h"
#include "runtime/Scheduler.h"
#include "staticrace/LocksetAnalysis.h"
#include "staticrace/PairClassifier.h"
#include "support/Digest.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"
#include "support/Wire.h"
#include "synth/Narada.h"
#include "synth/PairGenerator.h"
#include "trace/Trace.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace narada;
using namespace narada::serve;

namespace {

/// Races collected by cmdDetect() for the run report.  emitObservability()
/// runs after the command returns, so the detect command stashes its
/// deduplicated race set here instead of threading a RunMeta through every
/// cmd* signature.  DetectionRan distinguishes "detect ran and found
/// nothing" (empty races array in the report) from commands that never
/// detect (no races member at all).  One RunState per engine invocation —
/// the daemon reuses the process for many requests, so this must not be a
/// global.
struct RunState {
  std::vector<obs::RaceEntry> CollectedRaces;
  bool DetectionRan = false;
  /// Hex digest of the final (post-generation) module source the detect
  /// stage ran against; recorded as the "source_digest" report option so
  /// the race database can tie provenance to a module version.
  std::string SourceDigest;
};

/// Parses a strictly positive count the way parseJobs() parses worker
/// counts: digits-only base-10, and additionally rejects 0 — callers keep
/// their default (with a warning) instead of degrading to "never try".
bool parsePositiveCount(const char *Text, unsigned &Out) {
  unsigned Value = 0;
  if (!parseJobs(Text, Value) || Value == 0)
    return false;
  Out = Value;
  return true;
}

/// Parses a number of seconds; the whole text must be the number.
bool parseSeconds(const char *Text, double &Out) {
  errno = 0;
  char *End = nullptr;
  double Value = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE)
    return false;
  Out = Value;
  return true;
}

/// Stores flag \p Flag's value \p Text in \p Out through \p Parse; an
/// invalid value is ignored with a warning, and \p Out keeps its value.
template <typename T>
void readFlag(const char *Flag, const char *Text, T &Out,
              bool (*Parse)(const char *, T &)) {
  if (Parse(Text, Out))
    return;
  std::ostringstream Keeping;
  Keeping << Out;
  std::fprintf(stderr, "warning: ignoring invalid %s '%s' (keeping %s)\n",
               Flag, Text, Keeping.str().c_str());
}

int cmdRun(CliArgs &Args, const std::string &Source) {
  if (Args.Names.empty()) {
    std::fprintf(stderr, "run: missing test name\n");
    return 2;
  }
  Result<CompiledProgram> P = compileProgram(Source);
  if (!P) {
    std::fprintf(stderr, "error: %s\n", P.error().str().c_str());
    return 1;
  }
  std::unique_ptr<SchedulingPolicy> Policy =
      makePolicy(Args.PolicyName, Args.Seed);
  if (!Policy) { // parseArgs validated; defensive for programmatic use.
    std::fprintf(stderr, "run: unknown policy '%s'\n",
                 Args.PolicyName.c_str());
    return 2;
  }
  Result<TestRun> Run = runTest(*P->Module, Args.Names[0], *Policy);
  if (!Run) {
    std::fprintf(stderr, "error: %s\n", Run.error().str().c_str());
    return 1;
  }
  std::printf("test %s: %llu steps, heap hash %016llx\n",
              Args.Names[0].c_str(),
              static_cast<unsigned long long>(Run->Result.Steps),
              static_cast<unsigned long long>(Run->HeapHash));
  if (Run->Result.Deadlocked)
    std::printf("  DEADLOCK\n");
  for (const std::string &Message : Run->Result.FaultMessages)
    std::printf("  FAULT: %s\n", Message.c_str());
  return Run->Result.Faulted || Run->Result.Deadlocked ? 1 : 0;
}

int cmdTrace(CliArgs &Args, const std::string &Source) {
  if (Args.Names.empty()) {
    std::fprintf(stderr, "trace: missing test name\n");
    return 2;
  }
  Result<CompiledProgram> P = compileProgram(Source);
  if (!P) {
    std::fprintf(stderr, "error: %s\n", P.error().str().c_str());
    return 1;
  }
  Result<TestRun> Run = runTestSequential(*P->Module, Args.Names[0]);
  if (!Run) {
    std::fprintf(stderr, "error: %s\n", Run.error().str().c_str());
    return 1;
  }
  // One line at a time: a trace that runs into the step limit holds
  // hundreds of thousands of events.
  for (const TraceEvent &Event : Run->TheTrace) {
    std::fputs(printEvent(Event).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}

/// Builds the NaradaOptions shared by analyze/synthesize/detect.
NaradaOptions pipelineOptions(const CliArgs &Args) {
  NaradaOptions Options;
  Options.FocusClass = Args.FocusClass;
  Options.Jobs = Args.Jobs;
  Options.StaticVerdicts = Args.StaticVerdicts;
  Options.StaticRank = Args.StaticRank;
  Options.Isolate = Args.Isolate;
  return Options;
}

int cmdAnalyze(CliArgs &Args, const std::string &Source) {
  Result<NaradaResult> R =
      runNarada(Source, Args.Names, pipelineOptions(Args));
  if (!R) {
    std::fprintf(stderr, "error: %s\n", R.error().str().c_str());
    return 1;
  }
  std::fputs(printAnalysis(R->Analysis, /*UnprotectedOnly=*/true).c_str(),
             stdout);
  std::printf("\n== racy pairs (%zu) ==\n", R->Pairs.size());
  for (const RacyPair &Pair : R->Pairs) {
    std::string Line = Pair.str();
    if (Pair.Verdict)
      Line += std::string(" [static: ") +
              staticrace::verdictName(*Pair.Verdict) + "]";
    std::printf("  %s\n", Line.c_str());
  }
  return 0;
}

/// --static-only: classify candidate pairs without running a single seed
/// test.  Only the frontend runs — no traces, no synthesis — so it works
/// on modules that have no seed tests at all and its output depends only
/// on the source text (deterministic by construction).
int cmdStaticTriage(CliArgs &Args, const std::string &Source) {
  Result<CompiledProgram> P = compileProgram(Source);
  if (!P) {
    std::fprintf(stderr, "error: %s\n", P.error().str().c_str());
    return 1;
  }
  double Seconds = 0.0;
  staticrace::ModuleSummary Summary;
  {
    obs::Span StaticSpan("staticrace", &Seconds);
    Summary = staticrace::summarizeModule(*P->Module);
  }
  std::fputs(
      staticrace::renderStaticTriage(Summary, Args.FocusClass).c_str(),
      stdout);
  return 0;
}

int cmdSynthesize(CliArgs &Args, const std::string &Source) {
  Result<NaradaResult> R =
      runNarada(Source, Args.Names, pipelineOptions(Args));
  if (!R) {
    std::fprintf(stderr, "error: %s\n", R.error().str().c_str());
    return 1;
  }
  std::printf("// %zu racy pairs -> %zu synthesized tests "
              "(analysis %.3fs, synthesis %.3fs)\n\n",
              R->Pairs.size(), R->Tests.size(),
              R->Stages.AnalysisSeconds + R->Stages.PairGenSeconds,
              R->Stages.SynthesisSeconds);
  for (const SynthesizedTestInfo &T : R->Tests) {
    std::printf("// covers %zu pair(s); shares %s; context %s\n%s\n",
                T.CoveredPairKeys.size(), T.SharedClassName.c_str(),
                T.ContextComplete ? "complete" : "partial",
                T.SourceText.c_str());
  }
  return 0;
}

/// Digest identifying one detection stage: final source, every detect
/// option that shapes exploration, and the job list (test names + hint
/// pairs).  --jobs is deliberately not keyed — detection output is
/// byte-identical for every worker count, so a memoized result serves all
/// of them.
uint64_t detectStageKey(const std::string &FinalSource,
                        const DetectOptions &Options,
                        const std::vector<TestDetectJob> &Jobs) {
  wire::RecordWriter Opt;
  detectworker::encodeDetectOptions(Opt, Options);
  uint64_t H = digest::of(FinalSource);
  H = digest::update(H, Opt.str());
  for (const TestDetectJob &J : Jobs) {
    H = digest::update(H, J.TestName);
    for (const auto &[First, Second] : J.Hints) {
      H = digest::update(H, First);
      H = digest::update(H, Second);
    }
  }
  return H;
}

int cmdDetect(CliArgs &Args, const std::string &Source,
              const EngineHooks *Hooks, RunState &State) {
  // Replay: load the witness trace up front so detection can be narrowed
  // to the test it was recorded for.
  if (!Args.ReplayPath.empty()) {
    Result<explore::ScheduleTrace> Trace =
        explore::ScheduleTrace::readFile(Args.ReplayPath,
                                         replayStepBudget(Args.Detect));
    if (!Trace) {
      std::fprintf(stderr, "error: %s\n", Trace.error().str().c_str());
      return 1;
    }
    Args.Detect.ReplayTrace =
        std::make_shared<const explore::ScheduleTrace>(Trace.take());
  }
  if (Args.Detect.Mode == ExplorationMode::Replay &&
      !Args.Detect.ReplayTrace) {
    std::fprintf(stderr,
                 "detect: --explore replay requires --replay <trace>\n");
    return 2;
  }
  if (!Args.Detect.WitnessDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Args.Detect.WitnessDir, EC);
    if (EC) {
      std::fprintf(stderr, "error: cannot create witness directory '%s': %s\n",
                   Args.Detect.WitnessDir.c_str(), EC.message().c_str());
      return 1;
    }
  }

  Result<NaradaResult> R =
      runNarada(Source, Args.Names, pipelineOptions(Args));
  if (!R) {
    std::fprintf(stderr, "error: %s\n", R.error().str().c_str());
    return 1;
  }

  // Schedule explorations for different tests are independent; fan them
  // out across the worker pool.  Results come back in test order, so the
  // printed summary is identical for every --jobs value.
  std::vector<TestDetectJob> Jobs;
  for (const SynthesizedTestInfo &T : R->Tests) {
    if (Args.Detect.ReplayTrace &&
        T.Name != Args.Detect.ReplayTrace->TestName)
      continue;
    Jobs.push_back({T.Name, T.CandidateLabels});
  }
  if (Args.Detect.ReplayTrace && Jobs.empty()) {
    std::fprintf(stderr,
                 "error: trace test '%s' was not synthesized in this run\n",
                 Args.Detect.ReplayTrace->TestName.c_str());
    return 1;
  }

  // Whole-stage memo: a detection stage is a pure function of (final
  // source, options, job list), so the daemon can replay its result
  // vector instead of re-exploring schedules.  Side-effecting (witness
  // emission) and externally-keyed (replay) runs bypass it, as does armed
  // fault injection — a fault must hit the real computation.
  const bool CanMemoDetect = Hooks && Hooks->LookupDetect &&
                             Hooks->StoreDetect &&
                             Args.Detect.WitnessDir.empty() &&
                             !Args.Detect.ReplayTrace && !fault::armed();
  uint64_t StageKey = 0;
  std::vector<TestDetectionResult> Results;
  bool Memoized = false;
  if (CanMemoDetect) {
    StageKey = detectStageKey(R->FinalSource, Args.Detect, Jobs);
    if (const std::vector<TestDetectionResult> *Hit =
            Hooks->LookupDetect(StageKey)) {
      Results = *Hit;
      Memoized = true;
    }
  }
  if (!Memoized) {
    detectworker::DetectIsolateContext DetectIso;
    DetectIso.Isolate = Args.Isolate;
    DetectIso.FinalSource = R->FinalSource;
    DetectIso.ReplayPath = Args.ReplayPath;
    Result<std::vector<TestDetectionResult>> Fresh =
        detectRacesInTests(*R->Program.Module, Jobs, Args.Detect, Args.Jobs,
                           Args.Isolate.Enabled ? &DetectIso : nullptr);
    if (!Fresh) {
      std::fprintf(stderr, "error: %s\n", Fresh.error().str().c_str());
      return 1;
    }
    Results = Fresh.take();
    if (CanMemoDetect)
      Hooks->StoreDetect(StageKey, Results); // Pre-annotation: canonical.
  }
  State.DetectionRan = true;
  State.SourceDigest = digest::hex(digest::of(R->FinalSource));

  // Annotate every report with the static verdict of its label pair (the
  // map is empty when no static pass ran, leaving verdicts blank).
  const std::map<std::string, std::string> Verdicts =
      staticVerdictsByRaceKey(R->Pairs);
  for (TestDetectionResult &D : Results) {
    for (RaceReport &Rep : D.Detected) {
      auto V = Verdicts.find(Rep.key());
      if (V != Verdicts.end())
        Rep.StaticVerdict = V->second;
    }
    for (ConfirmedRace &C : D.Races) {
      auto V = Verdicts.find(C.Report.key());
      if (V != Verdicts.end())
        C.Report.StaticVerdict = V->second;
    }
  }

  unsigned Detected = 0, Reproduced = 0, Harmful = 0, Benign = 0;
  unsigned Quarantined = 0, Witnesses = 0;
  unsigned long long Schedules = 0, Pruned = 0;
  std::map<std::string, obs::RaceEntry> RaceLog;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const std::string &TestName = Jobs[I].TestName;
    const TestDetectionResult &D = Results[I];
    Schedules += D.SchedulesRun;
    Pruned += D.SchedulesPruned;
    Witnesses += static_cast<unsigned>(D.WitnessFiles.size());
    if (D.Quarantined) {
      // Contained failure: the test is reported, not trusted — and the
      // rest of the batch ran to completion regardless.
      std::printf("%s: QUARANTINED: %s\n", TestName.c_str(),
                  D.QuarantineReason.c_str());
      ++Quarantined;
    }
    if (D.Detected.empty() && D.reproducedCount() == 0)
      continue;
    std::printf("%s:\n", TestName.c_str());
    if (Args.Detect.ReplayTrace) {
      // A replayed schedule's value is what it detected, reproduced or
      // not — print the phase-1 reports so witness round trips can be
      // compared byte for byte.
      for (const RaceReport &Rep : D.Detected)
        std::printf("  replayed: %s\n", Rep.str().c_str());
    }
    // Witness files are emitted one per unique detected key, in sorted
    // key order (detect/Detection.cpp), so index i of WitnessFiles names
    // the witness of the i-th sorted key.
    std::map<std::string, std::string> WitnessByKey;
    if (!D.WitnessFiles.empty()) {
      std::set<std::string> Keys;
      for (const RaceReport &Rep : D.Detected)
        Keys.insert(Rep.key());
      if (Keys.size() == D.WitnessFiles.size()) {
        size_t Index = 0;
        for (const std::string &Key : Keys)
          WitnessByKey[Key] = D.WitnessFiles[Index++];
      }
    }
    // Detector attribution comes from the phase-1 reports: the same key
    // may be found by both detectors while only one confirmation runs.
    std::map<std::string, std::vector<std::string>> DetectorsByKey;
    for (const RaceReport &Rep : D.Detected)
      DetectorsByKey[Rep.key()].push_back(Rep.Detector);
    for (const ConfirmedRace &C : D.Races) {
      obs::RaceEntry &Entry = RaceLog[C.Report.key()];
      Entry.Key = C.Report.key();
      if (Entry.StaticVerdict.empty())
        Entry.StaticVerdict = C.Report.StaticVerdict;
      Entry.Reproduced = Entry.Reproduced || C.Reproduced;
      Entry.Harmful = Entry.Harmful || C.Harmful;
      Entry.WriteWrite = Entry.WriteWrite ||
                         (C.Report.FirstIsWrite && C.Report.SecondIsWrite);
      if (!C.Report.Detector.empty())
        Entry.Detectors.push_back(C.Report.Detector);
      if (auto Found = DetectorsByKey.find(Entry.Key);
          Found != DetectorsByKey.end())
        Entry.Detectors.insert(Entry.Detectors.end(), Found->second.begin(),
                               Found->second.end());
      if (Entry.Witness.empty())
        if (auto W = WitnessByKey.find(Entry.Key); W != WitnessByKey.end())
          Entry.Witness = W->second;
      if (!C.Reproduced)
        continue;
      std::string Suffix = C.Report.StaticVerdict.empty()
                               ? std::string()
                               : " [static: " + C.Report.StaticVerdict + "]";
      std::printf("  %s [%s]%s\n", C.Report.str().c_str(),
                  C.Harmful ? "HARMFUL" : "benign", Suffix.c_str());
    }
    for (const std::string &W : D.WitnessFiles)
      std::printf("  witness: %s\n", W.c_str());
    Detected += static_cast<unsigned>(D.Detected.size());
    Reproduced += D.reproducedCount();
    Harmful += D.harmfulCount();
    Benign += D.benignCount();

    // Also surface potential deadlocks (lock-order inversions).  Runs
    // live even when the detection stage was memoized: it is cheap,
    // deterministic, and keeps the printed output identical either way.
    LockOrderDetector LockOrder;
    RandomPolicy Policy(1);
    (void)runTest(*R->Program.Module, TestName, Policy, 1, &LockOrder);
    for (const LockOrderCycle &Cycle : LockOrder.cycles())
      std::printf("  %s\n", Cycle.str().c_str());
  }
  for (const auto &[Key, Entry] : RaceLog)
    State.CollectedRaces.push_back(Entry);
  std::printf("\ntotal over %zu tests: %u detected, %u reproduced, "
              "%u harmful, %u benign",
              Jobs.size(), Detected, Reproduced, Harmful, Benign);
  if (Quarantined)
    std::printf(", %u quarantined", Quarantined);
  std::printf("\n%llu schedules explored (%llu pruned)\n", Schedules,
              Pruned);
  if (Witnesses)
    std::printf("%u witness trace(s) written\n", Witnesses);
  return 0;
}

int cmdContege(CliArgs &Args, const std::string &Source) {
  if (Args.FocusClass.empty()) {
    std::fprintf(stderr, "contege: --class is required\n");
    return 2;
  }
  ContegeOptions Options;
  Options.MaxTests = Args.Tests;
  Options.Seed = Args.Seed;
  Result<ContegeResult> R = runContege(Source, Args.FocusClass, Options);
  if (!R) {
    std::fprintf(stderr, "error: %s\n", R.error().str().c_str());
    return 1;
  }
  std::printf("generated %u tests in %.2fs: %u thread-safety violations, "
              "%u silently racy tests\n",
              R->TestsGenerated, R->Seconds, R->ViolationsFound,
              R->SilentRacyTests);
  if (!R->ViolatingTests.empty())
    std::printf("\nfirst violating test:\n%s\n",
                R->ViolatingTests[0].c_str());
  return 0;
}

/// Emits the run report and/or stderr stats summary after a command ran.
void emitObservability(const CliArgs &Args, const RunState &State) {
  if (Args.ReportPath.empty() && !Args.Stats)
    return;
  obs::RunMeta Meta;
  Meta.Tool = "narada-cli";
  Meta.Command = Args.Command;
  Meta.Input = Args.Input;
  if (startsWith(Args.Input, "corpus:"))
    Meta.CorpusId = Args.Input.substr(7);
  Meta.FocusClass = Args.FocusClass;
  Meta.Seed = Args.Seed;
  Meta.addOption("jobs", std::to_string(Args.Jobs));
  if (Args.Isolate.Enabled) {
    Meta.addOption("isolate", "1");
    Meta.addOption("worker_deadline",
                   std::to_string(Args.Isolate.UnitDeadlineSeconds));
    if (Args.Isolate.WorkerCpuLimitSeconds)
      Meta.addOption("worker_cpu_limit",
                     std::to_string(Args.Isolate.WorkerCpuLimitSeconds));
    if (Args.Isolate.WorkerMemLimitMb)
      Meta.addOption("worker_mem_limit",
                     std::to_string(Args.Isolate.WorkerMemLimitMb));
  }
  if (Args.StaticVerdicts)
    Meta.addOption("static_verdicts", "1");
  if (Args.StaticRank)
    Meta.addOption("static_rank", "1");
  if (Args.StaticOnly)
    Meta.addOption("static_only", "1");
  if (Args.GenSeeds) {
    Meta.addOption("gen_seeds", "1");
    Meta.addOption("gen_rounds", std::to_string(Args.GenRounds));
    Meta.addOption("gen_budget", std::to_string(Args.GenBudget));
  }
  if (Args.Command == "contege")
    Meta.addOption("tests", std::to_string(Args.Tests));
  if (Args.Command == "run")
    Meta.addOption("policy", Args.PolicyName);
  if (Args.Command == "detect") {
    Meta.addOption("max_steps", std::to_string(Args.Detect.MaxSteps));
    Meta.addOption("step_retries",
                   std::to_string(Args.Detect.StepLimitRetries));
    if (Args.Detect.WallBudgetSeconds > 0.0)
      Meta.addOption("wall_budget_seconds",
                     std::to_string(Args.Detect.WallBudgetSeconds));
    Meta.addOption("explore", explorationModeName(Args.Detect.Mode));
    Meta.addOption("confirm_attempts",
                   std::to_string(Args.Detect.ConfirmAttempts));
    if (Args.Detect.Mode == ExplorationMode::Systematic)
      Meta.addOption("max_schedules",
                     std::to_string(Args.Detect.Explore.MaxSchedules));
    if (!Args.ReplayPath.empty())
      Meta.addOption("replay", Args.ReplayPath);
    if (!Args.Detect.WitnessDir.empty())
      Meta.addOption("witness_dir", Args.Detect.WitnessDir);
  }
  if (!State.SourceDigest.empty())
    Meta.addOption("source_digest", State.SourceDigest);
  if (State.DetectionRan)
    Meta.RecordRaces = true;
  for (const obs::RaceEntry &Entry : State.CollectedRaces)
    Meta.addRace(Entry);
  if (!Args.ReportPath.empty())
    obs::writeRunReport(Args.ReportPath, Meta);
  if (Args.Stats)
    obs::printRunStats(stderr, obs::MetricsRegistry::global().snapshot());
}

int runCommandImpl(CliArgs &Args, std::string Source,
                   const EngineHooks *Hooks, RunState &State) {
  if (Args.StaticOnly) {
    if (Args.Command == "analyze" || Args.Command == "synthesize" ||
        Args.Command == "detect")
      return cmdStaticTriage(Args, Source);
    std::fprintf(stderr,
                 "--static-only applies to analyze/synthesize/detect\n");
    return 2;
  }
  if (Args.GenSeeds) {
    if (Args.Command != "analyze" && Args.Command != "synthesize" &&
        Args.Command != "detect") {
      std::fprintf(stderr,
                   "--gen-seeds applies to analyze/synthesize/detect\n");
      return 2;
    }
    gen::GenOptions Options;
    Options.FocusClass = Args.FocusClass;
    Options.Seed = Args.Seed;
    Options.Rounds = Args.GenRounds;
    Options.Budget = Args.GenBudget;
    Options.Jobs = Args.Jobs;
    Result<gen::GenResult> Gen = gen::generateSeedCorpus(Source, Options);
    if (!Gen) {
      std::fprintf(stderr, "error: %s\n", Gen.error().str().c_str());
      return 1;
    }
    std::printf("// gen: %zu seeds kept, %zu candidate pairs covered, "
                "%u/%u static targets reached, %zu quarantined\n",
                Gen->Seeds.size(), Gen->PairKeys.size(),
                Gen->StaticTargetsCovered, Gen->StaticTargets,
                Gen->Quarantined.size());
    for (const gen::GenQuarantine &Q : Gen->Quarantined)
      std::fprintf(stderr, "gen: candidate %u quarantined at %s: %s\n",
                   Q.Candidate, Q.Stage.c_str(), Q.Message.c_str());
    // The generated corpus replaces both the source (hand tests are
    // stripped) and the seed list for the downstream command, so every
    // cache hook below keys on the generated source.
    Source = Gen->CorpusSource;
    Args.Names = Gen->SeedNames;
  }
  if (Args.Command == "run")
    return cmdRun(Args, Source);
  if (Args.Command == "trace")
    return cmdTrace(Args, Source);
  if (Args.Command == "analyze")
    return cmdAnalyze(Args, Source);
  if (Args.Command == "synthesize")
    return cmdSynthesize(Args, Source);
  if (Args.Command == "detect")
    return cmdDetect(Args, Source, Hooks, State);
  if (Args.Command == "contege")
    return cmdContege(Args, Source);
  return usage();
}

} // namespace

int serve::usage() {
  std::fprintf(
      stderr,
      "usage: narada-cli <command> [args]\n"
      "  run <file.mj|corpus:Cx> <test> [--seed N] [--policy P]\n"
      "  trace <file.mj|corpus:Cx> <test>\n"
      "  analyze <file.mj|corpus:Cx> [seed-test]... [--class C]\n"
      "  synthesize <file.mj|corpus:Cx> [seed-test]... [--class C]\n"
      "  detect <file.mj|corpus:Cx> [seed-test]... [--class C]\n"
      "  contege <file.mj|corpus:Cx> --class C [--tests N] [--seed N]\n"
      "  corpus\n"
      "  serve --socket <path> [--cache <file>] [--racedb <file>]\n"
      "                        persistent daemon; see docs/SERVING.md\n"
      "  submit --socket <path> <command> [args]\n"
      "                        run a command on a daemon (also --ping,\n"
      "                        --shutdown)\n"
      "  triage ingest --db <file> [--jobs N] <report.json>...\n"
      "  triage query --db <file> [--state S] [--input I]\n"
      "  triage diff <old.db> <new.db>\n"
      "  triage gate --baseline <db> [--jobs N] <report.json>...\n"
      "                        durable race database; see docs/TRIAGE.md\n"
      "  worker                (internal: --isolate subprocess entrypoint)\n"
      "global flags:\n"
      "  --jobs N              worker threads for synthesis/detection\n"
      "                        (0 = all hardware threads; default\n"
      "                        $NARADA_JOBS or 1; output is identical\n"
      "                        for every N)\n"
      "  --report <file.json>  write a structured run report\n"
      "  --trace <file.json>   write a Chrome trace-event timeline\n"
      "                        (open in Perfetto / chrome://tracing)\n"
      "  --stats               print a metrics summary to stderr\n"
      "static pre-analysis flags (see docs/STATIC.md):\n"
      "  --static-verdicts     annotate each race with the static verdict\n"
      "                        of its pair (filters and reorders nothing)\n"
      "  --static-rank         --static-verdicts, and synthesize\n"
      "                        most-racy candidates first\n"
      "  --static-only         classify pairs purely statically and print\n"
      "                        the triage listing (no seed tests needed)\n"
      "seed generation flags (see docs/GENERATION.md):\n"
      "  --gen-seeds           generate the seed suite instead of using\n"
      "                        hand-written seeds (strips existing tests;\n"
      "                        applies to analyze/synthesize/detect)\n"
      "  --gen-rounds N        generation rounds (default 2)\n"
      "  --gen-budget N        candidate tests per round (default 16)\n"
      "scheduling flags (see docs/EXPLORATION.md):\n"
      "  --policy P            scheduler for `run` (default random):\n"
      "                        %s\n"
      "  --explore MODE        detect phase-1 schedules: random, pct,\n"
      "                        systematic, replay (default random)\n"
      "  --max-schedules N     systematic schedule budget (default 256)\n"
      "  --replay <trace>      re-run a recorded witness trace\n"
      "                        (implies --explore replay)\n"
      "  --emit-witness <dir>  write a minimized replayable trace per\n"
      "                        phase-1 race into <dir>\n"
      "  --confirm-attempts N  scheduler seeds per confirmation\n"
      "                        (default 4, never 0)\n"
      "detect watchdog flags (see docs/ROBUSTNESS.md):\n"
      "  --max-steps N         per-run step budget (default 400000)\n"
      "  --step-retries N      escalated-budget retries for step-limit\n"
      "                        hits before quarantining (default 2)\n"
      "  --wall-budget SECS    per-test wall-clock budget (default: off)\n"
      "process isolation flags (see docs/ROBUSTNESS.md):\n"
      "  --isolate             run synthesis/detection units in crash-\n"
      "                        isolated worker subprocesses (default\n"
      "                        $NARADA_ISOLATE or off; clean-run output\n"
      "                        is byte-identical to in-process mode)\n"
      "  --worker-deadline S   per-unit wall deadline in seconds\n"
      "                        (default 60; 0 disables)\n"
      "  --worker-cpu-limit S  RLIMIT_CPU per worker in seconds\n"
      "                        (default 0 = inherit)\n"
      "  --worker-mem-limit M  RLIMIT_AS per worker in MiB\n"
      "                        (default 0 = inherit)\n"
      "  (see docs/OBSERVABILITY.md; NARADA_LOG=debug|info|warn for "
      "diagnostics; NARADA_FAULT_INJECT=<site>:<unit>"
      "[:throw|:timeout|:crash|:segv|:hang|:oom] "
      "injects a deterministic fault — hard modes need --isolate)\n",
      knownPolicyNames());
  return 2;
}

std::optional<CliArgs> serve::parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    return std::nullopt;
  CliArgs Args;
  Args.Command = Argv[1];
  Args.Jobs = env::jobs(Args.Jobs);
  Args.Isolate.Enabled = env::isolate(Args.Isolate.Enabled);
  Args.Isolate.WorkerExe = pool::currentExecutablePath(Argv[0]);
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--class" && I + 1 < Argc) {
      Args.FocusClass = Argv[++I];
    } else if (Arg == "--seed" && I + 1 < Argc) {
      readFlag("--seed", Argv[++I], Args.Seed, parseUnsigned);
    } else if (Arg == "--tests" && I + 1 < Argc) {
      readFlag("--tests", Argv[++I], Args.Tests, parseUnsigned);
    } else if (Arg == "--jobs" && I + 1 < Argc) {
      readFlag("--jobs", Argv[++I], Args.Jobs, parseJobs);
    } else if (Arg == "--report" && I + 1 < Argc) {
      Args.ReportPath = Argv[++I];
    } else if (Arg == "--trace" && I + 1 < Argc) {
      Args.TracePath = Argv[++I];
    } else if (Arg == "--max-steps" && I + 1 < Argc) {
      readFlag("--max-steps", Argv[++I], Args.Detect.MaxSteps, parseUnsigned);
    } else if (Arg == "--step-retries" && I + 1 < Argc) {
      readFlag("--step-retries", Argv[++I], Args.Detect.StepLimitRetries,
               parseUnsigned);
    } else if (Arg == "--wall-budget" && I + 1 < Argc) {
      readFlag("--wall-budget", Argv[++I], Args.Detect.WallBudgetSeconds,
               parseSeconds);
    } else if (Arg == "--policy" && I + 1 < Argc) {
      Args.PolicyName = Argv[++I];
      if (!makePolicy(Args.PolicyName, /*Seed=*/1)) {
        std::fprintf(stderr, "error: unknown policy '%s' (known: %s)\n",
                     Args.PolicyName.c_str(), knownPolicyNames());
        return std::nullopt;
      }
    } else if (Arg == "--explore" && I + 1 < Argc) {
      std::string Mode = Argv[++I];
      if (!parseExplorationMode(Mode, Args.Detect.Mode)) {
        std::fprintf(stderr,
                     "error: unknown exploration mode '%s' (known: "
                     "random, pct, systematic, replay)\n",
                     Mode.c_str());
        return std::nullopt;
      }
    } else if (Arg == "--max-schedules" && I + 1 < Argc) {
      readFlag("--max-schedules", Argv[++I],
               Args.Detect.Explore.MaxSchedules, parsePositiveCount);
    } else if (Arg == "--confirm-attempts" && I + 1 < Argc) {
      readFlag("--confirm-attempts", Argv[++I], Args.Detect.ConfirmAttempts,
               parsePositiveCount);
    } else if (Arg == "--replay" && I + 1 < Argc) {
      Args.ReplayPath = Argv[++I];
      Args.Detect.Mode = ExplorationMode::Replay;
    } else if (Arg == "--emit-witness" && I + 1 < Argc) {
      Args.Detect.WitnessDir = Argv[++I];
    } else if (Arg == "--static-verdicts") {
      Args.StaticVerdicts = true;
    } else if (Arg == "--static-prefilter") {
      std::fprintf(stderr, "warning: --static-prefilter is deprecated; it "
                           "now means --static-verdicts\n");
      Args.StaticVerdicts = true;
    } else if (Arg == "--static-rank") {
      Args.StaticRank = true;
    } else if (Arg == "--static-only") {
      Args.StaticOnly = true;
    } else if (Arg == "--gen-seeds") {
      Args.GenSeeds = true;
    } else if (Arg == "--gen-rounds" && I + 1 < Argc) {
      readFlag("--gen-rounds", Argv[++I], Args.GenRounds, parsePositiveCount);
    } else if (Arg == "--gen-budget" && I + 1 < Argc) {
      readFlag("--gen-budget", Argv[++I], Args.GenBudget, parsePositiveCount);
    } else if (Arg == "--isolate") {
      Args.Isolate.Enabled = true;
    } else if (Arg == "--worker-deadline" && I + 1 < Argc) {
      readFlag("--worker-deadline", Argv[++I],
               Args.Isolate.UnitDeadlineSeconds, parseSeconds);
    } else if (Arg == "--worker-cpu-limit" && I + 1 < Argc) {
      readFlag("--worker-cpu-limit", Argv[++I],
               Args.Isolate.WorkerCpuLimitSeconds, parseUnsigned);
    } else if (Arg == "--worker-mem-limit" && I + 1 < Argc) {
      readFlag("--worker-mem-limit", Argv[++I], Args.Isolate.WorkerMemLimitMb,
               parseUnsigned);
    } else if (Arg == "--stats") {
      Args.Stats = true;
    } else if (Arg.rfind("--", 0) == 0) {
      // A flag we did not consume above: either unknown or missing its value.
      std::fprintf(stderr, "error: unknown or incomplete option '%s'\n",
                   Arg.c_str());
      return std::nullopt;
    } else if (Args.Input.empty()) {
      Args.Input = Arg;
    } else {
      Args.Names.push_back(Arg);
    }
  }
  return Args;
}

Result<std::string> serve::loadSource(CliArgs &Args) {
  if (startsWith(Args.Input, "corpus:")) {
    const CorpusEntry *Entry = findCorpusEntry(Args.Input.substr(7));
    if (!Entry)
      return Error("unknown corpus entry '" + Args.Input + "'");
    if (Args.Names.empty())
      Args.Names = Entry->SeedNames;
    if (Args.FocusClass.empty())
      Args.FocusClass = Entry->ClassName;
    return Entry->Source;
  }
  std::ifstream In(Args.Input);
  if (!In)
    return Error("cannot open '" + Args.Input + "'");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

int serve::cmdCorpus() {
  for (const CorpusEntry &Entry : corpus())
    std::printf("%s  %-10s %-8s %-30s %u LoC\n", Entry.Id.c_str(),
                Entry.Benchmark.c_str(), Entry.Version.c_str(),
                Entry.ClassName.c_str(), Entry.linesOfCode());
  return 0;
}

int serve::runCommandAndReport(CliArgs &Args, std::string Source,
                               const EngineHooks *Hooks) {
  RunState State;
  int Rc = runCommandImpl(Args, std::move(Source), Hooks, State);
  if (Rc != 2) // Not a usage error: the pipeline actually ran.
    emitObservability(Args, State);
  return Rc;
}
