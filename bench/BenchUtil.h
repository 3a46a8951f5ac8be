//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: run the full
/// Narada pipeline and the detection protocol over one corpus class, and
/// small fixed-width table printing utilities.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_BENCH_BENCHUTIL_H
#define NARADA_BENCH_BENCHUTIL_H

#include "corpus/Corpus.h"
#include "detect/DetectWorker.h"
#include "detect/Detection.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "support/Env.h"
#include "support/Parallel.h"
#include "support/ProcessPool.h"
#include "support/StringUtils.h"
#include "synth/Narada.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace narada {
namespace bench {

/// Everything measured for one corpus class.
struct ClassRun {
  const CorpusEntry *Entry = nullptr;
  NaradaResult Narada;
  unsigned FocusMethodCount = 0;
  double SynthesisSecondsTotal = 0.0;

  // Detection aggregates (distinct race keys across all tests).
  std::set<std::string> Detected;
  std::set<std::string> Reproduced;
  std::set<std::string> Harmful;
  std::set<std::string> Benign;
  /// Distinct race keys confirmed per test, for the Fig. 14 distribution.
  std::vector<unsigned> RacesPerTest;
  /// Tests pulled from detection (budget exhausted / contained fault); their
  /// partial results still count above, but a non-zero value means the
  /// table's numbers are a lower bound — see docs/ROBUSTNESS.md.
  unsigned Quarantined = 0;
  /// Worker-subprocess deaths contained during this class's detection and
  /// the respawns they cost (non-zero only under NARADA_ISOLATE=1).
  uint64_t WorkerCrashes = 0;
  uint64_t WorkerRespawns = 0;
};

/// Worker-thread count for the bench drivers: the NARADA_JOBS env var
/// (0 = all hardware threads), defaulting to 1 (serial, the measured
/// configuration of the paper's tables).  Unparseable values fall back to
/// the serial default with a warning rather than escalating to 0/"all"
/// (env::jobs's policy — shared with narada-cli).
inline unsigned benchJobs() { return env::jobs(); }

/// Process-isolation options for the bench drivers: the NARADA_ISOLATE env
/// hook (shared with narada-cli; see docs/ROBUSTNESS.md).  Workers exec the
/// narada-cli binary, whose build path CMake pins via NARADA_CLI_PATH.
inline pool::IsolateOptions benchIsolate() {
  pool::IsolateOptions Iso;
  Iso.Enabled = env::isolate(false);
#ifdef NARADA_CLI_PATH
  Iso.WorkerExe = NARADA_CLI_PATH;
#endif
  return Iso;
}

/// Runs synthesis for one class; aborts the process with a message on
/// pipeline errors (benchmarks are not expected to handle them).
/// Worker count: \p JobsOverride when given, otherwise NARADA_JOBS via
/// benchJobs().  Extra.Jobs is deliberately ignored — a default-constructed
/// NaradaOptions is indistinguishable from one explicitly requesting a
/// serial run, so callers that need a pinned count pass JobsOverride.
inline ClassRun runSynthesis(const CorpusEntry &Entry,
                             const NaradaOptions &Extra = {},
                             std::optional<unsigned> JobsOverride = {}) {
  ClassRun Out;
  Out.Entry = &Entry;

  NaradaOptions Options = Extra;
  Options.FocusClass = Entry.ClassName;
  Options.Jobs = JobsOverride ? *JobsOverride : benchJobs();
  if (!Options.Isolate.Enabled)
    Options.Isolate = benchIsolate();

  Result<NaradaResult> R = runNarada(Entry.Source, Entry.SeedNames, Options);
  if (!R) {
    std::fprintf(stderr, "%s: pipeline error: %s\n", Entry.Id.c_str(),
                 R.error().str().c_str());
    std::exit(1);
  }
  Out.Narada = R.take();
  // The pipeline's own phase spans are the single timing source; no second
  // stopwatch around the call.
  Out.SynthesisSecondsTotal = Out.Narada.Stages.totalSeconds();

  const ClassInfo *Focus =
      Out.Narada.Program.Info->findClass(Entry.ClassName);
  Out.FocusMethodCount =
      Focus ? static_cast<unsigned>(Focus->Methods.size()) : 0;
  return Out;
}

/// Runs the detection protocol over every synthesized test of \p Run,
/// fanning tests across NARADA_JOBS workers (aggregation stays in test
/// order, so the numbers are jobs-independent).
inline void runDetection(ClassRun &Run, const DetectOptions &Options) {
  std::vector<TestDetectJob> Jobs;
  for (const SynthesizedTestInfo &T : Run.Narada.Tests)
    Jobs.push_back({T.Name, T.CandidateLabels});
  detectworker::DetectIsolateContext Iso;
  Iso.Isolate = benchIsolate();
  Iso.FinalSource = Run.Narada.FinalSource;
  // pool.* counters accumulate across classes in one bench process; the
  // per-class numbers are the deltas around this sweep.
  obs::MetricsSnapshot Before = obs::MetricsRegistry::global().snapshot();
  Result<std::vector<TestDetectionResult>> Results = detectRacesInTests(
      *Run.Narada.Program.Module, Jobs, Options, benchJobs(),
      Iso.Isolate.Enabled ? &Iso : nullptr);
  if (!Results) {
    std::fprintf(stderr, "%s: detection error: %s\n", Run.Entry->Id.c_str(),
                 Results.error().str().c_str());
    std::exit(1);
  }
  for (size_t I = 0; I < Results->size(); ++I) {
    const TestDetectionResult &D = (*Results)[I];
    if (D.Quarantined) {
      ++Run.Quarantined;
      std::fprintf(stderr, "%s: warning: test %s quarantined: %s\n",
                   Run.Entry->Id.c_str(), Jobs[I].TestName.c_str(),
                   D.QuarantineReason.c_str());
    }
    std::set<std::string> PerTest;
    for (const RaceReport &Race : D.Detected) {
      Run.Detected.insert(Race.key());
      PerTest.insert(Race.key());
    }
    for (const ConfirmedRace &C : D.Races) {
      if (!C.Reproduced)
        continue;
      Run.Detected.insert(C.Report.key());
      Run.Reproduced.insert(C.Report.key());
      PerTest.insert(C.Report.key());
      (C.Harmful ? Run.Harmful : Run.Benign).insert(C.Report.key());
    }
    Run.RacesPerTest.push_back(static_cast<unsigned>(PerTest.size()));
  }
  obs::MetricsSnapshot After = obs::MetricsRegistry::global().snapshot();
  Run.WorkerCrashes = After.counter("pool.workers_crashed") -
                      Before.counter("pool.workers_crashed");
  Run.WorkerRespawns = After.counter("pool.workers_respawned") -
                       Before.counter("pool.workers_respawned");
  if (Run.WorkerCrashes || Run.WorkerRespawns)
    std::fprintf(stderr,
                 "%s: note: %llu worker crash(es) contained, "
                 "%llu respawn(s); table numbers are a lower bound\n",
                 Run.Entry->Id.c_str(),
                 static_cast<unsigned long long>(Run.WorkerCrashes),
                 static_cast<unsigned long long>(Run.WorkerRespawns));
}

/// Phase-1 schedule source for the bench drivers: the NARADA_EXPLORE env
/// var ("random", "pct", "systematic"), defaulting to random — the
/// measured configuration of the paper's tables.  Unparseable values fall
/// back to random with a warning, mirroring benchJobs(); "replay" needs a
/// trace file and has no env spelling.
inline ExplorationMode benchExplorationMode() {
  return env::readOr(
      "NARADA_EXPLORE", ExplorationMode::Random,
      [](const char *Text, ExplorationMode &Mode) {
        return parseExplorationMode(Text, Mode) &&
               Mode != ExplorationMode::Replay;
      },
      "using random schedules");
}

/// Moderate detection options keeping the full-corpus benches fast.
inline DetectOptions defaultDetectOptions() {
  DetectOptions Options;
  Options.RandomRuns = 6;
  Options.ConfirmAttempts = 2;
  Options.Mode = benchExplorationMode();
  return Options;
}

/// Prints a row of fixed-width columns.
inline void printRow(const std::vector<std::string> &Cells,
                     const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I < Cells.size(); ++I) {
    int Width = I < Widths.size() ? Widths[I] : 12;
    if (Width < 0)
      Line += padRight(Cells[I], static_cast<size_t>(-Width));
    else
      Line += padLeft(Cells[I], static_cast<size_t>(Width));
    Line += "  ";
  }
  std::printf("%s\n", Line.c_str());
}

/// Prints a dashed separator sized for \p Widths.
inline void printRule(const std::vector<int> &Widths) {
  size_t Total = 0;
  for (int W : Widths)
    Total += static_cast<size_t>(W < 0 ? -W : W) + 2;
  std::printf("%s\n", std::string(Total, '-').c_str());
}

/// Shared observability surface of the table/figure drivers: construct one
/// at the top of main() and a JSON run report is written on scope exit when
/// `--report <file.json>` was passed (or the NARADA_REPORT env var is set).
class BenchReporter {
public:
  BenchReporter(std::string Tool, int Argc = 0, char **Argv = nullptr) {
    Meta.Tool = std::move(Tool);
    Meta.Command = "bench";
    Meta.addOption("jobs", std::to_string(benchJobs()));
    Meta.addOption("explore", explorationModeName(benchExplorationMode()));
    for (int I = 1; I < Argc; ++I)
      if (std::string(Argv[I]) == "--report" && I + 1 < Argc)
        Path = Argv[++I];
    if (Path.empty())
      if (const char *Env = std::getenv("NARADA_REPORT"))
        Path = Env;
  }

  BenchReporter(const BenchReporter &) = delete;
  BenchReporter &operator=(const BenchReporter &) = delete;

  ~BenchReporter() {
    if (!Path.empty())
      obs::writeRunReport(Path, Meta);
  }

  obs::RunMeta Meta;

private:
  std::string Path;
};

} // namespace bench
} // namespace narada

#endif // NARADA_BENCH_BENCHUTIL_H
