//===- perfbench/trace.cpp - Benchmark driver over the public layer APIs ---===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The compiled half of the benchmark (run.py is the other half).  Modes:
//
//   perfbench-trace cli <base-seed> <narada-cli args...>
//       The engine call narada-cli's main() makes, with
//       DetectOptions::BaseSeed taken from the workload seed (narada-cli
//       has no flag for it).  Output is byte-identical to narada-cli's.
//
//   perfbench-trace client <socket> <cold-dir> <seed> prime|round <n>|ping|shutdown
//       The serve-mix closed-loop client: one request at a time over the
//       daemon socket, one line per request on stdout.
//
//   perfbench-trace trace <workload> <seed> <out.json> <scratch-dir>
//       The traced run: calls each layer's public functions in process,
//       records a span around every call (name, start, end, parent, test
//       or request id) and MetricsRegistry counter deltas around the same
//       calls, and writes spans plus per-layer metrics to out.json at the
//       end.  run.py derives self times and prints the metrics.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "detect/HBDetector.h"
#include "detect/LockOrderDetector.h"
#include "detect/LockSetDetector.h"
#include "explore/Explorer.h"
#include "gen/GenEngine.h"
#include "obs/Metrics.h"
#include "racedb/RaceDb.h"
#include "racedb/Triage.h"
#include "runtime/Execution.h"
#include "serve/CacheFile.h"
#include "serve/Caches.h"
#include "serve/Daemon.h"
#include "serve/Engine.h"
#include "serve/Protocol.h"
#include "staticrace/LocksetAnalysis.h"
#include "support/Wire.h"
#include "synth/Narada.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace narada;

namespace {

using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, uint64_t>;

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfbench-trace: %s\n", Message.c_str());
  std::exit(1);
}

template <typename T> T take(Result<T> R, const char *What) {
  if (!R)
    die(std::string(What) + ": " + R.error().str());
  return R.take();
}

Counters counters() {
  return obs::MetricsRegistry::global().snapshot().Counters;
}

uint64_t delta(const Counters &Before, const Counters &After,
               const std::string &Name) {
  auto Get = [&](const Counters &C) {
    auto It = C.find(Name);
    return It == C.end() ? 0 : It->second;
  };
  return Get(After) - Get(Before);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Lower median; 0 for no samples.
double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0.0 : V[(V.size() - 1) / 2];
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

//===----------------------------------------------------------------------===//
// Spans and the traced run's output
//===----------------------------------------------------------------------===//

/// In-memory span log; written out once, when the run ends.
class Tracer {
public:
  /// Runs \p Fn inside a span and returns the span's duration in seconds.
  double span(const std::string &Name, const std::string &Id,
              const std::function<void()> &Fn) {
    const int Index = static_cast<int>(Spans.size());
    Spans.push_back({Name, Id, now(), 0.0, Stack.empty() ? -1 : Stack.back()});
    Stack.push_back(Index);
    Fn();
    Stack.pop_back();
    Spans[Index].End = now();
    return Spans[Index].End - Spans[Index].Start;
  }

  void set(const std::string &Name, double Value) { Metrics[Name] = Value; }
  void fail(const std::string &Message) { Failures.push_back(Message); }

  void write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "{\"metrics\": {";
    const char *Sep = "";
    for (const auto &[Name, Value] : Metrics) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
      Out << Sep << jsonString(Name) << ": " << Buf;
      Sep = ", ";
    }
    Out << "},\n\"failures\": [";
    Sep = "";
    for (const std::string &F : Failures) {
      Out << Sep << jsonString(F);
      Sep = ", ";
    }
    Out << "],\n\"spans\": [";
    Sep = "\n";
    for (const SpanRecord &S : Spans) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "%.9f, %.9f, %d", S.Start, S.End,
                    S.Parent);
      Out << Sep << "[" << jsonString(S.Name) << ", " << jsonString(S.Id)
          << ", " << Buf << "]";
      Sep = ",\n";
    }
    Out << "]}\n";
    if (!Out)
      die("cannot write " + Path);
  }

private:
  struct SpanRecord {
    std::string Name, Id;
    double Start, End;
    int Parent;
  };

  double now() const {
    return std::chrono::duration<double>(Clock::now() - Origin).count();
  }

  Clock::time_point Origin = Clock::now();
  std::vector<SpanRecord> Spans;
  std::vector<int> Stack;
  std::map<std::string, double> Metrics;
  std::vector<std::string> Failures;
};

//===----------------------------------------------------------------------===//
// detect-c1 / explore-c6
//===----------------------------------------------------------------------===//

/// Which passive detectors a phase-1 replay attaches.
enum class Detectors { None, HB, LockSet, Both };

const char *detectorsName(Detectors D) {
  switch (D) {
  case Detectors::None:
    return "bare";
  case Detectors::HB:
    return "hb";
  case Detectors::LockSet:
    return "lockset";
  case Detectors::Both:
    return "hb+lockset";
  }
  return "?";
}

/// One set of passive detectors, rebuilt per schedule like detection does.
struct DetectorSet {
  std::optional<HBDetector> HB;
  std::optional<LockSetDetector> LockSet;
  ObserverMux Mux;

  ExecutionObserver *reset(Detectors D) {
    HB.reset();
    LockSet.reset();
    Mux = ObserverMux();
    if (D == Detectors::None)
      return nullptr;
    if (D != Detectors::LockSet)
      Mux.add(&HB.emplace());
    if (D != Detectors::HB)
      Mux.add(&LockSet.emplace());
    return &Mux;
  }
};

struct ExploreTotals {
  double Seconds = 0;
  uint64_t Schedules = 0, Pruned = 0, Steps = 0, Fallbacks = 0;
};

/// Re-executes test \p Test's phase 1 — the same schedules, VM seed and
/// step-budget ladder detection uses — with detectors \p D attached.
void replayPhase1(Tracer &T, const IRModule &M, const std::string &Test,
                  const DetectOptions &Options, Detectors D,
                  ExploreTotals *Explore) {
  DetectorSet Set;
  bool NeedRandom = Options.Mode != ExplorationMode::Systematic;
  if (!NeedRandom) {
    struct Visitor final : explore::ScheduleVisitor {
      DetectorSet &Set;
      Detectors D;
      Visitor(DetectorSet &Set, Detectors D) : Set(Set), D(D) {}
      ExecutionObserver *beginSchedule(unsigned) override {
        return Set.reset(D);
      }
      bool endSchedule(const explore::ScheduleTrace &,
                       const TestRun &) override {
        return true;
      }
    } V(Set, D);
    explore::ExploreOptions ExOpts = Options.Explore;
    ExOpts.MaxSteps = Options.MaxSteps;
    ExOpts.RandSeed = 1;
    const Counters Before = counters();
    std::optional<explore::ExploreOutcome> Outcome;
    double Seconds = T.span("explore.exploreSchedules", Test, [&] {
      Outcome = take(explore::exploreSchedules(M, Test, ExOpts, V),
                     "exploreSchedules");
    });
    if (Explore) {
      Explore->Seconds += Seconds;
      Explore->Schedules += Outcome->SchedulesRun;
      Explore->Pruned += Outcome->Pruned;
      Explore->Steps += delta(Before, counters(), "runtime.steps");
      Explore->Fallbacks += Outcome->Exhausted ? 0 : 1;
    }
    NeedRandom = !Outcome->Exhausted;
  }
  if (!NeedRandom)
    return;
  const uint64_t Factor =
      std::max<uint64_t>(2, Options.StepBudgetEscalation);
  T.span("runtime.randomRuns", Test, [&] {
    for (unsigned RunIdx = 0; RunIdx < Options.RandomRuns; ++RunIdx) {
      uint64_t Budget = Options.MaxSteps;
      for (unsigned Try = 0;; ++Try, Budget *= Factor) {
        RandomPolicy Policy(Options.BaseSeed + RunIdx);
        TestRun Run = take(runTest(M, Test, Policy, /*RandSeed=*/1,
                                   Set.reset(D), Budget),
                           "runTest");
        if (!Run.Result.HitStepLimit || Try >= Options.StepLimitRetries)
          break;
      }
    }
  });
}

void traceDetect(Tracer &T, bool Systematic, uint64_t Seed) {
  const CorpusEntry *Entry = findCorpusEntry(Systematic ? "C6" : "C1");
  DetectOptions Options;
  Options.BaseSeed = Seed;
  if (Systematic)
    Options.Mode = ExplorationMode::Systematic;
  NaradaOptions Pipeline;
  Pipeline.FocusClass = Entry->ClassName;

  struct TestRow {
    std::string Name;
    double Seconds = 0;
    uint64_t Steps = 0;
    bool Quarantined = false;
    bool Racy = false; ///< Detected or reproduced anything.
  };
  std::vector<TestRow> Rows;
  std::optional<NaradaResult> R;
  std::set<std::string> Reproduced;
  const Counters Start = counters();

  // The pass: what `detect corpus:Cn --jobs 1` computes, one call per layer.
  double PassSeconds = T.span("pass", "", [&] {
    T.span("synth.runNarada", Entry->Id, [&] {
      R = take(runNarada(Entry->Source, Entry->SeedNames, Pipeline),
               "runNarada");
    });
    const IRModule &M = *R->Program.Module;
    for (const SynthesizedTestInfo &Info : R->Tests) {
      TestRow Row{Info.Name};
      const Counters Before = counters();
      Row.Seconds = T.span("detect.detectRacesInTest", Info.Name, [&] {
        TestDetectionResult D = take(
            detectRacesInTest(M, Info.Name, Options, Info.CandidateLabels),
            "detectRacesInTest");
        Row.Quarantined = D.Quarantined;
        Row.Racy = !D.Detected.empty() || D.reproducedCount() > 0;
        for (const ConfirmedRace &C : D.Races)
          if (C.Reproduced)
            Reproduced.insert(C.Report.key());
      });
      Row.Steps = delta(Before, counters(), "runtime.steps");
      // The lock-order scan the detect command runs after each racy test.
      if (Row.Racy)
        T.span("detect.lockOrder", Info.Name, [&] {
          LockOrderDetector LockOrder;
          RandomPolicy Policy(1);
          (void)runTest(M, Info.Name, Policy, 1, &LockOrder);
        });
      Rows.push_back(Row);
    }
  });
  const Counters End = counters();
  const IRModule &M = *R->Program.Module;

  T.set("trace.run_s", PassSeconds);
  for (const char *Name :
       {"runtime.steps", "runtime.step_limit_hits", "runtime.context_switches",
        "detect.hb_reports", "detect.vc_compares",
        "detect.lockset_intersections", "detect.confirm_runs",
        "detect.step_limit_runs", "detect.retries"})
    T.set(Name, static_cast<double>(delta(Start, End, Name)));
  T.set("detect.races_reproduced", static_cast<double>(Reproduced.size()));
  T.set("detect.confirm_yield",
        ratio(Reproduced.size(), delta(Start, End, "detect.confirm_runs")));

  std::vector<double> TestSeconds;
  double QuarantinedSeconds = 0;
  uint64_t QuarantinedSteps = 0;
  for (const TestRow &Row : Rows) {
    TestSeconds.push_back(Row.Seconds);
    if (Row.Quarantined) {
      QuarantinedSeconds += Row.Seconds;
      QuarantinedSteps += Row.Steps;
    }
  }
  if (TestSeconds.empty())
    die("the pipeline synthesized no tests");
  T.set("detect.test_p50_s", median(TestSeconds));
  T.set("detect.test_max_s",
        *std::max_element(TestSeconds.begin(), TestSeconds.end()));
  T.set("detect.quarantined_s", QuarantinedSeconds);
  T.set("detect.quarantined_steps_share",
        ratio(QuarantinedSteps, delta(Start, End, "runtime.steps")));

  // Phase-1 replays of every test that finished phase 1 (a quarantined
  // test stops inside it; its cost is detect.quarantined_s).  Bare gives
  // the VM's own cost; each detector's cost is its time over bare.
  std::map<Detectors, double> Phase1;
  std::map<std::string, double> Phase1ByTest;
  ExploreTotals Explore;
  uint64_t BareSteps = 0;
  for (Detectors D : {Detectors::None, Detectors::HB, Detectors::LockSet,
                      Detectors::Both}) {
    const Counters Before = counters();
    Phase1[D] = T.span(std::string("phase1.") + detectorsName(D), "", [&] {
      for (const TestRow &Row : Rows) {
        if (Row.Quarantined)
          continue;
        double Seconds = T.span("detect.phase1", Row.Name, [&] {
          replayPhase1(T, M, Row.Name, Options, D,
                       D == Detectors::Both ? &Explore : nullptr);
        });
        if (D == Detectors::Both)
          Phase1ByTest[Row.Name] = Seconds;
      }
    });
    if (D == Detectors::None)
      BareSteps = delta(Before, counters(), "runtime.steps");
  }
  const double Bare = Phase1[Detectors::None];
  T.set("runtime.bare_s", Bare);
  T.set("runtime.steps_per_s", ratio(BareSteps, Bare));
  T.set("detect.phase1_s", Phase1[Detectors::Both]);
  T.set("detect.hb_s", Phase1[Detectors::HB] - Bare);
  T.set("detect.lockset_s", Phase1[Detectors::LockSet] - Bare);
  double Confirm = 0;
  for (const TestRow &Row : Rows)
    if (!Row.Quarantined)
      Confirm += Row.Seconds - Phase1ByTest[Row.Name];
  T.set("detect.confirm_s", std::max(0.0, Confirm));

  if (Systematic) {
    T.set("explore.explore_s", Explore.Seconds);
    T.set("explore.schedules_run", static_cast<double>(Explore.Schedules));
    T.set("explore.pruned", static_cast<double>(Explore.Pruned));
    T.set("explore.steps_per_schedule", ratio(Explore.Steps, Explore.Schedules));
    T.set("explore.fallbacks", static_cast<double>(Explore.Fallbacks));
    const auto &Gauges = obs::MetricsRegistry::global().snapshot().Gauges;
    auto Peak = Gauges.find("explore.frontier_peak");
    T.set("explore.frontier_peak",
          Peak == Gauges.end() ? 0.0 : static_cast<double>(Peak->second));
  }
}

//===----------------------------------------------------------------------===//
// gen-seeds
//===----------------------------------------------------------------------===//

void traceGenSeeds(Tracer &T, uint64_t Seed) {
  const Counters Start = counters();
  Counters GenBefore, GenAfter;
  uint64_t GenStepLimits = 0, Pairs = 0, Tests = 0;
  double PairGen = 0, Stage = 0, Generate = 0;

  auto Synthesize = [&](const std::string &Id, const std::string &Source,
                        const std::vector<std::string> &Seeds,
                        const std::string &Focus) {
    NaradaOptions Options;
    Options.FocusClass = Focus;
    std::optional<NaradaResult> R;
    T.span("synth.runNarada", Id, [&] {
      R = take(runNarada(Source, Seeds, Options), "runNarada");
    });
    PairGen += R->Stages.PairGenSeconds;
    Stage += R->Stages.SynthesisSeconds;
    Pairs += R->Pairs.size();
    Tests += R->Tests.size();
  };

  // The pass: per class, `synthesize --gen-seeds` then `synthesize`.
  double PassSeconds = T.span("pass", "", [&] {
    for (const CorpusEntry &Entry : corpus()) {
      gen::GenOptions Options;
      Options.FocusClass = Entry.ClassName;
      Options.Seed = Seed;
      std::optional<gen::GenResult> G;
      const Counters Before = counters();
      Generate += T.span("gen.generateSeedCorpus", Entry.Id, [&] {
        G = take(gen::generateSeedCorpus(Entry.Source, Options),
                 "generateSeedCorpus");
      });
      GenStepLimits += delta(Before, counters(), "runtime.step_limit_hits");
      Synthesize(Entry.Id + "/gen", G->CorpusSource, G->SeedNames,
                 Entry.ClassName);
      Synthesize(Entry.Id + "/hand", Entry.Source, Entry.SeedNames,
                 Entry.ClassName);
    }
  });
  const Counters End = counters();
  T.set("trace.run_s", PassSeconds);
  T.set("gen.generate_s", Generate);
  T.set("gen.candidates", delta(Start, End, "gen.candidates"));
  T.set("gen.keep_ratio", ratio(delta(Start, End, "gen.seeds_kept"),
                                delta(Start, End, "gen.candidates")));
  T.set("gen.faulty_ratio", ratio(delta(Start, End, "gen.candidates_faulty"),
                                  delta(Start, End, "gen.candidates")));
  T.set("gen.step_limit_hits", static_cast<double>(GenStepLimits));
  T.set("synth.pairgen_s", PairGen);
  T.set("synth.stage_s", Stage);
  T.set("synth.pairs", static_cast<double>(Pairs));
  T.set("synth.tests", static_cast<double>(Tests));
  T.set("synth.derive_complete_ratio",
        ratio(delta(Start, End, "synth.derivations_complete"),
              delta(Start, End, "synth.derivations_attempted")));
  for (const char *Name : {"runtime.steps", "runtime.step_limit_hits",
                           "runtime.context_switches"})
    T.set(Name, static_cast<double>(delta(Start, End, Name)));

  // Front-end layers on the hand-written seeds, one call at a time.
  double Compile = 0, Summarize = 0, SeedRun = 0, Analyze = 0;
  uint64_t Events = 0;
  for (const CorpusEntry &Entry : corpus()) {
    std::optional<CompiledProgram> P;
    Compile += T.span("lang.compileProgram", Entry.Id, [&] {
      P = take(compileProgram(Entry.Source), "compileProgram");
    });
    Summarize += T.span("staticrace.summarizeModule", Entry.Id, [&] {
      (void)staticrace::summarizeModule(*P->Module);
    });
    for (const std::string &SeedName : Entry.SeedNames) {
      std::optional<TestRun> Run;
      SeedRun += T.span("runtime.runTestSequential", SeedName, [&] {
        Run = take(runTestSequential(*P->Module, SeedName),
                   "runTestSequential");
      });
      Analyze += T.span("analysis.analyzeTrace", SeedName, [&] {
        (void)analyzeTrace(Run->TheTrace, *P->Info);
      });
      Events += Run->TheTrace.size();
    }
  }
  T.set("lang.compile_s", Compile);
  T.set("staticrace.summarize_s", Summarize);
  T.set("analysis.seed_run_s", SeedRun);
  T.set("analysis.analyze_s", Analyze);
  T.set("analysis.trace_events", static_cast<double>(Events));
}

//===----------------------------------------------------------------------===//
// serve-mix
//===----------------------------------------------------------------------===//

const std::vector<std::string> ServeClasses = {"C2", "C3", "C7", "C8", "C9"};
constexpr unsigned WarmPerClass = 4;

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

struct MixRequest {
  std::string Class;
  bool Edited = false;
  uint64_t Pad = 0;
};

/// Round \p Round of the serve-mix stream: per class, WarmPerClass
/// unchanged resubmits and one edited one, in a seed-shuffled order.  The
/// edit's pad value is distinct per (class, round), so every edit is a
/// new one-statement change.
std::vector<MixRequest> roundPlan(uint64_t Seed, unsigned Round) {
  uint64_t State = Seed;
  const uint64_t PadBase = splitmix(State) % 1000000;
  std::vector<MixRequest> Plan;
  for (const std::string &Class : ServeClasses) {
    for (unsigned I = 0; I < WarmPerClass; ++I)
      Plan.push_back({Class, false, 0});
    Plan.push_back({Class, true, PadBase + Round});
  }
  State = Seed * 1000003 + Round;
  for (size_t I = Plan.size(); I > 1; --I)
    std::swap(Plan[I - 1], Plan[splitmix(State) % I]);
  return Plan;
}

serve::SubmitRequest submitRequest(const MixRequest &Req) {
  const CorpusEntry *Entry = findCorpusEntry(Req.Class);
  serve::SubmitRequest Out;
  Out.Args.Command = "detect";
  Out.Args.Input = "corpus:" + Entry->Id;
  Out.Args.Names = Entry->SeedNames;
  Out.Args.FocusClass = Entry->ClassName;
  Out.Args.StaticRank = true;
  Out.Args.ReportPath = "perfbench"; // Presence = want_report bit.
  Out.WantReport = true;
  Out.Source = Entry->Source;
  if (Req.Edited) {
    const std::string Anchor = "synchronized {";
    size_t At = Out.Source.find(Anchor);
    if (At == std::string::npos)
      die(Entry->Id + " has no synchronized method to edit");
    Out.Source.insert(At + Anchor.size(), " var benchPad: int = " +
                                              std::to_string(Req.Pad) + ";");
  }
  return Out;
}

uint64_t reportCounter(const std::string &Report, const std::string &Name) {
  const std::string Key = "\"" + Name + "\":";
  size_t At = Report.find(Key);
  return At == std::string::npos
             ? 0
             : std::strtoull(Report.c_str() + At + Key.size(), nullptr, 10);
}

uint64_t warmCacheHits(const std::string &Report) {
  return reportCounter(Report, "serve.cache.summary.hits") +
         reportCounter(Report, "serve.cache.analysis.hits") +
         reportCounter(Report, "serve.cache.detect.hits");
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Bytes;
  if (!Out)
    die("cannot write " + Path);
}

double fileKb(const std::string &Path) {
  std::error_code EC;
  auto Size = std::filesystem::file_size(Path, EC);
  return EC ? 0.0 : static_cast<double>(Size) / 1024.0;
}

void traceServe(Tracer &T, uint64_t Seed, const std::string &Dir,
                const std::string &Exe) {
  const std::string CachePath = Dir + "/trace.cache";
  const std::string DbPath = Dir + "/trace.racedb";
  std::filesystem::remove(CachePath);
  std::filesystem::remove(DbPath);
  serve::ServeCaches Caches(CachePath);
  racedb::RaceDb Db;
  std::map<std::string, std::string> Cold;
  uint64_t Index = 0;
  std::vector<double> Warm, Edit, CacheSave, DbSave, Ingest;
  uint64_t SummaryHits = 0, SummaryMisses = 0, DetectHits = 0,
           DetectMisses = 0, Reanalyzed = 0;

  // One request the way the daemon serves it: handle, then persist both
  // stores.  The race-database ingest is timed on the returned report.
  auto Serve = [&](const MixRequest &Req, const std::string &Id) {
    serve::SubmitResponse Resp;
    double Handle = T.span("serve.handleSubmit", Id, [&] {
      Resp = serve::handleSubmit(submitRequest(Req), &Caches, Exe, Index++);
    });
    const Counters C = counters(); // handleSubmit resets per request.
    if (!Resp.Ok || Resp.Exit != 0)
      T.fail(Id + ": request failed");
    Ingest.push_back(T.span("racedb.ingest", Id, [&] {
      racedb::RunObservation Obs =
          take(racedb::observationFromReportText(Resp.Report),
               "observationFromReportText");
      racedb::ingest(Db, {Obs});
    }));
    CacheSave.push_back(T.span("serve.ServeCaches.save", Id, [&] {
      if (!Caches.save())
        T.fail(Id + ": cache save failed");
    }));
    DbSave.push_back(T.span("racedb.saveRaceDb", Id, [&] {
      if (!racedb::saveRaceDb(DbPath, Db))
        T.fail(Id + ": racedb save failed");
    }));
    return std::make_tuple(Resp, Handle, C);
  };

  for (const std::string &Class : ServeClasses) {
    auto [Resp, Handle, C] = Serve({Class, false, 0}, "cold/" + Class);
    Cold[Class] = Resp.Stdout;
  }
  const unsigned Rounds = 4;
  double PassSeconds = T.span("pass", "", [&] {
    for (unsigned Round = 0; Round < Rounds; ++Round)
      for (const MixRequest &Req : roundPlan(Seed, Round)) {
        const std::string Id = (Req.Edited ? "edit/" : "warm/") + Req.Class +
                               "/" + std::to_string(Round);
        auto [Resp, Handle, C] = Serve(Req, Id);
        (Req.Edited ? Edit : Warm).push_back(Handle * 1000.0);
        SummaryHits += C["serve.cache.summary.hits"];
        SummaryMisses += C["serve.cache.summary.misses"];
        DetectHits += C["serve.cache.detect.hits"];
        DetectMisses += C["serve.cache.detect.misses"];
        Reanalyzed += C["serve.cone_reanalyzed_methods"];
        if (!Req.Edited && Resp.Stdout != Cold[Req.Class])
          T.fail(Id + ": warm response differs from the cold one");
        if (!Req.Edited && warmCacheHits(Resp.Report) == 0)
          T.fail(Id + ": warm report shows zero serve.cache hits");
      }
  });
  T.set("serve.restart_s", T.span("serve.restart", "", [&] {
    (void)take(serve::loadCacheFile(CachePath), "loadCacheFile");
    (void)take(racedb::loadRaceDb(DbPath), "loadRaceDb");
  }));

  T.set("trace.run_s", PassSeconds / Rounds); // One round, like run_s.
  T.set("serve.handle_warm_ms", median(Warm));
  T.set("serve.handle_edit_ms", median(Edit));
  T.set("serve.hit_ratio.summary",
        ratio(SummaryHits, SummaryHits + SummaryMisses));
  T.set("serve.hit_ratio.detect", ratio(DetectHits, DetectHits + DetectMisses));
  T.set("serve.cone_reanalyzed_methods", static_cast<double>(Reanalyzed));
  T.set("serve.cache_save_ms", median(CacheSave) * 1000.0);
  T.set("serve.cache_file_kb", fileKb(CachePath));
  T.set("racedb.ingest_ms", median(Ingest) * 1000.0);
  T.set("racedb.save_ms", median(DbSave) * 1000.0);
  T.set("racedb.records", static_cast<double>(Db.Races.size()));
  T.set("racedb.file_kb", fileKb(DbPath));
}

//===----------------------------------------------------------------------===//
// serve-mix client
//===----------------------------------------------------------------------===//

/// One connected round trip; nullopt when the daemon is unreachable.
std::optional<std::string> roundTrip(const std::string &Socket,
                                     const std::string &Request) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Socket.c_str(), sizeof(Addr.sun_path) - 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return std::nullopt;
  std::string Payload;
  bool Ok = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)) == 0 &&
            wire::writeFrame(Fd, Request) &&
            wire::readFrame(Fd, Payload) == wire::ReadStatus::Ok;
  ::close(Fd);
  if (!Ok)
    return std::nullopt;
  return Payload;
}

std::string verb(const char *Name) {
  wire::RecordWriter W;
  W.add("verb", std::string_view(Name));
  return W.str();
}

/// Submits \p Req; prints "<kind> <class> <round> <seconds> <ok> <why>".
void clientSubmit(const std::string &Socket, const std::string &ColdDir,
                  const MixRequest &Req, const char *Kind, unsigned Round) {
  serve::SubmitRequest S = submitRequest(Req);
  wire::RecordWriter W;
  serve::encodeSubmit(W, S.Args, S.Source);
  auto Start = Clock::now();
  std::optional<std::string> Payload = roundTrip(Socket, W.str());
  double Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
  std::string Why = "ok";
  serve::SubmitResponse Resp;
  if (!Payload) {
    Why = "daemon-unreachable";
  } else {
    wire::RecordReader In(*Payload);
    Resp = serve::decodeResponse(In);
    const std::string ColdPath = ColdDir + "/cold_" + Req.Class + ".out";
    if (In.getOr("verb", "") != "result" || !Resp.Ok || Resp.Exit != 0)
      Why = "request-failed";
    else if (std::strcmp(Kind, "cold") == 0)
      writeFile(ColdPath, Resp.Stdout);
    else if (std::strcmp(Kind, "warm") == 0 &&
             Resp.Stdout != readFile(ColdPath))
      Why = "warm-differs-from-cold";
    else if (std::strcmp(Kind, "warm") == 0 && warmCacheHits(Resp.Report) == 0)
      Why = "warm-zero-cache-hits";
  }
  std::printf("%s %s %u %.9f %d %s\n", Kind, Req.Class.c_str(), Round, Seconds,
              Why == "ok" ? 1 : 0, Why.c_str());
}

int runClient(int Argc, char **Argv) {
  const std::string Socket = Argv[2];
  const std::string Action = Argc > 3 ? Argv[3] : "";
  if (Action == "ping") {
    // Readiness poll: up to ~20 s for the daemon to listen.
    for (int Try = 0; Try < 2000; ++Try) {
      if (roundTrip(Socket, verb("ping")))
        return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return 1;
  }
  if (Action == "shutdown")
    return roundTrip(Socket, verb("shutdown")) ? 0 : 1;
  if (Argc < 6)
    die("client: expected <socket> prime|round <cold-dir> <seed> [round]");
  const std::string ColdDir = Argv[4];
  const uint64_t Seed = std::stoull(Argv[5]);
  if (Action == "prime") {
    for (const std::string &Class : ServeClasses)
      clientSubmit(Socket, ColdDir, {Class, false, 0}, "cold", 0);
    return 0;
  }
  if (Action == "round" && Argc >= 7) {
    const unsigned Round = static_cast<unsigned>(std::stoul(Argv[6]));
    for (const MixRequest &Req : roundPlan(Seed, Round))
      clientSubmit(Socket, ColdDir, Req, Req.Edited ? "edit" : "warm", Round);
    return 0;
  }
  die("client: unknown action '" + Action + "'");
}

//===----------------------------------------------------------------------===//
// cli
//===----------------------------------------------------------------------===//

int runCli(int Argc, char **Argv) {
  const uint64_t BaseSeed = std::stoull(Argv[2]);
  std::vector<char *> Rest{Argv[0]};
  for (int I = 3; I < Argc; ++I)
    Rest.push_back(Argv[I]);
  std::optional<serve::CliArgs> Args =
      serve::parseArgs(static_cast<int>(Rest.size()), Rest.data());
  if (!Args || Args->Input.empty())
    return serve::usage();
  Args->Detect.BaseSeed = BaseSeed;
  Result<std::string> Source = serve::loadSource(*Args);
  if (!Source) {
    std::fprintf(stderr, "error: %s\n", Source.error().str().c_str());
    return 1;
  }
  return serve::runCommandAndReport(*Args, *Source);
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string Mode = Argc > 1 ? Argv[1] : "";
  if (Mode == "cli" && Argc >= 3)
    return runCli(Argc, Argv);
  if (Mode == "client" && Argc >= 4)
    return runClient(Argc, Argv);
  if (Mode == "trace" && Argc == 6) {
    const std::string Workload = Argv[2];
    const uint64_t Seed = std::stoull(Argv[3]);
    Tracer T;
    if (Workload == "detect-c1")
      traceDetect(T, /*Systematic=*/false, Seed);
    else if (Workload == "explore-c6")
      traceDetect(T, /*Systematic=*/true, Seed);
    else if (Workload == "gen-seeds")
      traceGenSeeds(T, Seed);
    else if (Workload == "serve-mix")
      traceServe(T, Seed, Argv[5], Argv[0]);
    else
      die("unknown workload '" + Workload + "'");
    T.write(Argv[4]);
    return 0;
  }
  std::fprintf(stderr,
               "usage: perfbench-trace cli <base-seed> <narada-cli args...>\n"
               "       perfbench-trace client <socket> ping|shutdown\n"
               "       perfbench-trace client <socket> prime|round <cold-dir> "
               "<seed> [round]\n"
               "       perfbench-trace trace <workload> <seed> <out.json> "
               "<scratch-dir>\n");
  return 2;
}
