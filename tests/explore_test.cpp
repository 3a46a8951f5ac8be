//===- tests/explore_test.cpp - Schedule exploration tests ---------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The exploration subsystem end to end: trace serialization and replay,
// the bounded DFS (determinism, budgets, exhaustion, finding races that
// random search misses), witness minimization, witness emission through
// Detection at several --jobs values, and fault containment with
// exploration enabled.
//
//===----------------------------------------------------------------------===//

#include "RunRecorded.h"
#include "detect/Detection.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "explore/Explorer.h"
#include "explore/ScheduleTrace.h"
#include "explore/WitnessMinimizer.h"
#include "support/FaultInjection.h"
#include "synth/Narada.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdlib.h>
#include <system_error>

using namespace narada;

namespace {

/// The most picks a replay at the default options consumes.
const uint64_t DefaultMaxPicks = replayStepBudget(DetectOptions());

Result<explore::ScheduleTrace> parseTrace(const std::string &Text) {
  return explore::ScheduleTrace::deserialize(Text, DefaultMaxPicks);
}

Result<explore::ScheduleTrace> readTrace(const std::string &Path) {
  return explore::ScheduleTrace::readFile(Path, DefaultMaxPicks);
}

CompiledProgram compileOk(std::string_view Source) {
  Result<CompiledProgram> R = compileProgram(Source);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : CompiledProgram{};
}

constexpr const char *RacyCounter =
    "class Counter { field count: int;\n"
    "  method inc() { this.count = this.count + 1; } }\n"
    "test racy {\n"
    "  var c: Counter = new Counter;\n"
    "  spawn { c.inc(); }\n"
    "  spawn { c.inc(); }\n"
    "}\n";

/// A race with a narrow interleaving window: the reader only touches
/// `data` while it observes flag == 1, i.e. when it is scheduled into the
/// two-instruction span between the writer's flag stores.  Random search
/// with one run practically never lands there; the systematic DFS reaches
/// it by preempting the writer at its conflicting flag store.
constexpr const char *NarrowWindow =
    "class W { field data: int; field flag: int;\n"
    "  method writer() { this.flag = 1; this.data = 7; this.flag = 0; }\n"
    "  method reader() {\n"
    "    if (this.flag == 1) { this.data = this.data + 1; }\n"
    "  }\n"
    "}\n"
    "test narrow {\n"
    "  var w: W = new W;\n"
    "  spawn { w.writer(); }\n"
    "  spawn { w.reader(); }\n"
    "}\n";

bool anyKeyOnField(const std::vector<RaceReport> &Reports,
                   const std::string &ClassDotField) {
  for (const RaceReport &R : Reports)
    if (R.key().rfind(ClassDotField + "{", 0) == 0)
      return true;
  return false;
}

/// A visitor that just collects each executed schedule's serialized trace
/// (and optionally detects with HB).
class CollectingVisitor : public explore::ScheduleVisitor {
public:
  ExecutionObserver *beginSchedule(unsigned) override {
    HB.emplace();
    return &*HB;
  }
  bool endSchedule(const explore::ScheduleTrace &Trace,
                   const TestRun &Run) override {
    Serialized.push_back(Trace.serialize());
    for (const RaceReport &R : HB->races())
      RaceKeys.insert(R.key());
    return true;
  }

  std::vector<std::string> Serialized;
  std::set<std::string> RaceKeys;

private:
  std::optional<HBDetector> HB;
};

/// A new, empty directory under the gtest temp dir, unique to this
/// object, and removed with everything in it when the object goes.
/// Throws, which stops the test, if the directory cannot be made.
class ScopedTempDir {
public:
  explicit ScopedTempDir(const std::string &Tag)
      : Path(::testing::TempDir() + "narada_explore_" + Tag + "_XXXXXX") {
    if (!::mkdtemp(Path.data()))
      throw std::system_error(errno, std::generic_category(),
                              "mkdtemp " + Path);
  }
  ~ScopedTempDir() {
    std::error_code Ignored;
    std::filesystem::remove_all(Path, Ignored);
  }
  ScopedTempDir(const ScopedTempDir &) = delete;
  ScopedTempDir &operator=(const ScopedTempDir &) = delete;

  const std::string &path() const { return Path; }

private:
  std::string Path;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// ScheduleTrace serialization
//===----------------------------------------------------------------------===//

TEST(ScheduleTraceTest, SerializeDeserializeRoundTrip) {
  explore::ScheduleTrace T;
  T.TestName = "narada_007";
  T.RandSeed = 42;
  T.Picks = {0, 0, 0, 1, 1, 2, 1, 1, 0};
  T.PreemptSteps = {5, 6};
  T.RaceKeys = {"C.f{a:1~b:2}"};

  Result<explore::ScheduleTrace> Back = parseTrace(T.serialize());
  ASSERT_TRUE(Back.hasValue()) << Back.error().str();
  EXPECT_EQ(Back->TestName, T.TestName);
  EXPECT_EQ(Back->RandSeed, T.RandSeed);
  EXPECT_EQ(Back->Picks, T.Picks);
  EXPECT_EQ(Back->PreemptSteps, T.PreemptSteps);
  EXPECT_EQ(Back->RaceKeys, T.RaceKeys);
  // Serialization is canonical: a round trip reproduces the exact text.
  EXPECT_EQ(Back->serialize(), T.serialize());
}

TEST(ScheduleTraceTest, RejectsMalformedInput) {
  EXPECT_FALSE(parseTrace("").hasValue());
  EXPECT_FALSE(parseTrace("not-a-schedule\n").hasValue());
  // Missing the test name.
  EXPECT_FALSE(parseTrace("narada.schedule/v1\nseed 1\n").hasValue());
  // Bad picks token.
  EXPECT_FALSE(
      parseTrace("narada.schedule/v1\ntest t\npicks 0y3\n").hasValue());
  // Unknown directive.
  EXPECT_FALSE(
      parseTrace("narada.schedule/v1\ntest t\nfrobnicate 1\n").hasValue());
}

TEST(ScheduleTraceTest, RejectsAThreadIdPastNoThread) {
  // A cast to ThreadId would replay 4294967296 as thread 0.
  Result<explore::ScheduleTrace> Wrapped =
      parseTrace("narada.schedule/v1\ntest t\npicks 0x2 4294967296x5\n");
  ASSERT_FALSE(Wrapped.hasValue());
  EXPECT_EQ(Wrapped.error().str(),
            "schedule trace line 3: thread id in '4294967296x5' is out of "
            "range");
  EXPECT_FALSE(parseTrace("narada.schedule/v1\ntest t\npicks 4294967295x1\n")
                   .hasValue());
  Result<explore::ScheduleTrace> Highest =
      parseTrace("narada.schedule/v1\ntest t\npicks 4294967294x1\n");
  ASSERT_TRUE(Highest.hasValue()) << Highest.error().str();
  EXPECT_EQ(Highest->Picks, std::vector<ThreadId>{NoThread - 1});
}

TEST(ScheduleTraceTest, RejectsMorePicksThanTheReplayConsumes) {
  // MaxSteps * 4^StepLimitRetries at the defaults.
  ASSERT_EQ(DefaultMaxPicks, 6'400'000u);
  // Refused before the run is expanded: a trillion picks is 4 TB.
  Result<explore::ScheduleTrace> Huge =
      parseTrace("narada.schedule/v1\ntest t\npicks 2x1000000000000\n");
  ASSERT_FALSE(Huge.hasValue());
  EXPECT_EQ(Huge.error().str(),
            "schedule trace line 3: more than 6400000 picks, the most a "
            "replay can consume");
  // The count runs across tokens and lines.
  const std::string Header = "narada.schedule/v1\ntest t\n";
  Result<explore::ScheduleTrace> Full = explore::ScheduleTrace::deserialize(
      Header + "picks 0x6 1x3\npicks 0x1\n", 10);
  ASSERT_TRUE(Full.hasValue()) << Full.error().str();
  EXPECT_EQ(Full->Picks.size(), 10u);
  Result<explore::ScheduleTrace> Over = explore::ScheduleTrace::deserialize(
      Header + "picks 0x6 1x3\npicks 0x2\n", 10);
  ASSERT_FALSE(Over.hasValue());
  EXPECT_EQ(Over.error().str(),
            "schedule trace line 4: more than 10 picks, the most a replay "
            "can consume");
}

TEST(ScheduleTraceTest, CommentsAndBlankLinesIgnored) {
  Result<explore::ScheduleTrace> T = parseTrace(
      "# a witness\nnarada.schedule/v1\n\ntest t\n# seed next\nseed 9\n"
      "picks 1x3 0x2\n");
  ASSERT_TRUE(T.hasValue()) << T.error().str();
  EXPECT_EQ(T->RandSeed, 9u);
  ASSERT_EQ(T->Picks.size(), 5u);
  EXPECT_EQ(T->Picks[0], 1u);
  EXPECT_EQ(T->Picks[4], 0u);
}

TEST(ScheduleTraceTest, FileRoundTrip) {
  ScopedTempDir Temp("file_round_trip");
  const std::string &Dir = Temp.path();
  explore::ScheduleTrace T;
  T.TestName = "t";
  T.Picks = {0, 1, 0};
  std::string Path = Dir + "/t.trace";
  ASSERT_TRUE(T.writeFile(Path).ok());
  Result<explore::ScheduleTrace> Back = readTrace(Path);
  ASSERT_TRUE(Back.hasValue()) << Back.error().str();
  EXPECT_EQ(Back->Picks, T.Picks);
  EXPECT_FALSE(readTrace(Dir + "/missing.trace").hasValue());
}

//===----------------------------------------------------------------------===//
// Record / replay
//===----------------------------------------------------------------------===//

TEST(ScheduleReplayTest, RecordedScheduleReplaysByteIdentically) {
  CompiledProgram P = compileOk(RacyCounter);
  RandomPolicy Inner(7);
  explore::RecordingPolicy Recorder(Inner);
  Result<TestRun> Original = runRecorded(*P.Module, "racy", Recorder);
  ASSERT_TRUE(Original.hasValue());
  ASSERT_FALSE(Original->TheTrace.empty());

  explore::ScheduleTrace Trace = Recorder.trace("racy", 1);
  EXPECT_EQ(Trace.Picks.size(), Original->Result.Steps);

  explore::ReplayPolicy Replay(Trace);
  Result<TestRun> Replayed = runRecorded(*P.Module, "racy", Replay);
  ASSERT_TRUE(Replayed.hasValue());
  EXPECT_FALSE(Replay.diverged());
  EXPECT_EQ(Replayed->HeapHash, Original->HeapHash);
  EXPECT_EQ(Replayed->Result.Steps, Original->Result.Steps);
  // The strongest form: the full event traces are identical.
  EXPECT_EQ(printTrace(Replayed->TheTrace), printTrace(Original->TheTrace));
}

TEST(ScheduleReplayTest, SerializedTraceReplaysIdentically) {
  CompiledProgram P = compileOk(NarrowWindow);
  PreemptionBoundedPolicy Inner(11, /*PreemptPercent=*/40);
  explore::RecordingPolicy Recorder(Inner);
  Result<TestRun> Original = runRecorded(*P.Module, "narrow", Recorder);
  ASSERT_TRUE(Original.hasValue());
  ASSERT_FALSE(Original->TheTrace.empty());

  Result<explore::ScheduleTrace> Back =
      parseTrace(Recorder.trace("narrow", 1).serialize());
  ASSERT_TRUE(Back.hasValue());
  explore::ReplayPolicy Replay(*Back);
  Result<TestRun> Replayed = runRecorded(*P.Module, "narrow", Replay);
  ASSERT_TRUE(Replayed.hasValue());
  EXPECT_FALSE(Replay.diverged());
  EXPECT_EQ(printTrace(Replayed->TheTrace), printTrace(Original->TheTrace));
}

//===----------------------------------------------------------------------===//
// Explorer
//===----------------------------------------------------------------------===//

TEST(ExplorerTest, SingleThreadedTestExhaustsInOneSchedule) {
  CompiledProgram P = compileOk(
      "class C { field n: int; method inc() { this.n = this.n + 1; } }\n"
      "test t { var c: C = new C; c.inc(); }\n");
  CollectingVisitor V;
  Result<explore::ExploreOutcome> Outcome =
      explore::exploreSchedules(*P.Module, "t", {}, V);
  ASSERT_TRUE(Outcome.hasValue()) << Outcome.error().str();
  EXPECT_TRUE(Outcome->Exhausted);
  EXPECT_EQ(Outcome->SchedulesRun, 1u);
  EXPECT_EQ(Outcome->Pruned, 0u);
}

TEST(ExplorerTest, DeterministicScheduleSequence) {
  CompiledProgram P = compileOk(NarrowWindow);
  CollectingVisitor A, B;
  explore::ExploreOptions Opts;
  Result<explore::ExploreOutcome> OA =
      explore::exploreSchedules(*P.Module, "narrow", Opts, A);
  Result<explore::ExploreOutcome> OB =
      explore::exploreSchedules(*P.Module, "narrow", Opts, B);
  ASSERT_TRUE(OA.hasValue());
  ASSERT_TRUE(OB.hasValue());
  EXPECT_EQ(OA->SchedulesRun, OB->SchedulesRun);
  EXPECT_EQ(OA->Pruned, OB->Pruned);
  EXPECT_EQ(A.Serialized, B.Serialized);
  // Every explored schedule is distinct (sleep-set discipline: no
  // (prefix, choice) is executed twice).
  std::set<std::string> Unique(A.Serialized.begin(), A.Serialized.end());
  EXPECT_EQ(Unique.size(), A.Serialized.size());
}

TEST(ExplorerTest, ScheduleBudgetStopsSearch) {
  CompiledProgram P = compileOk(NarrowWindow);
  CollectingVisitor V;
  explore::ExploreOptions Opts;
  Opts.MaxSchedules = 2;
  Result<explore::ExploreOutcome> Outcome =
      explore::exploreSchedules(*P.Module, "narrow", Opts, V);
  ASSERT_TRUE(Outcome.hasValue());
  EXPECT_EQ(Outcome->SchedulesRun, 2u);
  EXPECT_TRUE(Outcome->HitScheduleBudget);
  EXPECT_FALSE(Outcome->Exhausted);
}

TEST(ExplorerTest, VisitorCanStopSearch) {
  CompiledProgram P = compileOk(NarrowWindow);
  class StopAfterOne : public CollectingVisitor {
  public:
    bool endSchedule(const explore::ScheduleTrace &Trace,
                     const TestRun &Run) override {
      CollectingVisitor::endSchedule(Trace, Run);
      return false;
    }
  };
  StopAfterOne V;
  Result<explore::ExploreOutcome> Outcome =
      explore::exploreSchedules(*P.Module, "narrow", {}, V);
  ASSERT_TRUE(Outcome.hasValue());
  EXPECT_TRUE(Outcome->Stopped);
  EXPECT_EQ(Outcome->SchedulesRun, 1u);
}

TEST(ExplorerTest, FindsNarrowWindowRace) {
  CompiledProgram P = compileOk(NarrowWindow);
  CollectingVisitor V;
  Result<explore::ExploreOutcome> Outcome =
      explore::exploreSchedules(*P.Module, "narrow", {}, V);
  ASSERT_TRUE(Outcome.hasValue());
  EXPECT_TRUE(Outcome->Exhausted)
      << "the default budget should cover this tiny space";
  bool SawDataRace = false;
  for (const std::string &Key : V.RaceKeys)
    SawDataRace = SawDataRace || Key.rfind("W.data{", 0) == 0;
  EXPECT_TRUE(SawDataRace)
      << "DFS should reach the reader's flag==1 window";
}

//===----------------------------------------------------------------------===//
// Detection integration: systematic finds what random misses
//===----------------------------------------------------------------------===//

TEST(ExploreDetectionTest, SystematicFindsRaceRandomMisses) {
  CompiledProgram P = compileOk(NarrowWindow);

  // Find a seed under which a single random run misses the narrow window.
  // Most seeds should: the reader must land inside a two-instruction span
  // of the writer.  If every seed in this range hit it, the window would
  // not be narrow and the whole test would be vacuous.
  std::optional<uint64_t> MissSeed;
  for (uint64_t Seed = 1; Seed <= 32 && !MissSeed; ++Seed) {
    DetectOptions Weak;
    Weak.Mode = ExplorationMode::Random;
    Weak.RandomRuns = 1;
    Weak.ConfirmAttempts = 1;
    Weak.BaseSeed = Seed;
    Result<TestDetectionResult> RandomResult =
        detectRacesInTest(*P.Module, "narrow", Weak);
    ASSERT_TRUE(RandomResult.hasValue());
    if (!anyKeyOnField(RandomResult->Detected, "W.data"))
      MissSeed = Seed;
  }
  ASSERT_TRUE(MissSeed.has_value())
      << "premise broken: every random seed hits the narrow window";

  // Systematic search under the same options and seed covers the window
  // deterministically — the seed only feeds the VM rand() stream, not the
  // schedule enumeration.
  DetectOptions Systematic;
  Systematic.Mode = ExplorationMode::Systematic;
  Systematic.RandomRuns = 1;
  Systematic.ConfirmAttempts = 1;
  Systematic.BaseSeed = *MissSeed;
  Result<TestDetectionResult> SysResult =
      detectRacesInTest(*P.Module, "narrow", Systematic);
  ASSERT_TRUE(SysResult.hasValue());
  EXPECT_TRUE(anyKeyOnField(SysResult->Detected, "W.data"));
  EXPECT_TRUE(SysResult->ExplorationExhausted);
  EXPECT_GT(SysResult->SchedulesRun, 1u);
  EXPECT_GT(SysResult->SchedulesPruned, 0u);
}

TEST(ExploreDetectionTest, PCTModeRunsAndDetects) {
  CompiledProgram P = compileOk(RacyCounter);
  DetectOptions Options;
  Options.Mode = ExplorationMode::PCT;
  Options.RandomRuns = 8;
  Options.ConfirmAttempts = 2;
  Result<TestDetectionResult> R =
      detectRacesInTest(*P.Module, "racy", Options);
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(anyKeyOnField(R->Detected, "Counter.count"));
  EXPECT_EQ(R->SchedulesRun, 8u);
}

//===----------------------------------------------------------------------===//
// Witness minimization
//===----------------------------------------------------------------------===//

TEST(WitnessMinimizerTest, MinimizedWitnessHasStrictlyFewerPreemptions) {
  CompiledProgram P = compileOk(RacyCounter);

  // Record a racy schedule under a preemption-happy policy, so the trace
  // carries more preemptions than the race needs.
  std::optional<explore::ScheduleTrace> Recorded;
  std::string TargetKey;
  for (uint64_t Seed = 1; Seed < 64 && !Recorded; ++Seed) {
    HBDetector HB;
    PreemptionBoundedPolicy Inner(Seed, /*PreemptPercent=*/60);
    explore::RecordingPolicy Recorder(Inner);
    Result<TestRun> Run = runTest(*P.Module, "racy", Recorder, 1, &HB);
    ASSERT_TRUE(Run.hasValue());
    if (HB.races().empty() || Recorder.preemptions() < 2)
      continue;
    Recorded = Recorder.trace("racy", 1);
    TargetKey = HB.races().front().key();
    Recorded->RaceKeys = {TargetKey};
  }
  ASSERT_TRUE(Recorded.has_value())
      << "no seed produced a preemption-heavy racy schedule";

  explore::MinimizeOracle Oracle =
      [&](const std::vector<explore::SegmentReplayPolicy::Segment>
              &Candidate) -> std::optional<explore::ScheduleTrace> {
    HBDetector HB;
    explore::SegmentReplayPolicy Inner(Candidate);
    explore::RecordingPolicy Recorder(Inner);
    Result<TestRun> Run = runTest(*P.Module, "racy", Recorder, 1, &HB);
    if (!Run.hasValue())
      return std::nullopt;
    for (const RaceReport &R : HB.races())
      if (R.key() == TargetKey)
        return Recorder.trace("racy", 1);
    return std::nullopt;
  };

  explore::MinimizeOutcome Min = explore::minimizeWitness(*Recorded, Oracle);
  EXPECT_LT(Min.Minimized.preemptions(), Recorded->preemptions())
      << "this race manifests under yield-only schedules, so at least one "
         "recorded preemption must be removable";
  EXPECT_EQ(Min.PreemptionsRemoved,
            Recorded->preemptions() - Min.Minimized.preemptions());
  EXPECT_GT(Min.CandidatesTried, 0u);
  EXPECT_EQ(Min.Minimized.RaceKeys, Recorded->RaceKeys);
}

TEST(WitnessMinimizerTest, IrreducibleTraceSurvivesUnchanged) {
  explore::ScheduleTrace T;
  T.TestName = "t";
  T.Picks = {0, 0, 1, 1};
  // No preemptions recorded: the minimizer has nothing to try.
  explore::MinimizeOutcome Min = explore::minimizeWitness(
      T, [](const auto &) { return std::nullopt; });
  EXPECT_EQ(Min.CandidatesTried, 0u);
  EXPECT_EQ(Min.PreemptionsRemoved, 0u);
  EXPECT_EQ(Min.Minimized.serialize(), T.serialize());
}

//===----------------------------------------------------------------------===//
// Witness emission + replay round trip across --jobs
//===----------------------------------------------------------------------===//

namespace {

/// Four copies of the narrow-window test so a --jobs 4 run actually fans
/// out, plus one clean test.
constexpr const char *MultiNarrow =
    "class W { field data: int; field flag: int;\n"
    "  method writer() { this.flag = 1; this.data = 7; this.flag = 0; }\n"
    "  method reader() {\n"
    "    if (this.flag == 1) { this.data = this.data + 1; }\n"
    "  }\n"
    "}\n"
    "test n0 { var w: W = new W; spawn { w.writer(); } spawn { w.reader(); } }\n"
    "test n1 { var w: W = new W; spawn { w.writer(); } spawn { w.reader(); } }\n"
    "test n2 { var w: W = new W; spawn { w.writer(); } spawn { w.reader(); } }\n"
    "test n3 { var w: W = new W; spawn { w.writer(); } spawn { w.reader(); } }\n"
    "test clean { var w: W = new W; w.writer(); w.reader(); }\n";

std::vector<TestDetectJob> multiNarrowJobs() {
  return {{"n0", {}}, {"n1", {}}, {"n2", {}}, {"n3", {}}, {"clean", {}}};
}

/// A stable digest of everything detection reported, for cross-jobs
/// comparison (witness paths are reduced to basenames since the two runs
/// write into different directories).
std::string digestOf(const std::vector<TestDetectionResult> &Results) {
  std::ostringstream Out;
  for (const TestDetectionResult &R : Results) {
    Out << "[q=" << R.Quarantined << " reason=" << R.QuarantineReason
        << " schedules=" << R.SchedulesRun << " pruned=" << R.SchedulesPruned
        << " exhausted=" << R.ExplorationExhausted << "\n";
    for (const RaceReport &Rep : R.Detected)
      Out << "  detected " << Rep.str() << "\n";
    for (const ConfirmedRace &C : R.Races)
      Out << "  race " << C.Report.key() << " repro=" << C.Reproduced
          << " harmful=" << C.Harmful << "\n";
    for (const std::string &W : R.WitnessFiles)
      Out << "  witness " << std::filesystem::path(W).filename().string()
          << "\n";
    Out << "]\n";
  }
  return Out.str();
}

} // namespace

TEST(WitnessRoundTripTest, EmissionIsByteIdenticalAcrossJobs) {
  CompiledProgram P = compileOk(MultiNarrow);
  ScopedTempDir Temp1("emit_j1");
  ScopedTempDir Temp4("emit_j4");
  const std::string &Dir1 = Temp1.path();
  const std::string &Dir4 = Temp4.path();

  DetectOptions Options;
  Options.Mode = ExplorationMode::Systematic;
  Options.RandomRuns = 1;
  Options.ConfirmAttempts = 2;

  DetectOptions Opts1 = Options;
  Opts1.WitnessDir = Dir1;
  Result<std::vector<TestDetectionResult>> R1 =
      detectRacesInTests(*P.Module, multiNarrowJobs(), Opts1, 1);
  ASSERT_TRUE(R1.hasValue());

  DetectOptions Opts4 = Options;
  Opts4.WitnessDir = Dir4;
  Result<std::vector<TestDetectionResult>> R4 =
      detectRacesInTests(*P.Module, multiNarrowJobs(), Opts4, 4);
  ASSERT_TRUE(R4.hasValue());

  EXPECT_EQ(digestOf(*R1), digestOf(*R4));

  // The witness files themselves are byte-identical too.
  ASSERT_FALSE((*R1)[0].WitnessFiles.empty());
  for (size_t I = 0; I < R1->size(); ++I) {
    ASSERT_EQ((*R1)[I].WitnessFiles.size(), (*R4)[I].WitnessFiles.size());
    for (size_t W = 0; W < (*R1)[I].WitnessFiles.size(); ++W)
      EXPECT_EQ(slurp((*R1)[I].WitnessFiles[W]),
                slurp((*R4)[I].WitnessFiles[W]));
  }
}

TEST(WitnessRoundTripTest, WitnessReplaysToIdenticalRaceReport) {
  CompiledProgram P = compileOk(MultiNarrow);
  ScopedTempDir Temp("replay_round_trip");
  const std::string &Dir = Temp.path();

  DetectOptions Emit;
  Emit.Mode = ExplorationMode::Systematic;
  Emit.RandomRuns = 1;
  Emit.ConfirmAttempts = 2;
  Emit.WitnessDir = Dir;
  Result<std::vector<TestDetectionResult>> Emitted =
      detectRacesInTests(*P.Module, multiNarrowJobs(), Emit, 1);
  ASSERT_TRUE(Emitted.hasValue());
  ASSERT_FALSE((*Emitted)[0].WitnessFiles.empty());

  // Pick the witness that carries the narrow data race.
  std::string WitnessPath;
  for (const std::string &W : (*Emitted)[0].WitnessFiles) {
    Result<explore::ScheduleTrace> T = readTrace(W);
    ASSERT_TRUE(T.hasValue());
    if (!T->RaceKeys.empty() && T->RaceKeys[0].rfind("W.data{", 0) == 0)
      WitnessPath = W;
  }
  ASSERT_FALSE(WitnessPath.empty());

  Result<explore::ScheduleTrace> Trace = readTrace(WitnessPath);
  ASSERT_TRUE(Trace.hasValue());
  EXPECT_EQ(Trace->TestName, "n0");

  DetectOptions Replay;
  Replay.Mode = ExplorationMode::Replay;
  Replay.ConfirmAttempts = 2;
  Replay.ReplayTrace =
      std::make_shared<const explore::ScheduleTrace>(Trace.take());

  auto replayedReports = [&](unsigned Jobs) {
    Result<std::vector<TestDetectionResult>> R = detectRacesInTests(
        *P.Module, {{"n0", {}}}, Replay, Jobs);
    EXPECT_TRUE(R.hasValue());
    std::vector<std::string> Reports;
    for (const RaceReport &Rep : (*R)[0].Detected)
      Reports.push_back(Rep.str());
    return Reports;
  };

  std::vector<std::string> AtJobs1 = replayedReports(1);
  std::vector<std::string> AtJobs4 = replayedReports(4);
  EXPECT_EQ(AtJobs1, AtJobs4);

  // The replayed schedule must re-detect the exact recorded race.
  bool Found = false;
  for (const std::string &Rep : AtJobs1)
    Found = Found || Rep.find("race on W.data") != std::string::npos;
  EXPECT_TRUE(Found) << "replay lost the recorded race";
}

//===----------------------------------------------------------------------===//
// Detector selection: every exploration mode honours UseHB / UseLockSet
//===----------------------------------------------------------------------===//

TEST(DetectorSelectionTest, EachDetectorAloneReportsOnlyItsOwnRaces) {
  CompiledProgram P = compileOk(MultiNarrow);
  RandomPolicy Inner(1);
  explore::RecordingPolicy Recorder(Inner);
  ASSERT_TRUE(runTest(*P.Module, "n0", Recorder, /*RandSeed=*/1).hasValue());
  auto Trace = std::make_shared<const explore::ScheduleTrace>(
      Recorder.trace("n0", /*RandSeed=*/1));

  for (ExplorationMode Mode :
       {ExplorationMode::Random, ExplorationMode::PCT,
        ExplorationMode::Systematic, ExplorationMode::Replay}) {
    for (bool UseHB : {true, false}) {
      SCOPED_TRACE(std::string(explorationModeName(Mode)) +
                   (UseHB ? " hb only" : " lockset only"));
      DetectOptions Options;
      Options.Mode = Mode;
      Options.RandomRuns = 4;
      Options.ConfirmAttempts = 1;
      Options.ReplayTrace = Trace;
      Options.UseHB = UseHB;
      Options.UseLockSet = !UseHB;
      Result<TestDetectionResult> R =
          detectRacesInTest(*P.Module, "n0", Options);
      ASSERT_TRUE(R.hasValue()) << R.error().str();
      ASSERT_FALSE(R->Detected.empty());
      for (const RaceReport &Rep : R->Detected)
        EXPECT_EQ(Rep.Detector, UseHB ? "hb" : "lockset") << Rep.str();
    }
  }
}

//===----------------------------------------------------------------------===//
// Fault containment with exploration enabled
//===----------------------------------------------------------------------===//

TEST(ExploreFaultTest, FaultedPairQuarantinesWithoutAbortingBatch) {
  CompiledProgram P = compileOk(MultiNarrow);
  DetectOptions Options;
  Options.Mode = ExplorationMode::Systematic;
  Options.RandomRuns = 1;
  Options.ConfirmAttempts = 1;

  fault::arm("explore.schedule", /*Unit=*/1);
  Result<std::vector<TestDetectionResult>> Serial =
      detectRacesInTests(*P.Module, multiNarrowJobs(), Options, 1);
  Result<std::vector<TestDetectionResult>> Parallel =
      detectRacesInTests(*P.Module, multiNarrowJobs(), Options, 4);
  fault::disarm();

  ASSERT_TRUE(Serial.hasValue());
  ASSERT_TRUE(Parallel.hasValue());

  EXPECT_FALSE((*Serial)[0].Quarantined);
  EXPECT_TRUE((*Serial)[1].Quarantined);
  EXPECT_NE((*Serial)[1].QuarantineReason.find("injected fault"),
            std::string::npos);
  // Every other test still produced its full results.
  EXPECT_TRUE(anyKeyOnField((*Serial)[0].Detected, "W.data"));
  EXPECT_TRUE(anyKeyOnField((*Serial)[2].Detected, "W.data"));

  // Serial and parallel degrade identically.
  EXPECT_EQ(digestOf(*Serial), digestOf(*Parallel));
}
