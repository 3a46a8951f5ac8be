//===- tests/process_pool_test.cpp - Out-of-process isolation ------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The --isolate contract end to end (support/ProcessPool.h): the wire
// protocol round-trips, a clean isolated run is byte-identical to the
// in-process pipeline at every job count, and a hard fault injected into
// one unit — SIGSEGV, abort, hang, allocation failure — costs exactly that
// unit: the supervisor survives, classifies the crash, quarantines the
// unit (poisoning it after it kills a second worker), and every other
// unit's result is unchanged.
//
// Worker subprocesses are the real narada-cli binary (NARADA_CLI_PATH,
// injected by tests/CMakeLists.txt), re-exec'd in `worker` mode exactly as
// the CLI's --isolate flag does it.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/DetectWorker.h"
#include "detect/Detection.h"
#include "obs/Metrics.h"
#include "support/FaultInjection.h"
#include "support/ProcessPool.h"
#include "support/Wire.h"
#include "synth/Narada.h"
#include "synth/SynthWorker.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

using namespace narada;

namespace {

//===----------------------------------------------------------------------===//
// Wire protocol framing
//===----------------------------------------------------------------------===//

TEST(WireRecordTest, RoundTripsEscapedValuesAndLists) {
  wire::RecordWriter W;
  W.add("source", "class A {\n  int x;\n}\\end");
  W.add("count", static_cast<uint64_t>(42));
  W.addBool("flag", true);
  W.addDouble("budget", 1.5);
  W.add("seed", "s1");
  W.add("seed", "s2");

  wire::RecordReader R(W.str());
  EXPECT_EQ(R.getOr("source", ""), "class A {\n  int x;\n}\\end");
  EXPECT_EQ(R.getU64("count"), 42u);
  EXPECT_TRUE(R.getBool("flag"));
  EXPECT_DOUBLE_EQ(R.getDouble("budget"), 1.5);
  EXPECT_EQ(R.all("seed"), (std::vector<std::string>{"s1", "s2"}));
  EXPECT_FALSE(R.get("absent").has_value());
}

TEST(WireRecordTest, NestedRecordsSurviveDoubleEscaping) {
  wire::RecordWriter Inner;
  Inner.add("field", "head\nnext");
  wire::RecordWriter Outer;
  Outer.add("race", Inner.str());

  wire::RecordReader OuterR(Outer.str());
  wire::RecordReader InnerR(OuterR.getOr("race", ""));
  EXPECT_EQ(InnerR.getOr("field", ""), "head\nnext");
}

TEST(WireFrameTest, RoundTripsOverAPipe) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  const std::string Payload = "verb=result\nvalue=a\nvalue=b";
  ASSERT_TRUE(wire::writeFrame(Fds[1], Payload));
  std::string Read;
  ASSERT_EQ(wire::readFrame(Fds[0], Read), wire::ReadStatus::Ok);
  EXPECT_EQ(Read, Payload);
  ::close(Fds[1]);
  EXPECT_EQ(wire::readFrame(Fds[0], Read), wire::ReadStatus::Eof);
  ::close(Fds[0]);
}

TEST(WireFrameTest, FrameBufferReassemblesSplitFrames) {
  // Two frames fed one byte at a time must pop out intact and in order.
  std::string Stream;
  for (const char *Payload : {"verb=hb", "verb=ready"}) {
    uint32_t Len = static_cast<uint32_t>(strlen(Payload));
    char Prefix[4] = {static_cast<char>(Len & 0xff),
                      static_cast<char>((Len >> 8) & 0xff),
                      static_cast<char>((Len >> 16) & 0xff),
                      static_cast<char>((Len >> 24) & 0xff)};
    Stream.append(Prefix, 4);
    Stream.append(Payload);
  }
  wire::FrameBuffer Buffer;
  std::vector<std::string> Frames;
  for (char C : Stream) {
    ASSERT_TRUE(Buffer.feed(&C, 1));
    while (std::optional<std::string> F = Buffer.next())
      Frames.push_back(*F);
  }
  EXPECT_EQ(Frames, (std::vector<std::string>{"verb=hb", "verb=ready"}));
  EXPECT_FALSE(Buffer.midFrame());
}

TEST(WireFrameTest, OversizedLengthPrefixPoisonsTheBuffer) {
  // A corrupted length must fail fast, not turn into a 4GiB allocation.
  char Huge[4] = {'\xff', '\xff', '\xff', '\xff'};
  wire::FrameBuffer Buffer;
  EXPECT_FALSE(Buffer.feed(Huge, 4));
  EXPECT_FALSE(Buffer.ok());
  EXPECT_FALSE(Buffer.next().has_value());
}

//===----------------------------------------------------------------------===//
// Isolated pipeline vs in-process: clean-run byte identity
//===----------------------------------------------------------------------===//

/// Arms/unsets NARADA_FAULT_INJECT for spawned workers (children arm
/// themselves from the environment through exec) and guarantees the
/// variable never leaks into a later test's workers.
class ProcessPoolTest : public ::testing::Test {
protected:
  void SetUp() override {
    ::unsetenv("NARADA_FAULT_INJECT");
    fault::disarm();
  }
  void TearDown() override {
    ::unsetenv("NARADA_FAULT_INJECT");
    fault::disarm();
  }
};

pool::IsolateOptions isolateOptions() {
  pool::IsolateOptions Iso;
  Iso.Enabled = true;
  Iso.WorkerExe = NARADA_CLI_PATH;
  Iso.UnitDeadlineSeconds = 60.0;
  return Iso;
}

NaradaResult runClass(const CorpusEntry &Entry, unsigned Jobs, bool Isolate,
                      bool Static = false) {
  NaradaOptions Options;
  Options.FocusClass = Entry.ClassName;
  Options.Jobs = Jobs;
  Options.StaticVerdicts = Static;
  Options.StaticRank = Static;
  if (Isolate)
    Options.Isolate = isolateOptions();
  Result<NaradaResult> R = runNarada(Entry.Source, Entry.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : NaradaResult{};
}

/// Byte-identity of everything a caller can observe, including the skip
/// list where contained faults land.
void expectIdenticalResults(const NaradaResult &A, const NaradaResult &B) {
  ASSERT_EQ(A.Tests.size(), B.Tests.size());
  for (size_t I = 0; I < A.Tests.size(); ++I) {
    EXPECT_EQ(A.Tests[I].Name, B.Tests[I].Name) << "test " << I;
    EXPECT_EQ(A.Tests[I].SourceText, B.Tests[I].SourceText)
        << A.Tests[I].Name;
    EXPECT_EQ(A.Tests[I].CoveredPairKeys, B.Tests[I].CoveredPairKeys)
        << A.Tests[I].Name;
  }
  ASSERT_EQ(A.Skipped.size(), B.Skipped.size());
  for (size_t I = 0; I < A.Skipped.size(); ++I)
    EXPECT_EQ(A.Skipped[I].str(), B.Skipped[I].str()) << "skip " << I;
}

TEST_F(ProcessPoolTest, IsolatedSynthesisIsByteIdenticalAtJobs1And4) {
  const CorpusEntry &Entry = *findCorpusEntry("C5");
  NaradaResult InProcess = runClass(Entry, 1, /*Isolate=*/false);
  ASSERT_FALSE(InProcess.Tests.empty());
  expectIdenticalResults(InProcess, runClass(Entry, 1, /*Isolate=*/true));
  expectIdenticalResults(InProcess, runClass(Entry, 4, /*Isolate=*/true));
}

// The static pre-analysis prunes and reorders the pair table each worker
// rebuilds, so isolated units must still address the supervisor's pairs.
TEST_F(ProcessPoolTest, IsolatedStaticSynthesisIsByteIdentical) {
  for (const char *Class : {"C1", "C5", "C9"}) {
    SCOPED_TRACE(Class);
    const CorpusEntry &Entry = *findCorpusEntry(Class);
    NaradaResult InProcess =
        runClass(Entry, 1, /*Isolate=*/false, /*Static=*/true);
    ASSERT_FALSE(InProcess.Tests.empty());
    expectIdenticalResults(
        InProcess, runClass(Entry, 4, /*Isolate=*/true, /*Static=*/true));
  }
}

/// Fast detect options so the isolated/in-process sweeps stay cheap; the
/// identity contract is independent of the budgets.
DetectOptions fastDetect() {
  DetectOptions Options;
  Options.RandomRuns = 4;
  Options.ConfirmAttempts = 2;
  return Options;
}

std::vector<TestDetectJob> detectJobs(const NaradaResult &R) {
  std::vector<TestDetectJob> Jobs;
  for (const SynthesizedTestInfo &T : R.Tests)
    Jobs.push_back({T.Name, T.CandidateLabels});
  return Jobs;
}

void expectIdenticalDetection(const std::vector<TestDetectionResult> &A,
                              const std::vector<TestDetectionResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Quarantined, B[I].Quarantined) << "test " << I;
    EXPECT_EQ(A[I].QuarantineReason, B[I].QuarantineReason) << "test " << I;
    EXPECT_EQ(A[I].SawFault, B[I].SawFault) << "test " << I;
    EXPECT_EQ(A[I].SawDeadlock, B[I].SawDeadlock) << "test " << I;
    EXPECT_EQ(A[I].SawStepLimit, B[I].SawStepLimit) << "test " << I;
    EXPECT_EQ(A[I].SchedulesRun, B[I].SchedulesRun) << "test " << I;
    ASSERT_EQ(A[I].Detected.size(), B[I].Detected.size()) << "test " << I;
    for (size_t K = 0; K < A[I].Detected.size(); ++K)
      EXPECT_EQ(A[I].Detected[K].str(), B[I].Detected[K].str());
    ASSERT_EQ(A[I].Races.size(), B[I].Races.size()) << "test " << I;
    for (size_t K = 0; K < A[I].Races.size(); ++K) {
      EXPECT_EQ(A[I].Races[K].Report.key(), B[I].Races[K].Report.key());
      EXPECT_EQ(A[I].Races[K].Reproduced, B[I].Races[K].Reproduced);
      EXPECT_EQ(A[I].Races[K].Harmful, B[I].Races[K].Harmful);
      EXPECT_EQ(A[I].Races[K].HashFirstOrder, B[I].Races[K].HashFirstOrder);
      EXPECT_EQ(A[I].Races[K].HashSecondOrder,
                B[I].Races[K].HashSecondOrder);
    }
  }
}

TEST_F(ProcessPoolTest, IsolatedDetectionIsByteIdenticalAtJobs1And4) {
  const CorpusEntry &Entry = *findCorpusEntry("C1");
  NaradaResult Narada = runClass(Entry, 1, /*Isolate=*/false);
  std::vector<TestDetectJob> Jobs = detectJobs(Narada);
  ASSERT_GE(Jobs.size(), 12u);
  Jobs.resize(12); // Identity is per unit; a dozen tests prove it.

  DetectOptions Options = fastDetect();
  Result<std::vector<TestDetectionResult>> InProcess =
      detectRacesInTests(*Narada.Program.Module, Jobs, Options, 1);
  ASSERT_TRUE(InProcess.hasValue()) << InProcess.error().str();

  detectworker::DetectIsolateContext Iso;
  Iso.Isolate = isolateOptions();
  Iso.FinalSource = Narada.FinalSource;
  for (unsigned JobCount : {1u, 4u}) {
    Result<std::vector<TestDetectionResult>> Isolated = detectRacesInTests(
        *Narada.Program.Module, Jobs, Options, JobCount, &Iso);
    ASSERT_TRUE(Isolated.hasValue()) << Isolated.error().str();
    expectIdenticalDetection(*InProcess, *Isolated);
  }
}

//===----------------------------------------------------------------------===//
// Soft faults: one commit walk, whichever way the units ran
//===----------------------------------------------------------------------===//

uint64_t counterNow(const char *Name) {
  return obs::MetricsRegistry::global().snapshot().counter(Name);
}

TEST_F(ProcessPoolTest, SoftSynthFaultsDegradeIdenticallyWhenIsolated) {
  const CorpusEntry &Entry = *findCorpusEntry("C5");
  fault::resetRegistry();
  NaradaResult Clean = runClass(Entry, 1, /*Isolate=*/false);
  ASSERT_FALSE(Clean.Tests.empty());

  for (const char *Site : {"synth.pair_task", "synth.synthesize"}) {
    SCOPED_TRACE(Site);
    std::optional<uint64_t> Unit = fault::minUnitOf(Site);
    ASSERT_TRUE(Unit.has_value());
    const char *Counter = "synth.pairs_skipped.internal_fault";

    uint64_t Before = counterNow(Counter);
    fault::arm(Site, *Unit);
    NaradaResult InProcess = runClass(Entry, 1, /*Isolate=*/false);
    fault::disarm();
    const uint64_t InProcessSkips = counterNow(Counter) - Before;

    const std::string Spec = std::string(Site) + ":" + std::to_string(*Unit);
    ::setenv("NARADA_FAULT_INJECT", Spec.c_str(), 1);
    Before = counterNow(Counter);
    NaradaResult Isolated = runClass(Entry, 4, /*Isolate=*/true);
    ::unsetenv("NARADA_FAULT_INJECT");

    EXPECT_EQ(InProcessSkips, 1u);
    EXPECT_EQ(counterNow(Counter) - Before, InProcessSkips);
    expectIdenticalResults(InProcess, Isolated);
  }
}

TEST_F(ProcessPoolTest, SoftDetectFaultsQuarantineIdenticallyWhenIsolated) {
  const CorpusEntry &Entry = *findCorpusEntry("C1");
  NaradaResult Narada = runClass(Entry, 1, /*Isolate=*/false);
  std::vector<TestDetectJob> Jobs = detectJobs(Narada);
  ASSERT_GE(Jobs.size(), 6u);
  Jobs.resize(6);
  DetectOptions Options = fastDetect();
  detectworker::DetectIsolateContext Iso;
  Iso.Isolate = isolateOptions();
  Iso.FinalSource = Narada.FinalSource;

  fault::resetRegistry();
  ASSERT_TRUE(
      detectRacesInTests(*Narada.Program.Module, Jobs, Options, 1).hasValue());
  for (const char *Site : {"detect.test", "detect.confirm"}) {
    SCOPED_TRACE(Site);
    std::optional<uint64_t> Unit = fault::minUnitOf(Site);
    ASSERT_TRUE(Unit.has_value());
    const char *Counter = "detect.internal_faults";

    uint64_t Before = counterNow(Counter);
    fault::arm(Site, *Unit);
    Result<std::vector<TestDetectionResult>> InProcess =
        detectRacesInTests(*Narada.Program.Module, Jobs, Options, 1);
    fault::disarm();
    const uint64_t InProcessFaults = counterNow(Counter) - Before;
    ASSERT_TRUE(InProcess.hasValue()) << InProcess.error().str();

    const std::string Spec = std::string(Site) + ":" + std::to_string(*Unit);
    ::setenv("NARADA_FAULT_INJECT", Spec.c_str(), 1);
    Before = counterNow(Counter);
    Result<std::vector<TestDetectionResult>> Isolated =
        detectRacesInTests(*Narada.Program.Module, Jobs, Options, 4, &Iso);
    ::unsetenv("NARADA_FAULT_INJECT");
    ASSERT_TRUE(Isolated.hasValue()) << Isolated.error().str();

    EXPECT_EQ(InProcessFaults, 1u);
    EXPECT_EQ(counterNow(Counter) - Before, InProcessFaults);
    EXPECT_TRUE((*Isolated)[*Unit].Quarantined);
    expectIdenticalDetection(*InProcess, *Isolated);
  }
}

//===----------------------------------------------------------------------===//
// Hard-fault containment
//===----------------------------------------------------------------------===//

TEST_F(ProcessPoolTest, SynthWorkerCrashCostsExactlyTheFaultedPair) {
  const CorpusEntry &Entry = *findCorpusEntry("C5");
  NaradaResult Clean = runClass(Entry, 4, /*Isolate=*/true);
  ASSERT_FALSE(Clean.Tests.empty());

  // Unit ids are pair indices; :crash aborts the worker mid-synthesis.
  ::setenv("NARADA_FAULT_INJECT", "synth.synthesize:0:crash", 1);
  NaradaResult Faulted = runClass(Entry, 4, /*Isolate=*/true);

  // Exactly the faulted pair degrades to a worker_crash skip...
  ASSERT_EQ(Faulted.Skipped.size(), Clean.Skipped.size() + 1);
  bool SawCrashSkip = false;
  for (const auto &Skip : Faulted.Skipped)
    if (Skip.str().find("worker_crash") != std::string::npos &&
        Skip.str().find("hard fault: signal") != std::string::npos)
      SawCrashSkip = true;
  EXPECT_TRUE(SawCrashSkip);

  // ...and every surviving test is byte-identical to the clean run's,
  // modulo the dense renumbering that losing one test shifts.
  ASSERT_EQ(Faulted.Tests.size() + 1, Clean.Tests.size());
  auto Normalized = [](const SynthesizedTestInfo &T) {
    std::string S = T.SourceText;
    size_t Pos = S.find(T.Name);
    if (Pos != std::string::npos)
      S.replace(Pos, T.Name.size(), "<name>");
    return S;
  };
  size_t F = 0;
  for (const SynthesizedTestInfo &T : Clean.Tests)
    if (F < Faulted.Tests.size() &&
        Normalized(Faulted.Tests[F]) == Normalized(T))
      ++F;
  EXPECT_EQ(F, Faulted.Tests.size())
      << "surviving tests must be a subsequence of the clean run's";
}

TEST_F(ProcessPoolTest, DetectWorkerSegvIsClassifiedAndContained) {
  const CorpusEntry &Entry = *findCorpusEntry("C1");
  NaradaResult Narada = runClass(Entry, 1, /*Isolate=*/false);
  std::vector<TestDetectJob> Jobs = detectJobs(Narada);
  ASSERT_GE(Jobs.size(), 8u);
  Jobs.resize(8);
  DetectOptions Options = fastDetect();

  detectworker::DetectIsolateContext Iso;
  Iso.Isolate = isolateOptions();
  Iso.FinalSource = Narada.FinalSource;

  Result<std::vector<TestDetectionResult>> Clean =
      detectRacesInTests(*Narada.Program.Module, Jobs, Options, 4, &Iso);
  ASSERT_TRUE(Clean.hasValue()) << Clean.error().str();

  ::setenv("NARADA_FAULT_INJECT", "detect.test:1:segv", 1);
  Result<std::vector<TestDetectionResult>> Faulted =
      detectRacesInTests(*Narada.Program.Module, Jobs, Options, 4, &Iso);
  ASSERT_TRUE(Faulted.hasValue()) << Faulted.error().str();

  ASSERT_EQ(Faulted->size(), Clean->size());
  EXPECT_TRUE((*Faulted)[1].Quarantined);
  EXPECT_NE((*Faulted)[1].QuarantineReason.find("hard fault: signal"),
            std::string::npos)
      << (*Faulted)[1].QuarantineReason;
  EXPECT_NE((*Faulted)[1].QuarantineReason.find("SIGSEGV"),
            std::string::npos);
  // Every unit but the crashed one is untouched.
  for (size_t I = 0; I < Clean->size(); ++I) {
    if (I == 1)
      continue;
    EXPECT_EQ((*Faulted)[I].Quarantined, (*Clean)[I].Quarantined) << I;
    ASSERT_EQ((*Faulted)[I].Races.size(), (*Clean)[I].Races.size()) << I;
    for (size_t K = 0; K < (*Clean)[I].Races.size(); ++K)
      EXPECT_EQ((*Faulted)[I].Races[K].Report.key(),
                (*Clean)[I].Races[K].Report.key());
  }
}

TEST_F(ProcessPoolTest, HangIsKilledByTheDeadlineWatchdog) {
  const CorpusEntry &Entry = *findCorpusEntry("C1");
  NaradaResult Narada = runClass(Entry, 1, /*Isolate=*/false);
  std::vector<TestDetectJob> Jobs = detectJobs(Narada);
  Jobs.resize(2); // Two units: one hangs, one must still complete.
  DetectOptions Options = fastDetect();

  detectworker::DetectIsolateContext Iso;
  Iso.Isolate = isolateOptions();
  Iso.Isolate.UnitDeadlineSeconds = 3.0;
  Iso.FinalSource = Narada.FinalSource;

  ::setenv("NARADA_FAULT_INJECT", "detect.test:0:hang", 1);
  Result<std::vector<TestDetectionResult>> R =
      detectRacesInTests(*Narada.Program.Module, Jobs, Options, 2, &Iso);
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  EXPECT_TRUE((*R)[0].Quarantined);
  EXPECT_NE((*R)[0].QuarantineReason.find("hard fault: timeout"),
            std::string::npos)
      << (*R)[0].QuarantineReason;
  EXPECT_FALSE((*R)[1].Quarantined);
}

TEST_F(ProcessPoolTest, OomIsReportedGracefullyAndTheWorkerSurvives) {
  const CorpusEntry &Entry = *findCorpusEntry("C1");
  NaradaResult Narada = runClass(Entry, 1, /*Isolate=*/false);
  std::vector<TestDetectJob> Jobs = detectJobs(Narada);
  Jobs.resize(3);
  DetectOptions Options = fastDetect();

  detectworker::DetectIsolateContext Iso;
  Iso.Isolate = isolateOptions();
  Iso.FinalSource = Narada.FinalSource;

  ::setenv("NARADA_FAULT_INJECT", "detect.test:1:oom", 1);
  // One worker: units 0 and 2 prove the worker survived the bad_alloc.
  Result<std::vector<TestDetectionResult>> R =
      detectRacesInTests(*Narada.Program.Module, Jobs, Options, 1, &Iso);
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  EXPECT_FALSE((*R)[0].Quarantined);
  EXPECT_TRUE((*R)[1].Quarantined);
  EXPECT_NE((*R)[1].QuarantineReason.find("hard fault: oom"),
            std::string::npos)
      << (*R)[1].QuarantineReason;
  EXPECT_FALSE((*R)[2].Quarantined);
}

//===----------------------------------------------------------------------===//
// Supervisor mechanics: poison rule, respawn, backoff
//===----------------------------------------------------------------------===//

TEST_F(ProcessPoolTest, PoisonRuleQuarantinesAfterTwoWorkerDeaths) {
  const CorpusEntry &Entry = *findCorpusEntry("C5");
  NaradaResult Narada = runClass(Entry, 1, /*Isolate=*/false);
  ASSERT_GE(Narada.Pairs.size(), 2u);

  NaradaOptions Options;
  Options.FocusClass = Entry.ClassName;
  SynthIsolateContext Iso;
  Iso.Isolate = isolateOptions();
  Iso.LibrarySource = Entry.Source;
  Iso.SeedNames = Entry.SeedNames;

  ::setenv("NARADA_FAULT_INJECT", "synth.pair_task:0:segv", 1);
  pool::ProcessPool Pool(Iso.Isolate, 1,
                         synthworker::encodeSetup(Iso, Options, ""));
  std::vector<pool::UnitOutcome> Outcomes = Pool.run(
      {synthworker::encodeUnit("derive", 0, Narada.Pairs[0].key()),
       synthworker::encodeUnit("derive", 1, Narada.Pairs[1].key())});

  // The faulted unit killed two workers, then was poisoned, not retried.
  ASSERT_EQ(Outcomes.size(), 2u);
  EXPECT_FALSE(Outcomes[0].Ok);
  EXPECT_EQ(Outcomes[0].Crash, pool::CrashKind::Signal);
  EXPECT_EQ(Outcomes[0].TermSignal, SIGSEGV);
  EXPECT_EQ(Outcomes[0].WorkerDeaths, 2u);
  std::string Message = pool::describeCrash(Outcomes[0]);
  EXPECT_NE(Message.find("hard fault: signal"), std::string::npos);
  EXPECT_NE(Message.find("quarantined after killing 2 workers"),
            std::string::npos)
      << Message;

  // The clean unit completed on the respawned worker.
  EXPECT_TRUE(Outcomes[1].Ok);
  wire::RecordReader Reply(Outcomes[1].Payload);
  EXPECT_FALSE(Reply.getOr("shape", "").empty());

  const pool::PoolStats &Stats = Pool.stats();
  EXPECT_EQ(Stats.UnitsPoisoned, 1u);
  EXPECT_EQ(Stats.UnitsRedispatched, 1u);
  EXPECT_GE(Stats.WorkersCrashed, 2u);
  EXPECT_GE(Stats.WorkersRespawned, 2u);
}

TEST_F(ProcessPoolTest, RespawnBackoffStaysWithinConfiguredBounds) {
  const CorpusEntry &Entry = *findCorpusEntry("C5");
  NaradaResult Narada = runClass(Entry, 1, /*Isolate=*/false);
  ASSERT_FALSE(Narada.Pairs.empty());

  NaradaOptions Options;
  Options.FocusClass = Entry.ClassName;
  SynthIsolateContext Iso;
  Iso.Isolate = isolateOptions();
  Iso.LibrarySource = Entry.Source;
  Iso.SeedNames = Entry.SeedNames;
  ::setenv("NARADA_FAULT_INJECT", "synth.pair_task:0:segv", 1);
  pool::ProcessPool Pool(Iso.Isolate, 1,
                         synthworker::encodeSetup(Iso, Options, ""));
  (void)Pool.run(
      {synthworker::encodeUnit("derive", 0, Narada.Pairs[0].key())});

  const pool::PoolStats &Stats = Pool.stats();
  EXPECT_GE(Stats.BackoffWaits, 1u);
  // Each exponential wait starts at the base and is capped.
  double Waits = static_cast<double>(Stats.BackoffWaits);
  EXPECT_GE(Stats.BackoffMsTotal, pool::RespawnBackoffBaseMs * Waits);
  EXPECT_LE(Stats.BackoffMsTotal, pool::RespawnBackoffCapMs * Waits);
}

} // namespace
