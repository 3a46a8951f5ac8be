//===- tests/detect_test.cpp - Race detector unit tests -----------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "detect/HBDetector.h"
#include "detect/LockSetDetector.h"
#include "detect/RaceConfirmer.h"
#include "detect/VectorClock.h"
#include "explore/ScheduleTrace.h"
#include "obs/Metrics.h"
#include "support/StringUtils.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace narada;

namespace {

CompiledProgram compileOk(std::string_view Source) {
  Result<CompiledProgram> R = compileProgram(Source);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : CompiledProgram{};
}

/// Runs a test under many random schedules with both detectors; returns the
/// union of race keys.
std::set<std::string> detectedKeys(const IRModule &M,
                                   const std::string &TestName,
                                   unsigned Runs = 24) {
  std::set<std::string> Keys;
  for (unsigned I = 0; I < Runs; ++I) {
    HBDetector HB;
    LockSetDetector LS;
    ObserverMux Mux;
    Mux.add(&HB);
    Mux.add(&LS);
    RandomPolicy Policy(I);
    Result<TestRun> Run = runTest(M, TestName, Policy, 1, &Mux);
    EXPECT_TRUE(Run.hasValue());
    for (const RaceReport &R : HB.races())
      Keys.insert(R.key());
    for (const RaceReport &R : LS.races())
      Keys.insert(R.key());
  }
  return Keys;
}

constexpr const char *RacyCounter =
    "class Counter { field count: int;\n"
    "  method inc() { this.count = this.count + 1; } }\n"
    "test racy {\n"
    "  var c: Counter = new Counter;\n"
    "  spawn { c.inc(); }\n"
    "  spawn { c.inc(); }\n"
    "}\n";

constexpr const char *SafeCounter =
    "class Counter { field count: int;\n"
    "  method inc() synchronized { this.count = this.count + 1; } }\n"
    "test safe {\n"
    "  var c: Counter = new Counter;\n"
    "  spawn { c.inc(); }\n"
    "  spawn { c.inc(); }\n"
    "}\n";

/// Renders the races \p D detected, in order: detector, raced field,
/// both labels (without the class, when it is the raced one) with their
/// write flags, both threads and the object.
std::string detectedLines(const TestDetectionResult &D) {
  std::string Out;
  for (const RaceReport &R : D.Detected) {
    auto Short = [&](const std::string &Label) {
      std::string Prefix = R.ClassName + ".";
      return Label.rfind(Prefix, 0) == 0 ? Label.substr(Prefix.size())
                                         : Label;
    };
    Out += formatString("%s %s.%s %s(%c)~%s(%c) t%u~t%u o%u%s\n",
                        R.Detector.c_str(), R.ClassName.c_str(),
                        R.Field.c_str(), Short(R.FirstLabel).c_str(),
                        R.FirstIsWrite ? 'w' : 'r',
                        Short(R.SecondLabel).c_str(),
                        R.SecondIsWrite ? 'w' : 'r', R.FirstThread,
                        R.SecondThread, R.Obj,
                        R.IsElem ? formatString("[%u]", R.ElemIndex).c_str()
                                 : "");
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// VectorClock
//===----------------------------------------------------------------------===//

TEST(VectorClockTest, DefaultIsZero) {
  VectorClock C;
  EXPECT_EQ(C.get(0), 0u);
  EXPECT_EQ(C.get(17), 0u);
}

TEST(VectorClockTest, SetGetTick) {
  VectorClock C;
  C.set(2, 5);
  EXPECT_EQ(C.get(2), 5u);
  C.tick(2);
  EXPECT_EQ(C.get(2), 6u);
  C.tick(7);
  EXPECT_EQ(C.get(7), 1u);
}

TEST(VectorClockTest, JoinTakesPointwiseMax) {
  VectorClock A, B;
  A.set(0, 3);
  A.set(1, 1);
  B.set(1, 4);
  B.set(2, 2);
  A.joinWith(B);
  EXPECT_EQ(A.get(0), 3u);
  EXPECT_EQ(A.get(1), 4u);
  EXPECT_EQ(A.get(2), 2u);
}

TEST(VectorClockTest, LeqOrdering) {
  VectorClock A, B;
  A.set(0, 1);
  B.set(0, 2);
  B.set(1, 1);
  EXPECT_TRUE(A.leq(B));
  EXPECT_FALSE(B.leq(A));
  EXPECT_TRUE(A.leq(A));
}

TEST(VectorClockTest, IncomparableClocks) {
  VectorClock A, B;
  A.set(0, 2);
  B.set(1, 2);
  EXPECT_FALSE(A.leq(B));
  EXPECT_FALSE(B.leq(A));
}

TEST(EpochTest, UnsetEpochHappensBeforeEverything) {
  Epoch E;
  VectorClock C;
  EXPECT_TRUE(E.leq(C));
}

TEST(EpochTest, LeqChecksOwnComponentOnly) {
  Epoch E{1, 3};
  VectorClock C;
  C.set(1, 3);
  EXPECT_TRUE(E.leq(C));
  C.set(1, 2);
  EXPECT_FALSE(E.leq(C));
}

//===----------------------------------------------------------------------===//
// Detectors on real executions
//===----------------------------------------------------------------------===//

TEST(DetectorTest, RacyCounterIsDetected) {
  auto P = compileOk(RacyCounter);
  auto Keys = detectedKeys(*P.Module, "racy");
  EXPECT_FALSE(Keys.empty()) << "count++ race must be detected";
  bool OnCount = false;
  for (const std::string &K : Keys)
    if (K.find("count") != std::string::npos)
      OnCount = true;
  EXPECT_TRUE(OnCount);
}

TEST(DetectorTest, SynchronizedCounterIsClean) {
  auto P = compileOk(SafeCounter);
  auto Keys = detectedKeys(*P.Module, "safe");
  EXPECT_TRUE(Keys.empty()) << *Keys.begin();
}

TEST(DetectorTest, SpawnEdgeSuppressesFalsePositives) {
  // Main writes before spawning; the child reads.  The spawn edge orders
  // the accesses, so neither detector may report.
  auto P = compileOk("class Box { field v: int;\n"
                     "  method put(x: int) { this.v = x; }\n"
                     "  method get(): int { return this.v; } }\n"
                     "test t {\n"
                     "  var b: Box = new Box;\n"
                     "  b.put(1);\n"
                     "  spawn { b.get(); }\n"
                     "}\n");
  auto Keys = detectedKeys(*P.Module, "t");
  // The HB detector must stay silent; lockset (being schedule-insensitive
  // about program order) also exempts the exclusive phase here.
  EXPECT_TRUE(Keys.empty()) << *Keys.begin();
}

TEST(DetectorTest, LockProtectedHandoffIsOrdered) {
  auto P = compileOk("class Box { field v: int;\n"
                     "  method put(x: int) synchronized { this.v = x; }\n"
                     "  method get(): int synchronized { return this.v; } }\n"
                     "test t {\n"
                     "  var b: Box = new Box;\n"
                     "  spawn { b.put(1); }\n"
                     "  spawn { b.get(); }\n"
                     "}\n");
  auto Keys = detectedKeys(*P.Module, "t");
  EXPECT_TRUE(Keys.empty());
}

TEST(DetectorTest, WriteWriteWithDisjointLocksIsRacy) {
  // Both threads hold *different* locks: lockset intersection empty, HB
  // unordered.  The C1 defect pattern in miniature.
  auto P = compileOk(
      "class Inner { field v: int;\n"
      "  method bump() { this.v = this.v + 1; } }\n"
      "class Wrap { field inner: Inner;\n"
      "  method init(i: Inner) { this.inner = i; }\n"
      "  method bump() synchronized { this.inner.bump(); } }\n"
      "test t {\n"
      "  var i: Inner = new Inner;\n"
      "  var w1: Wrap = new Wrap(i);\n"
      "  var w2: Wrap = new Wrap(i);\n"
      "  spawn { w1.bump(); }\n"
      "  spawn { w2.bump(); }\n"
      "}\n");
  auto Keys = detectedKeys(*P.Module, "t");
  EXPECT_FALSE(Keys.empty());
}

TEST(DetectorTest, ArrayElementRaceDetected) {
  auto P = compileOk("class Buf { field data: IntArray;\n"
                     "  method init(d: IntArray) { this.data = d; }\n"
                     "  method put(v: int) { this.data.set(0, v); } }\n"
                     "test t {\n"
                     "  var d: IntArray = new IntArray(2);\n"
                     "  var b1: Buf = new Buf(d);\n"
                     "  var b2: Buf = new Buf(d);\n"
                     "  spawn { b1.put(1); }\n"
                     "  spawn { b2.put(2); }\n"
                     "}\n");
  auto Keys = detectedKeys(*P.Module, "t");
  ASSERT_FALSE(Keys.empty());
  EXPECT_NE(Keys.begin()->find("[]"), std::string::npos);
}

TEST(DetectorTest, DistinctArrayIndicesDoNotRace) {
  auto P = compileOk("class Buf { field data: IntArray;\n"
                     "  method init(d: IntArray) { this.data = d; }\n"
                     "  method put(i: int, v: int) { this.data.set(i, v); } }\n"
                     "test t {\n"
                     "  var d: IntArray = new IntArray(2);\n"
                     "  var b1: Buf = new Buf(d);\n"
                     "  var b2: Buf = new Buf(d);\n"
                     "  spawn { b1.put(0, 1); }\n"
                     "  spawn { b2.put(1, 2); }\n"
                     "}\n");
  auto Keys = detectedKeys(*P.Module, "t");
  EXPECT_TRUE(Keys.empty());
}

TEST(DetectorTest, HBReportsCarryBothLabels) {
  auto P = compileOk(RacyCounter);
  bool SawPair = false;
  for (unsigned I = 0; I < 16 && !SawPair; ++I) {
    HBDetector HB;
    RandomPolicy Policy(I);
    Result<TestRun> Run = runTest(*P.Module, "racy", Policy, 1, &HB);
    ASSERT_TRUE(Run.hasValue());
    for (const RaceReport &R : HB.races()) {
      EXPECT_NE(R.FirstLabel.find("Counter.inc"), std::string::npos);
      EXPECT_NE(R.SecondLabel.find("Counter.inc"), std::string::npos);
      SawPair = true;
    }
  }
  EXPECT_TRUE(SawPair);
}

//===----------------------------------------------------------------------===//
// RaceFuzzer-style confirmation
//===----------------------------------------------------------------------===//

TEST(ConfirmerTest, ConfirmsTheCounterRace) {
  auto P = compileOk(RacyCounter);
  // Find the inc labels by detecting once.
  auto Keys = detectedKeys(*P.Module, "racy");
  ASSERT_FALSE(Keys.empty());

  // Extract labels from an HB report.
  std::string LabelA, LabelB;
  for (unsigned I = 0; I < 16 && LabelA.empty(); ++I) {
    HBDetector HB;
    RandomPolicy Policy(I);
    (void)runTest(*P.Module, "racy", Policy, 1, &HB);
    if (!HB.races().empty()) {
      LabelA = HB.races()[0].FirstLabel;
      LabelB = HB.races()[0].SecondLabel;
    }
  }
  ASSERT_FALSE(LabelA.empty());

  RaceConfirmPolicy Policy(LabelA, LabelB, /*Seed=*/3);
  Result<TestRun> Run = runTest(*P.Module, "racy", Policy);
  ASSERT_TRUE(Run.hasValue());
  EXPECT_TRUE(Policy.confirmed());
  EXPECT_EQ(Policy.confirmedRace().Field, "count");
}

TEST(ConfirmerTest, DoesNotConfirmWhenObjectsDiffer) {
  // Two threads increment *different* counters: same labels, different
  // objects — the confirmer must not claim a reproduction.
  auto P = compileOk("class Counter { field count: int;\n"
                     "  method inc() { this.count = this.count + 1; } }\n"
                     "test t {\n"
                     "  var c1: Counter = new Counter;\n"
                     "  var c2: Counter = new Counter;\n"
                     "  spawn { c1.inc(); }\n"
                     "  spawn { c2.inc(); }\n"
                     "}\n");
  // Use the inc read/write labels; find them via a racy sibling program is
  // overkill — peek from IR: the labels come from Counter.inc.
  const IRFunction *Inc = P.Module->findMethod("Counter", "inc");
  ASSERT_TRUE(Inc);
  std::string WriteLabel;
  for (size_t I = 0; I < Inc->instrs().size(); ++I)
    if (Inc->instrs()[I].Op == Opcode::StoreField)
      WriteLabel = formatString("%s:%zu", Inc->name().c_str(), I);
  ASSERT_FALSE(WriteLabel.empty());

  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    RaceConfirmPolicy Policy(WriteLabel, WriteLabel, Seed);
    Result<TestRun> Run = runTest(*P.Module, "t", Policy);
    ASSERT_TRUE(Run.hasValue());
    EXPECT_FALSE(Policy.confirmed()) << "seed " << Seed;
    EXPECT_FALSE(Run->Result.Deadlocked);
    EXPECT_FALSE(Run->Result.HitStepLimit);
  }
}

//===----------------------------------------------------------------------===//
// Full detection protocol
//===----------------------------------------------------------------------===//

TEST(DetectionTest, CounterRaceDetectedReproducedHarmful) {
  auto P = compileOk(RacyCounter);
  Result<TestDetectionResult> R = detectRacesInTest(*P.Module, "racy");
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  EXPECT_FALSE(R->Detected.empty());
  EXPECT_GE(R->reproducedCount(), 1u);
  // Losing an increment changes the final count: harmful.
  EXPECT_GE(R->harmfulCount(), 1u);
}

TEST(DetectionTest, SynchronizedCounterIsSilent) {
  auto P = compileOk(SafeCounter);
  Result<TestDetectionResult> R = detectRacesInTest(*P.Module, "safe");
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->Detected.empty());
  EXPECT_EQ(R->Races.size(), 0u);
}

TEST(DetectionTest, ConstantWritesClassifiedBenign) {
  // Both threads store the same constant: the race is real (two
  // unsynchronized writes) but state-equivalent in either order.
  auto P = compileOk("class Flag { field on: bool;\n"
                     "  method raise() { this.on = true; } }\n"
                     "test t {\n"
                     "  var f: Flag = new Flag;\n"
                     "  spawn { f.raise(); }\n"
                     "  spawn { f.raise(); }\n"
                     "}\n");
  Result<TestDetectionResult> R = detectRacesInTest(*P.Module, "t");
  ASSERT_TRUE(R.hasValue());
  ASSERT_FALSE(R->Detected.empty());
  EXPECT_GE(R->reproducedCount(), 1u);
  EXPECT_EQ(R->harmfulCount(), 0u);
  EXPECT_GE(R->benignCount(), 1u);
}

TEST(DetectionTest, HintsDriveConfirmationWithoutDetection) {
  // With zero random runs nothing is detected; the synthesizer's hint alone
  // must still reproduce the race.
  auto P = compileOk(RacyCounter);
  const IRFunction *Inc = P.Module->findMethod("Counter", "inc");
  std::string ReadLabel, WriteLabel;
  for (size_t I = 0; I < Inc->instrs().size(); ++I) {
    if (Inc->instrs()[I].Op == Opcode::LoadField)
      ReadLabel = formatString("%s:%zu", Inc->name().c_str(), I);
    if (Inc->instrs()[I].Op == Opcode::StoreField)
      WriteLabel = formatString("%s:%zu", Inc->name().c_str(), I);
  }
  DetectOptions Options;
  Options.RandomRuns = 0;
  Result<TestDetectionResult> R = detectRacesInTest(
      *P.Module, "racy", Options, {{ReadLabel, WriteLabel}});
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->Detected.empty());
  EXPECT_GE(R->reproducedCount(), 1u);
}

TEST(DetectionTest, SchedulesExploredCountsPhaseOneSchedules) {
  // detect.schedules_explored counts what the detect command prints as
  // "N schedules explored" (the sum of SchedulesRun) in every mode, and
  // no confirmation run, which detect.confirm_runs counts.
  auto P = compileOk(RacyCounter);
  RandomPolicy Inner(1);
  explore::RecordingPolicy Recorder(Inner);
  ASSERT_TRUE(
      runTest(*P.Module, "racy", Recorder, /*RandSeed=*/1).hasValue());
  auto Trace = std::make_shared<const explore::ScheduleTrace>(
      Recorder.trace("racy", /*RandSeed=*/1));

  struct Config {
    const char *Name;
    ExplorationMode Mode;
    unsigned MaxSchedules;
  };
  const Config Configs[] = {
      {"random", ExplorationMode::Random, 256},
      {"systematic", ExplorationMode::Systematic, 256},
      // A budget the search exceeds: systematic schedules plus the
      // random fallback's runs.
      {"systematic+fallback", ExplorationMode::Systematic, 2},
      {"replay", ExplorationMode::Replay, 256},
  };
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  for (const Config &C : Configs) {
    SCOPED_TRACE(C.Name);
    DetectOptions Options;
    Options.Mode = C.Mode;
    Options.Explore.MaxSchedules = C.MaxSchedules;
    Options.ReplayTrace = Trace;
    const uint64_t Explored =
        Metrics.counter("detect.schedules_explored").value();
    const uint64_t Confirms = Metrics.counter("detect.confirm_runs").value();
    Result<TestDetectionResult> R =
        detectRacesInTest(*P.Module, "racy", Options);
    ASSERT_TRUE(R.hasValue()) << R.error().str();
    EXPECT_GT(R->SchedulesRun, 0u);
    EXPECT_EQ(Metrics.counter("detect.schedules_explored").value() - Explored,
              R->SchedulesRun);
    EXPECT_GT(Metrics.counter("detect.confirm_runs").value() - Confirms, 0u);
  }
}

TEST(DetectionTest, EndToEndNaradaPipelineFindsHarmfulRace) {
  // The complete story: Fig. 1 library + seed -> synthesized tests ->
  // detected, reproduced, harmful races.
  const char *Figure1 =
      "class Counter {\n"
      "  field count: int;\n"
      "  method inc() { this.count = this.count + 1; }\n"
      "}\n"
      "class Lib {\n"
      "  field c: Counter;\n"
      "  method update() synchronized { this.c.inc(); }\n"
      "  method set(x: Counter) synchronized { this.c = x; }\n"
      "}\n"
      "test seed {\n"
      "  var r: Counter = new Counter;\n"
      "  var p: Lib = new Lib;\n"
      "  p.set(r);\n"
      "  p.update();\n"
      "}\n";
  Result<NaradaResult> Narada = runNarada(Figure1, {"seed"});
  ASSERT_TRUE(Narada.hasValue()) << (Narada ? "" : Narada.error().str());

  unsigned Harmful = 0;
  for (const SynthesizedTestInfo &T : Narada->Tests) {
    Result<TestDetectionResult> R = detectRacesInTest(
        *Narada->Program.Module, T.Name, {}, T.CandidateLabels);
    ASSERT_TRUE(R.hasValue()) << T.SourceText;
    Harmful += R->harmfulCount();
  }
  EXPECT_GE(Harmful, 1u) << "the Fig. 1 count race must surface end to end";
}

//===----------------------------------------------------------------------===//
// Lock-order (potential deadlock) detection
//===----------------------------------------------------------------------===//

#include "detect/LockOrderDetector.h"

namespace {

/// Runs the test under one seeded schedule with the lock-order detector.
std::vector<LockOrderCycle> lockOrderCycles(const IRModule &M,
                                            const std::string &TestName,
                                            uint64_t Seed = 1) {
  LockOrderDetector Detector;
  RandomPolicy Policy(Seed);
  Result<TestRun> Run = runTest(M, TestName, Policy, 1, &Detector);
  EXPECT_TRUE(Run.hasValue());
  return Detector.cycles();
}

constexpr const char *TwoLockLib =
    "class L {\n"
    "  field other: L;\n"
    "  method setOther(o: L) { this.other = o; }\n"
    "  method hop() synchronized { this.other.poke(); }\n"
    "  method poke() synchronized { }\n"
    "}\n";

} // namespace

TEST(LockOrderTest, DetectsInversionEvenWithoutDeadlocking) {
  // The two threads acquire (a, b) and (b, a).  Under a sequential-ish
  // schedule no deadlock happens, but the lock-order cycle is still there.
  auto P = compileOk(std::string(TwoLockLib) +
                     "test t {\n"
                     "  var a: L = new L;\n"
                     "  var b: L = new L;\n"
                     "  a.setOther(b); b.setOther(a);\n"
                     "  spawn { a.hop(); }\n"
                     "  spawn { b.hop(); }\n"
                     "}\n");
  bool Found = false;
  for (uint64_t Seed = 0; Seed < 16 && !Found; ++Seed) {
    auto Cycles = lockOrderCycles(*P.Module, "t", Seed);
    for (const LockOrderCycle &C : Cycles) {
      EXPECT_EQ(C.Objects.size(), 2u);
      EXPECT_NE(C.str().find("potential deadlock"), std::string::npos);
      Found = true;
    }
  }
  EXPECT_TRUE(Found) << "the (a,b)/(b,a) inversion must be reported";
}

TEST(LockOrderTest, ConsistentOrderIsClean) {
  // Both threads acquire (a, b) in the same order: no cycle.
  auto P = compileOk(std::string(TwoLockLib) +
                     "test t {\n"
                     "  var a: L = new L;\n"
                     "  var b: L = new L;\n"
                     "  a.setOther(b);\n"
                     "  spawn { a.hop(); }\n"
                     "  spawn { a.hop(); }\n"
                     "}\n");
  for (uint64_t Seed = 0; Seed < 8; ++Seed)
    EXPECT_TRUE(lockOrderCycles(*P.Module, "t", Seed).empty());
}

TEST(LockOrderTest, SingleThreadCycleIsNotADeadlock) {
  // One thread acquiring a->b and later b->a cannot deadlock with itself;
  // the detector requires two contributing threads.
  auto P = compileOk(std::string(TwoLockLib) +
                     "test t {\n"
                     "  var a: L = new L;\n"
                     "  var b: L = new L;\n"
                     "  a.setOther(b); b.setOther(a);\n"
                     "  a.hop();\n"
                     "  b.hop();\n"
                     "}\n");
  EXPECT_TRUE(lockOrderCycles(*P.Module, "t").empty());
}

TEST(LockOrderTest, ReentrantAcquisitionAddsNoSelfEdge) {
  auto P = compileOk("class R {\n"
                     "  method outer() synchronized { this.inner(); }\n"
                     "  method inner() synchronized { }\n"
                     "}\n"
                     "test t {\n"
                     "  var r: R = new R;\n"
                     "  spawn { r.outer(); }\n"
                     "  spawn { r.outer(); }\n"
                     "}\n");
  for (uint64_t Seed = 0; Seed < 8; ++Seed)
    EXPECT_TRUE(lockOrderCycles(*P.Module, "t", Seed).empty());
}

TEST(LockOrderTest, CycleKeyIsRotationInvariant) {
  LockOrderCycle A;
  A.Objects = {3, 7};
  A.AcquireLabels = {"x", "y"};
  LockOrderCycle B;
  B.Objects = {7, 3};
  B.AcquireLabels = {"y", "x"};
  EXPECT_EQ(A.key(), B.key());
}

// Recorded with detectors that rendered a RaceReport for every race of
// every run and a detectRacesInTest that keyed each of them.  The first
// report of a race wins, so these lines also pin which detector, run and
// threads saw each race first: HB before LockSet within a run, earlier
// runs first.
TEST(DetectionTest, RaceOrderIsPinned) {
  struct Case {
    const char *Class;
    ExplorationMode Mode;
    const char *Test;
    const char *Lines;
  };
  const Case Want[] = {
      {"C6", ExplorationMode::Systematic, "narada_001",
       "hb Scanner.errorCount reset:18(w)~scanIdentifier:29(r) t1~t2 o1\n"
       "hb Scanner.errorCount reset:18(w)~scanIdentifier:32(w) t1~t2 o1\n"
       "lockset Scanner.errorCount scanIdentifier:29(r)~scanIdentifier:32(w) t2~t2 o1\n"
       "hb Scanner.limit reset:4(w)~peekChar:1(r) t1~t2 o1\n"
       "hb Scanner.limit reset:4(w)~readChar:1(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~peekChar:0(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~peekChar:9(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~readChar:0(r) t1~t2 o1\n"
       "lockset Scanner.pos readChar:12(r)~readChar:15(w) t2~t2 o1\n"
       "hb Scanner.pos reset:2(w)~readChar:12(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~readChar:15(w) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~readChar:9(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~scanIdentifier:0(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~scanIdentifier:16(r) t1~t2 o1\n"
       "lockset Scanner.source init:3(w)~reset:0(w) t0~t1 o1\n"
       "hb Scanner.source reset:0(w)~peekChar:8(r) t1~t2 o1\n"
       "hb Scanner.source reset:0(w)~readChar:8(r) t1~t2 o1\n"
       "hb Scanner.tokenLength reset:10(w)~scanIdentifier:19(w) t1~t2 o1\n"
       "hb Scanner.tokenLength scanIdentifier:20(r)~reset:10(w) t2~t1 o1\n"
       "hb Scanner.tokenStart scanIdentifier:17(r)~reset:8(w) t2~t1 o1\n"
       "hb Scanner.tokenStart reset:8(w)~scanIdentifier:1(w) t1~t2 o1\n"
       "hb Scanner.tokenType reset:6(w)~scanIdentifier:25(w) t1~t2 o1\n"
       "hb Scanner.tokenType reset:6(w)~scanIdentifier:28(w) t1~t2 o1\n"},
      {"C6", ExplorationMode::Systematic, "narada_002",
       "hb Scanner.errorCount reset:18(w)~scanOperator:55(r) t1~t2 o1\n"
       "hb Scanner.errorCount reset:18(w)~scanOperator:58(w) t1~t2 o1\n"
       "lockset Scanner.errorCount scanOperator:55(r)~scanOperator:58(w) t2~t2 o1\n"
       "hb Scanner.limit reset:4(w)~peekChar:1(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~peekChar:0(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~peekChar:9(r) t1~t2 o1\n"
       "hb Scanner.pos reset:2(w)~scanOperator:0(r) t1~t2 o1\n"
       "lockset Scanner.source init:3(w)~reset:0(w) t0~t1 o1\n"
       "hb Scanner.source reset:0(w)~peekChar:8(r) t1~t2 o1\n"
       "hb Scanner.tokenLength reset:10(w)~scanOperator:54(w) t1~t2 o1\n"
       "hb Scanner.tokenStart reset:8(w)~scanOperator:1(w) t1~t2 o1\n"
       "hb Scanner.tokenType reset:6(w)~scanOperator:52(w) t1~t2 o1\n"},
      {"C6", ExplorationMode::Systematic, "narada_005",
       "hb Scanner.errorCount scanIdentifier:32(w)~scanIdentifier:29(r) t1~t2 o1\n"
       "hb Scanner.errorCount scanIdentifier:32(w)~scanIdentifier:32(w) t1~t2 o1\n"
       "hb Scanner.tokenLength scanIdentifier:19(w)~scanIdentifier:19(w) t1~t2 o1\n"
       "hb Scanner.tokenLength scanIdentifier:20(r)~scanIdentifier:19(w) t1~t2 o1\n"
       "lockset Scanner.tokenLength scanNumber:24(r)~scanIdentifier:19(w) t0~t1 o1\n"
       "hb Scanner.tokenStart scanIdentifier:17(r)~scanIdentifier:1(w) t1~t2 o1\n"
       "hb Scanner.tokenStart scanIdentifier:1(w)~scanIdentifier:1(w) t1~t2 o1\n"
       "lockset Scanner.tokenStart scanNumber:21(r)~scanIdentifier:1(w) t0~t1 o1\n"
       "hb Scanner.tokenType scanIdentifier:28(w)~scanIdentifier:28(w) t1~t2 o1\n"
       "lockset Scanner.tokenType scanNumber:29(w)~scanIdentifier:28(w) t0~t1 o1\n"},
      {"C1", ExplorationMode::Random, "narada_001",
       "hb CoalescedWriteBehindQueue.count addFirst:3(r)~clear:3(w) t2~t1 o19\n"
       "hb CoalescedWriteBehindQueue.count clear:3(w)~addFirst:6(w) t1~t2 o19\n"
       "hb CoalescedWriteBehindQueue.head addFirst:0(r)~clear:1(w) t2~t1 o19\n"
       "hb CoalescedWriteBehindQueue.head clear:1(w)~addFirst:2(w) t1~t2 o19\n"},
      {"C1", ExplorationMode::Random, "narada_002",
       "hb CoalescedWriteBehindQueue.count clear:3(w)~addLast:18(r) t1~t2 o19\n"
       "hb CoalescedWriteBehindQueue.count clear:3(w)~addLast:21(w) t1~t2 o19\n"
       "hb CoalescedWriteBehindQueue.head clear:1(w)~addLast:2(r) t1~t2 o19\n"
       "hb CoalescedWriteBehindQueue.head clear:1(w)~addLast:6(w) t1~t2 o19\n"
       "hb CoalescedWriteBehindQueue.head clear:1(w)~addLast:8(r) t1~t2 o19\n"},
      {"C1", ExplorationMode::Random, "narada_003",
       "hb CoalescedWriteBehindQueue.count clear:3(w)~removeFirst:12(w) t1~t2 o19\n"
       "hb CoalescedWriteBehindQueue.count clear:3(w)~removeFirst:9(r) t1~t2 o19\n"
       "hb CoalescedWriteBehindQueue.head clear:1(w)~removeFirst:0(r) t1~t2 o19\n"
       "hb CoalescedWriteBehindQueue.head clear:1(w)~removeFirst:8(w) t1~t2 o19\n"},
  };
  std::map<std::string, NaradaResult> Synthesized;
  for (const Case &C : Want) {
    auto It = Synthesized.find(C.Class);
    if (It == Synthesized.end()) {
      const CorpusEntry *Entry = findCorpusEntry(C.Class);
      NaradaOptions Pipeline;
      Pipeline.FocusClass = Entry->ClassName;
      Result<NaradaResult> R =
          runNarada(Entry->Source, Entry->SeedNames, Pipeline);
      ASSERT_TRUE(R.hasValue()) << R.error().str();
      It = Synthesized.emplace(C.Class, R.take()).first;
    }
    const NaradaResult &R = It->second;
    auto Info = std::find_if(
        R.Tests.begin(), R.Tests.end(),
        [&](const SynthesizedTestInfo &T) { return T.Name == C.Test; });
    ASSERT_NE(Info, R.Tests.end()) << C.Class << " " << C.Test;
    DetectOptions Options;
    Options.Mode = C.Mode;
    Result<TestDetectionResult> D = detectRacesInTest(
        *R.Program.Module, C.Test, Options, Info->CandidateLabels);
    ASSERT_TRUE(D.hasValue()) << D.error().str();
    EXPECT_EQ(detectedLines(*D), C.Lines) << C.Class << " " << C.Test;
  }
}
