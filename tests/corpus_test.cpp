//===- tests/corpus_test.cpp - Benchmark corpus integration tests -------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Parameterized over all nine corpus classes: each must compile, its seeds
// must run cleanly, and the Narada pipeline must produce pairs and tests
// whose execution terminates.  Class-specific expectations (defect shape)
// follow as individual tests.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "runtime/Execution.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

class CorpusTest : public ::testing::TestWithParam<std::string> {
protected:
  const CorpusEntry &entry() { return *findCorpusEntry(GetParam()); }
};

NaradaResult runPipeline(const CorpusEntry &Entry) {
  NaradaOptions Options;
  Options.FocusClass = Entry.ClassName;
  Result<NaradaResult> R = runNarada(Entry.Source, Entry.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : NaradaResult{};
}

} // namespace

TEST_P(CorpusTest, CompilesAndRegistersFocusClass) {
  const CorpusEntry &E = entry();
  Result<CompiledProgram> P = compileProgram(E.Source);
  ASSERT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  const ClassInfo *Focus = P->Info->findClass(E.ClassName);
  ASSERT_TRUE(Focus) << E.ClassName;
  EXPECT_GE(Focus->Methods.size(), 5u);
  EXPECT_GT(E.linesOfCode(), 30u);
}

TEST_P(CorpusTest, SeedsRunCleanly) {
  const CorpusEntry &E = entry();
  Result<CompiledProgram> P = compileProgram(E.Source);
  ASSERT_TRUE(P.hasValue());
  for (const std::string &Seed : E.SeedNames) {
    Result<TestRun> Run = runTestSequential(*P->Module, Seed);
    ASSERT_TRUE(Run.hasValue()) << Seed;
    EXPECT_FALSE(Run->Result.Faulted)
        << Seed << ": " << Run->Result.FaultMessages[0];
    EXPECT_FALSE(Run->Result.HitStepLimit) << Seed;
  }
}

TEST_P(CorpusTest, SeedsCoverEveryFocusMethod) {
  const CorpusEntry &E = entry();
  Result<CompiledProgram> P = compileProgram(E.Source);
  ASSERT_TRUE(P.hasValue());
  const ClassInfo *Focus = P->Info->findClass(E.ClassName);
  ASSERT_TRUE(Focus);

  // Record which focus-class methods the seed suite invokes.
  std::set<std::string> Invoked;
  for (const std::string &Seed : E.SeedNames) {
    Result<TestRun> Run = runTestSequential(*P->Module, Seed);
    ASSERT_TRUE(Run.hasValue());
    for (const TraceEvent &Event : Run->TheTrace)
      if (Event.Kind == EventKind::ClientCall &&
          *Event.ClassName == E.ClassName)
        Invoked.insert(*Event.Member);
  }
  for (const MethodInfo &M : Focus->Methods) {
    // Constructors may be exercised indirectly (C1 builds wrappers through
    // the factory, so 'init' runs inside library code with no client call).
    if (M.Name == ConstructorName)
      continue;
    EXPECT_TRUE(Invoked.count(M.Name))
        << E.Id << ": seed never invokes " << E.ClassName << "." << M.Name;
  }
}

TEST_P(CorpusTest, PipelineProducesPairsAndTests) {
  const CorpusEntry &E = entry();
  NaradaResult R = runPipeline(E);
  EXPECT_FALSE(R.Pairs.empty()) << E.Id;
  EXPECT_FALSE(R.Tests.empty()) << E.Id;
  EXPECT_LE(R.Tests.size(), R.Pairs.size()) << E.Id;
  EXPECT_TRUE(R.Skipped.empty())
      << E.Id << " first skip: "
      << (R.Skipped.empty() ? std::string() : R.Skipped[0].str());
}

TEST_P(CorpusTest, SynthesizedTestsTerminate) {
  const CorpusEntry &E = entry();
  NaradaResult R = runPipeline(E);
  // Spot-check a sample of synthesized tests under two schedules each.
  size_t Stride = std::max<size_t>(1, R.Tests.size() / 8);
  for (size_t I = 0; I < R.Tests.size(); I += Stride) {
    const SynthesizedTestInfo &T = R.Tests[I];
    for (uint64_t Seed : {1, 17}) {
      RandomPolicy Policy(Seed);
      Result<TestRun> Run =
          runTest(*R.Program.Module, T.Name, Policy, 1, nullptr, 300'000);
      ASSERT_TRUE(Run.hasValue()) << T.SourceText;
      EXPECT_FALSE(Run->Result.HitStepLimit) << T.SourceText;
      EXPECT_FALSE(Run->Result.Deadlocked) << T.SourceText;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, CorpusTest,
                         ::testing::Values("C1", "C2", "C3", "C4", "C5",
                                           "C6", "C7", "C8", "C9"),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===//
// Class-specific defect-shape expectations
//===----------------------------------------------------------------------===//

namespace {

/// Full pipeline + detection; returns distinct (detected, harmful, benign)
/// race-key counts across the first \p TestLimit synthesized tests for one
/// class (0 = all of them).
struct ClassRaceCounts {
  std::set<std::string> Detected;
  std::set<std::string> Harmful;
  std::set<std::string> Benign;
};

ClassRaceCounts raceCounts(const CorpusEntry &E, size_t TestLimit = 0) {
  NaradaOptions Options;
  Options.FocusClass = E.ClassName;
  Result<NaradaResult> R = runNarada(E.Source, E.SeedNames, Options);
  EXPECT_TRUE(R.hasValue());
  ClassRaceCounts Out;
  if (!R)
    return Out;
  DetectOptions DO;
  DO.RandomRuns = 6;
  DO.ConfirmAttempts = 2;
  if (TestLimit && R->Tests.size() > TestLimit)
    R->Tests.resize(TestLimit);
  for (const SynthesizedTestInfo &T : R->Tests) {
    Result<TestDetectionResult> D =
        detectRacesInTest(*R->Program.Module, T.Name, DO, T.CandidateLabels);
    EXPECT_TRUE(D.hasValue()) << T.SourceText;
    if (!D)
      continue;
    for (const RaceReport &Race : D->Detected)
      Out.Detected.insert(Race.key());
    for (const ConfirmedRace &C : D->Races) {
      if (!C.Reproduced)
        continue;
      Out.Detected.insert(C.Report.key());
      (C.Harmful ? Out.Harmful : Out.Benign).insert(C.Report.key());
    }
  }
  return Out;
}

} // namespace

TEST(CorpusShapeTest, C1WrapperRacesAreMostlyHarmful) {
  auto Counts = raceCounts(*findCorpusEntry("C1"));
  EXPECT_GE(Counts.Detected.size(), 20u);
  EXPECT_GT(Counts.Harmful.size(), Counts.Benign.size())
      << "C1's lost queue updates are observable";
}

TEST(CorpusShapeTest, C6HasManyBenignResetRaces) {
  auto Counts = raceCounts(*findCorpusEntry("C6"), /*TestLimit=*/40);
  EXPECT_GE(Counts.Benign.size(), 10u)
      << "reset() writing constants must yield many benign races";
  EXPECT_GE(Counts.Harmful.size(), 10u);
}

TEST(CorpusShapeTest, C7InvalidateRaceIsFound) {
  auto Counts = raceCounts(*findCorpusEntry("C7"));
  bool OnInvalid = false;
  for (const std::string &Key : Counts.Detected)
    if (Key.find("invalid") != std::string::npos ||
        Key.find("shutdown") != std::string::npos)
      OnInvalid = true;
  EXPECT_TRUE(OnInvalid) << "the hedc invalidate/shutdown races must appear";
}

TEST(CorpusShapeTest, C8CurrentValueRaceIsHarmful) {
  auto Counts = raceCounts(*findCorpusEntry("C8"));
  bool HarmfulOnValue = false;
  for (const std::string &Key : Counts.Harmful)
    if (Key.find("value") != std::string::npos)
      HarmfulOnValue = true;
  EXPECT_TRUE(HarmfulOnValue)
      << "getCurrentValue vs getNext must be harmful (torn observation)";
}

TEST(CorpusShapeTest, C9FindsTheMarkRaces) {
  auto Counts = raceCounts(*findCorpusEntry("C9"));
  EXPECT_GE(Counts.Detected.size(), 2u);
  bool OnPositions = false;
  for (const std::string &Key : Counts.Detected)
    if (Key.find("pos") != std::string::npos)
      OnPositions = true;
  EXPECT_TRUE(OnPositions);
}

TEST(CorpusShapeTest, C4MostTestsDetectNothing) {
  // The paper's Fig. 14: for C4 the majority of synthesized tests detect no
  // race because the conducive context cannot be set from clients.
  const CorpusEntry &E = *findCorpusEntry("C4");
  NaradaOptions Options;
  Options.FocusClass = E.ClassName;
  Result<NaradaResult> R = runNarada(E.Source, E.SeedNames, Options);
  ASSERT_TRUE(R.hasValue());
  DetectOptions DO;
  DO.RandomRuns = 4;
  DO.ConfirmAttempts = 1;
  unsigned Silent = 0, Total = 0;
  for (const SynthesizedTestInfo &T : R->Tests) {
    Result<TestDetectionResult> D =
        detectRacesInTest(*R->Program.Module, T.Name, DO, T.CandidateLabels);
    ASSERT_TRUE(D.hasValue());
    ++Total;
    if (D->Detected.empty() && D->reproducedCount() == 0)
      ++Silent;
  }
  EXPECT_GT(Silent * 2, Total)
      << "most C4 tests must detect nothing (" << Silent << "/" << Total
      << ")";
}

TEST(CorpusShapeTest, TableThreeMetadataIsComplete) {
  ASSERT_EQ(corpus().size(), 9u);
  std::set<std::string> Benchmarks;
  for (const CorpusEntry &E : corpus()) {
    EXPECT_FALSE(E.Benchmark.empty());
    EXPECT_FALSE(E.Version.empty());
    EXPECT_FALSE(E.ClassName.empty());
    EXPECT_FALSE(E.SeedNames.empty());
    Benchmarks.insert(E.Benchmark);
  }
  // Table 3 lists seven distinct projects.
  EXPECT_EQ(Benchmarks.size(), 7u);
  EXPECT_TRUE(findCorpusEntry("C1"));
  EXPECT_TRUE(findCorpusEntry("SynchronizedWriteBehindQueue"));
  EXPECT_FALSE(findCorpusEntry("C10"));
}
