//===- tests/gen_test.cpp - Generative seed-corpus engine tests ----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The zero-seed contract, exercised at every layer: the API model sees
// exactly the client-invocable surface, every generated program is
// well-typed (sema + lowering + IR verifier), generation is a pure
// function of (model, options, seed) at any job count, and — the point of
// the whole subsystem — a corpus generated with no hand-written seeds
// reproduces the hand-seed race set on real corpus classes.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "gen/ApiModel.h"
#include "gen/GenEngine.h"
#include "gen/SeedGen.h"
#include "ir/Verifier.h"
#include "lang/ASTPrinter.h"
#include "obs/Metrics.h"
#include "staticrace/LocksetAnalysis.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace narada;

namespace {

CompiledProgram compileOk(const std::string &Source) {
  Result<CompiledProgram> R = compileProgram(Source);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : CompiledProgram{};
}

gen::ApiModel modelOf(const std::string &Source, bool WithStatic = false) {
  CompiledProgram P = compileOk(Source);
  if (!WithStatic)
    return gen::extractApiModel(*P.Info);
  staticrace::ModuleSummary Summary = staticrace::summarizeModule(*P.Module);
  return gen::extractApiModel(*P.Info, &Summary);
}

/// Every race key the full pipeline (synthesis + detection) finds for
/// \p Source with seed suite \p SeedNames, mirroring narada-cli detect.
std::set<std::string> raceKeysOf(const std::string &Source,
                                 const std::vector<std::string> &SeedNames,
                                 const std::string &FocusClass) {
  NaradaOptions Options;
  Options.FocusClass = FocusClass;
  Options.Jobs = 4;
  Result<NaradaResult> R = runNarada(Source, SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  std::set<std::string> Keys;
  if (!R)
    return Keys;
  std::vector<TestDetectJob> Jobs;
  for (const SynthesizedTestInfo &T : R->Tests)
    Jobs.push_back({T.Name, T.CandidateLabels});
  Result<std::vector<TestDetectionResult>> Results =
      detectRacesInTests(*R->Program.Module, Jobs, DetectOptions{}, 4);
  EXPECT_TRUE(Results.hasValue()) << (Results ? "" : Results.error().str());
  if (!Results)
    return Keys;
  for (const TestDetectionResult &D : *Results)
    for (const ConfirmedRace &C : D.Races)
      Keys.insert(C.Report.key());
  return Keys;
}

} // namespace

//===----------------------------------------------------------------------===//
// API-model extraction
//===----------------------------------------------------------------------===//

TEST(ApiModelTest, ExtractsConstructorsAndMethods) {
  const CorpusEntry *C1 = findCorpusEntry("C1");
  ASSERT_NE(C1, nullptr);
  gen::ApiModel Model = modelOf(C1->Source);

  const gen::ClassModel *Wrapper = Model.find(C1->ClassName);
  ASSERT_NE(Wrapper, nullptr);
  EXPECT_TRUE(Wrapper->Constructible);
  // The wrapper takes its backing queue in the constructor...
  ASSERT_EQ(Wrapper->CtorParamTypes.size(), 1u);
  EXPECT_EQ(Wrapper->CtorParamTypes[0].className(),
            "CoalescedWriteBehindQueue");
  // ...and 'init' is the constructor, never an invocable method.
  EXPECT_EQ(Wrapper->findMethod(std::string(ConstructorName)), nullptr);
  ASSERT_NE(Wrapper->findMethod("addLast"), nullptr);
  ASSERT_NE(Wrapper->findMethod("drainTo"), nullptr);
  EXPECT_EQ(Wrapper->findMethod("drainTo")->ParamTypes.size(), 1u);
  EXPECT_TRUE(Wrapper->findMethod("size")->ReturnType.isInt());

  // Builtins are not part of the client API.
  EXPECT_EQ(Model.find(std::string(IntArrayClassName)), nullptr);
}

TEST(ApiModelTest, ConstructibilityIsAFixpoint) {
  // B needs an A; A needs nothing.  Both end constructible, and a class
  // whose constructor needs an unconstructible peer does not.
  gen::ApiModel Model = modelOf("class A { field x: int; }\n"
                                "class B { field a: A;\n"
                                "  method init(a: A) { this.a = a; } }\n"
                                "class C { field c: C;\n"
                                "  method init(c: C) { this.c = c; } }\n");
  ASSERT_NE(Model.find("A"), nullptr);
  EXPECT_TRUE(Model.find("A")->Constructible);
  ASSERT_NE(Model.find("B"), nullptr);
  EXPECT_TRUE(Model.find("B")->Constructible);
  ASSERT_NE(Model.find("C"), nullptr);
  EXPECT_FALSE(Model.find("C")->Constructible);
  EXPECT_TRUE(Model.producible(Type::intTy()));
  EXPECT_TRUE(Model.producible(Type::classTy("B")));
  EXPECT_FALSE(Model.producible(Type::classTy("C")));
}

TEST(ApiModelTest, StaticSummaryMarksControllableState) {
  const CorpusEntry *C1 = findCorpusEntry("C1");
  gen::ApiModel Model = modelOf(C1->Source, /*WithStatic=*/true);
  const gen::ClassModel *Wrapper = Model.find(C1->ClassName);
  ASSERT_NE(Wrapper, nullptr);
  // addLast mutates the backing queue the client handed the constructor:
  // touched fields recorded, controllability derived from the summary.
  const gen::MethodApi *AddLast = Wrapper->findMethod("addLast");
  ASSERT_NE(AddLast, nullptr);
  EXPECT_FALSE(AddLast->TouchedFields.empty());
  bool AnyControllable = false;
  for (const auto &[Name, Class] : Model.Classes)
    for (const gen::MethodApi &M : Class.Methods)
      AnyControllable |= M.TouchesControllableState;
  EXPECT_TRUE(AnyControllable);
}

//===----------------------------------------------------------------------===//
// Generated-program well-typedness
//===----------------------------------------------------------------------===//

TEST(SeedGenTest, EveryGeneratedProgramIsWellTyped) {
  // Sema + lowering (compileProgram) + the IR verifier must accept every
  // candidate the generator can emit, not just the ones the engine keeps.
  for (const char *Id : {"C1", "C2", "C9"}) {
    const CorpusEntry *Entry = findCorpusEntry(Id);
    CompiledProgram Lib = compileOk(Entry->Source);
    std::string LibOnly;
    for (const auto &Class : Lib.Ast->Classes)
      LibOnly += printClass(*Class) + "\n";
    gen::ApiModel Model = modelOf(LibOnly);
    const std::string &Focus = Entry->ClassName;
    for (unsigned I = 0; I < 40; ++I) {
      RNG R(gen::candidateSeed(7, 0, I));
      std::string Test =
          I < 2 ? gen::generateSweepSeedTest(Model, Focus, "t", R)
                : gen::generateSeedTest(Model, Focus, {}, "t", R);
      Result<CompiledProgram> Full = compileProgram(LibOnly + "\n" + Test);
      ASSERT_TRUE(Full.hasValue())
          << Id << " candidate " << I << ": " << Full.error().str() << "\n"
          << Test;
      Status Verified = verifyModule(*Full->Module);
      EXPECT_TRUE(Verified.ok()) << Id << " candidate " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(GenEngineTest, FixedSeedReproducesTheCorpusByteForByte) {
  const CorpusEntry *C9 = findCorpusEntry("C9");
  gen::GenOptions Options;
  Options.FocusClass = C9->ClassName;
  Result<gen::GenResult> A = gen::generateSeedCorpus(C9->Source, Options);
  Result<gen::GenResult> B = gen::generateSeedCorpus(C9->Source, Options);
  ASSERT_TRUE(A.hasValue()) << A.error().str();
  ASSERT_TRUE(B.hasValue()) << B.error().str();
  EXPECT_EQ(A->CorpusSource, B->CorpusSource);
  EXPECT_EQ(A->SeedNames, B->SeedNames);
  EXPECT_EQ(A->PairKeys, B->PairKeys);
  EXPECT_FALSE(A->Seeds.empty());

  // A different seed is a different corpus (the knob is live).
  Options.Seed = 99;
  Result<gen::GenResult> C = gen::generateSeedCorpus(C9->Source, Options);
  ASSERT_TRUE(C.hasValue()) << C.error().str();
  EXPECT_NE(A->CorpusSource, C->CorpusSource);
}

TEST(GenEngineTest, CorpusIsByteIdenticalAcrossJobCounts) {
  const CorpusEntry *C2 = findCorpusEntry("C2");
  gen::GenOptions Options;
  Options.FocusClass = C2->ClassName;
  Options.Jobs = 1;
  Result<gen::GenResult> Serial = gen::generateSeedCorpus(C2->Source, Options);
  Options.Jobs = 4;
  Result<gen::GenResult> Par = gen::generateSeedCorpus(C2->Source, Options);
  ASSERT_TRUE(Serial.hasValue()) << Serial.error().str();
  ASSERT_TRUE(Par.hasValue()) << Par.error().str();
  EXPECT_EQ(Serial->CorpusSource, Par->CorpusSource);
  EXPECT_EQ(Serial->SeedNames, Par->SeedNames);
  EXPECT_EQ(Serial->PairKeys, Par->PairKeys);
}

TEST(GenEngineTest, StepLimitedCandidatesStopAtTheValidationBudget) {
  // Some C2 candidates never finish (`l.addAll(l)` grows the list it
  // walks).  Validation stops them at its own step budget: at seed 1 the
  // whole generation runs under 1M steps, where runTestSequential's
  // default budget spends over 5M on the same candidates.
  const CorpusEntry *C2 = findCorpusEntry("C2");
  gen::GenOptions Options;
  Options.FocusClass = C2->ClassName;
  Options.Seed = 1;
  auto CounterNow = [](const char *Name) {
    return obs::MetricsRegistry::global().snapshot().counter(Name);
  };
  const uint64_t Steps = CounterNow("runtime.steps");
  const uint64_t LimitHits = CounterNow("runtime.step_limit_hits");
  Result<gen::GenResult> Gen = gen::generateSeedCorpus(C2->Source, Options);
  ASSERT_TRUE(Gen.hasValue()) << Gen.error().str();
  EXPECT_GE(CounterNow("runtime.step_limit_hits") - LimitHits, 1u);
  EXPECT_LT(CounterNow("runtime.steps") - Steps, 1'000'000u);
}

TEST(GenEngineTest, CandidateSeedsAreCoordinateStable) {
  // The split discipline: streams depend only on (base, round, index).
  EXPECT_EQ(gen::candidateSeed(1, 0, 0), gen::candidateSeed(1, 0, 0));
  EXPECT_NE(gen::candidateSeed(1, 0, 0), gen::candidateSeed(1, 0, 1));
  EXPECT_NE(gen::candidateSeed(1, 0, 0), gen::candidateSeed(1, 1, 0));
  EXPECT_NE(gen::candidateSeed(1, 0, 0), gen::candidateSeed(2, 0, 0));
}

//===----------------------------------------------------------------------===//
// Differential recall: generated corpus vs hand-written seeds
//===----------------------------------------------------------------------===//

namespace {

/// Generates a zero-seed corpus for \p Entry and asserts the pipeline run
/// on it reproduces every race the hand-written seed suite finds.
/// Returns the number of extra races only the generated corpus reaches.
size_t expectFullRecall(const char *Id, unsigned Rounds, unsigned Budget) {
  const CorpusEntry *Entry = findCorpusEntry(Id);
  gen::GenOptions Options;
  Options.FocusClass = Entry->ClassName;
  Options.Rounds = Rounds;
  Options.Budget = Budget;
  Options.Jobs = 4;
  Result<gen::GenResult> Gen = gen::generateSeedCorpus(Entry->Source, Options);
  EXPECT_TRUE(Gen.hasValue()) << (Gen ? "" : Gen.error().str());
  if (!Gen)
    return 0;
  EXPECT_FALSE(Gen->Seeds.empty()) << Id;

  std::set<std::string> Hand =
      raceKeysOf(Entry->Source, Entry->SeedNames, Entry->ClassName);
  std::set<std::string> Generated =
      raceKeysOf(Gen->CorpusSource, Gen->SeedNames, Entry->ClassName);
  EXPECT_FALSE(Hand.empty()) << Id;

  std::set<std::string> Missing;
  for (const std::string &Key : Hand)
    if (!Generated.count(Key))
      Missing.insert(Key);
  EXPECT_TRUE(Missing.empty()) << Id << ": generated corpus missed "
                               << Missing.size() << " of " << Hand.size()
                               << " hand-seed races, e.g. " << *Missing.begin();

  size_t Extra = 0;
  for (const std::string &Key : Generated)
    Extra += !Hand.count(Key);
  return Extra;
}

} // namespace

TEST(GenRecallTest, C9GeneratedCorpusReproducesHandSeedRaces) {
  expectFullRecall("C9", 2, 16);
}

TEST(GenRecallTest, C2GeneratedCorpusReproducesHandSeedRacesAndFindsMore) {
  // C2's hand suite misses client-stageable states the generator reaches:
  // full recall is required AND strictly new races must appear (the
  // acceptance criterion that generation is not merely replaying hands).
  size_t Extra = expectFullRecall("C2", 4, 32);
  EXPECT_GT(Extra, 0u);
}
