//===- tests/property_test.cpp - Parameterized property sweeps ------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Property-style invariants swept over scheduler seeds and corpus classes:
//
//  P1. Determinism: a fixed scheduler seed yields a bit-identical event
//      trace and final heap.
//  P2. Sequential equivalence: scheduling policy cannot change the outcome
//      of a single-threaded program.
//  P3. Atomicity: a fully synchronized counter reaches the exact expected
//      value under every schedule.
//  P4. Monitor integrity: at every trace point, an object's lock/unlock
//      events balance and nest per thread.
//  P5. Printer fixpoint: print(parse(print(p))) == print(p) for every
//      corpus program.
//  P6. Pipeline determinism: Narada produces identical test suites across
//      runs.
//  P7. Pair uniqueness: the PairGenerator never emits two candidates with
//      the same pair key.
//  P8. Merge order: the parallel driver's commit plan replays the serial
//      loop exactly on randomized shape sets — same decisions, dense test
//      numbering, and synthesis attempted for precisely the pairs the
//      serial loop would attempt.
//  P9. Reduction safety: the generated-corpus reducer never shrinks the
//      covered access-pair set, and only ever drops seeds.
// P10. Generative replay: regenerating with the same seed after reduction
//      reproduces the reduced corpus byte for byte.
//
//===----------------------------------------------------------------------===//

#include "RunRecorded.h"
#include "analysis/AccessAnalysis.h"
#include "corpus/Corpus.h"
#include "gen/GenEngine.h"
#include "lang/ASTPrinter.h"
#include "lang/Parser.h"
#include "runtime/Execution.h"
#include "support/RNG.h"
#include "synth/Narada.h"
#include "synth/PairGenerator.h"
#include "synth/ParallelDriver.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace narada;

namespace {

constexpr const char *RacyMix = R"(
class Shared {
  field a: int;
  field b: int;
  method bumpA() synchronized { this.a = this.a + 1; }
  method bumpB() { this.b = this.b + 1; }
  method swap() synchronized {
    var t: int = this.a;
    this.a = this.b;
    this.b = t;
  }
}
test mixed {
  var s: Shared = new Shared;
  spawn { s.bumpA(); s.bumpB(); s.swap(); }
  spawn { s.swap(); s.bumpB(); s.bumpA(); }
}
)";

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

} // namespace

// P1: determinism per scheduler seed.
TEST_P(SeedSweep, IdenticalSeedsGiveIdenticalExecutions) {
  Result<CompiledProgram> P = compileProgram(RacyMix);
  ASSERT_TRUE(P.hasValue());

  auto RunOnce = [&] {
    RandomPolicy Policy(GetParam());
    Result<TestRun> Run = runRecorded(*P->Module, "mixed", Policy);
    EXPECT_TRUE(Run.hasValue());
    return Run.take();
  };
  TestRun A = RunOnce();
  TestRun B = RunOnce();
  EXPECT_EQ(A.HeapHash, B.HeapHash);
  ASSERT_FALSE(A.TheTrace.empty());
  ASSERT_EQ(A.TheTrace.size(), B.TheTrace.size());
  for (size_t I = 0; I < A.TheTrace.size(); ++I) {
    EXPECT_EQ(A.TheTrace[I].Kind, B.TheTrace[I].Kind) << I;
    EXPECT_EQ(A.TheTrace[I].Thread, B.TheTrace[I].Thread) << I;
    EXPECT_EQ(A.TheTrace[I].Obj, B.TheTrace[I].Obj) << I;
  }
}

// P2: policy cannot affect single-threaded outcomes.
TEST_P(SeedSweep, SequentialProgramsAreScheduleInvariant) {
  Result<CompiledProgram> P = compileProgram(
      "class Acc { field total: int;\n"
      "  method addUpTo(n: int) {\n"
      "    var i: int = 1;\n"
      "    while (i <= n) { this.total = this.total + i; i = i + 1; }\n"
      "  } }\n"
      "test t { var a: Acc = new Acc; a.addUpTo(12); }\n");
  ASSERT_TRUE(P.hasValue());
  RoundRobinPolicy Baseline;
  Result<TestRun> Ref = runTest(*P->Module, "t", Baseline);
  ASSERT_TRUE(Ref.hasValue());

  RandomPolicy Policy(GetParam());
  Result<TestRun> Run = runTest(*P->Module, "t", Policy);
  ASSERT_TRUE(Run.hasValue());
  EXPECT_EQ(Run->HeapHash, Ref->HeapHash);
  EXPECT_EQ(Run->Result.Steps, Ref->Result.Steps);
}

// P3: full synchronization means exact counts under every schedule.
TEST_P(SeedSweep, SynchronizedCounterIsExact) {
  Result<CompiledProgram> P = compileProgram(
      "class C { field n: int;\n"
      "  method inc() synchronized { this.n = this.n + 1; }\n"
      "  method get(): int synchronized { return this.n; } }\n"
      "test t {\n"
      "  var c: C = new C;\n"
      "  spawn { c.inc(); c.inc(); c.inc(); }\n"
      "  spawn { c.inc(); c.inc(); c.inc(); }\n"
      "}\n");
  ASSERT_TRUE(P.hasValue());
  RandomPolicy Policy(GetParam());
  Result<TestRun> Run = runRecorded(*P->Module, "t", Policy);
  ASSERT_TRUE(Run.hasValue());
  int64_t Final = -1;
  for (const TraceEvent &E : Run->TheTrace)
    if (E.Kind == EventKind::WriteField && *E.Member == "n")
      Final = E.Val.asInt();
  EXPECT_EQ(Final, 6) << "seed " << GetParam();
}

// P4: lock/unlock events balance and alternate per (thread, object).
TEST_P(SeedSweep, MonitorEventsBalance) {
  Result<CompiledProgram> P = compileProgram(RacyMix);
  ASSERT_TRUE(P.hasValue());
  RandomPolicy Policy(GetParam());
  Result<TestRun> Run = runRecorded(*P->Module, "mixed", Policy);
  ASSERT_TRUE(Run.hasValue());

  std::map<ObjectId, ThreadId> Holder;
  size_t Locks = 0;
  for (const TraceEvent &E : Run->TheTrace) {
    if (E.Kind == EventKind::Lock) {
      ++Locks;
      EXPECT_FALSE(Holder.count(E.Obj))
          << "lock of held monitor @" << E.Obj;
      Holder[E.Obj] = E.Thread;
    } else if (E.Kind == EventKind::Unlock) {
      ASSERT_TRUE(Holder.count(E.Obj)) << "unlock of free monitor";
      EXPECT_EQ(Holder[E.Obj], E.Thread) << "unlock by non-owner";
      Holder.erase(E.Obj);
    }
  }
  EXPECT_GT(Locks, 0u) << "no monitor events recorded";
  EXPECT_TRUE(Holder.empty()) << "monitors leaked at exit";
}

// P3b: preemption-bounded schedules are also sound for exact counts.
TEST_P(SeedSweep, PreemptionBoundedPolicyPreservesAtomicity) {
  Result<CompiledProgram> P = compileProgram(
      "class C { field n: int;\n"
      "  method inc() synchronized { this.n = this.n + 1; } }\n"
      "test t {\n"
      "  var c: C = new C;\n"
      "  spawn { c.inc(); c.inc(); }\n"
      "  spawn { c.inc(); c.inc(); }\n"
      "}\n");
  ASSERT_TRUE(P.hasValue());
  PreemptionBoundedPolicy Policy(GetParam(), /*PreemptPercent=*/25);
  Result<TestRun> Run = runRecorded(*P->Module, "t", Policy);
  ASSERT_TRUE(Run.hasValue());
  EXPECT_FALSE(Run->Result.Deadlocked);
  int64_t Final = -1;
  for (const TraceEvent &E : Run->TheTrace)
    if (E.Kind == EventKind::WriteField)
      Final = E.Val.asInt();
  EXPECT_EQ(Final, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89, 144));

//===----------------------------------------------------------------------===//
// Corpus-wide printer and pipeline properties
//===----------------------------------------------------------------------===//

namespace {
class CorpusSweep : public ::testing::TestWithParam<std::string> {};
} // namespace

// P5: pretty-printer fixpoint on every corpus program.
TEST_P(CorpusSweep, PrinterReachesFixpoint) {
  const CorpusEntry *Entry = findCorpusEntry(GetParam());
  ASSERT_TRUE(Entry);
  Result<std::unique_ptr<Program>> P1 = Parser::parse(Entry->Source);
  ASSERT_TRUE(P1.hasValue()) << (P1 ? "" : P1.error().str());
  std::string Once = printProgram(**P1);
  Result<std::unique_ptr<Program>> P2 = Parser::parse(Once);
  ASSERT_TRUE(P2.hasValue()) << (P2 ? "" : P2.error().str());
  EXPECT_EQ(printProgram(**P2), Once);
}

// P6: the pipeline is deterministic end to end.
TEST_P(CorpusSweep, PipelineIsDeterministic) {
  const CorpusEntry *Entry = findCorpusEntry(GetParam());
  ASSERT_TRUE(Entry);
  NaradaOptions Options;
  Options.FocusClass = Entry->ClassName;

  auto RunOnce = [&] {
    Result<NaradaResult> R =
        runNarada(Entry->Source, Entry->SeedNames, Options);
    EXPECT_TRUE(R.hasValue());
    return R.take();
  };
  NaradaResult A = RunOnce();
  NaradaResult B = RunOnce();
  EXPECT_EQ(A.Pairs.size(), B.Pairs.size());
  ASSERT_EQ(A.Tests.size(), B.Tests.size());
  for (size_t I = 0; I < A.Tests.size(); ++I)
    EXPECT_EQ(A.Tests[I].SourceText, B.Tests[I].SourceText) << I;
}

// P7: no duplicate pair keys out of the generator, on any corpus class.
TEST_P(CorpusSweep, PairGeneratorEmitsNoDuplicateKeys) {
  const CorpusEntry *Entry = findCorpusEntry(GetParam());
  ASSERT_TRUE(Entry);
  NaradaOptions Options;
  Options.FocusClass = Entry->ClassName;
  Result<NaradaResult> R =
      runNarada(Entry->Source, Entry->SeedNames, Options);
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.error().str());

  std::set<std::string> Keys;
  for (const RacyPair &Pair : R->Pairs)
    EXPECT_TRUE(Keys.insert(Pair.key()).second)
        << "duplicate pair key " << Pair.key();
}

INSTANTIATE_TEST_SUITE_P(Classes, CorpusSweep,
                         ::testing::Values("C1", "C3", "C7", "C8", "C9"),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===//
// P8: commit-plan merge properties on randomized shape sets
//===----------------------------------------------------------------------===//

namespace {
class MergeSweep : public ::testing::TestWithParam<uint64_t> {};
} // namespace

// The commit walk must be indistinguishable from the serial loop no matter
// how shapes repeat or which shapes fail.
TEST_P(MergeSweep, CommitPlanReplaysSerialLoop) {
  RNG Rand(GetParam());
  const size_t N = 20 + Rand.nextBelow(60);
  const size_t Alphabet = 1 + Rand.nextBelow(12);

  // Randomized pair stream: shapes repeat, some shapes always fail
  // (failures are a deterministic function of the shape, as in the real
  // synthesizer).
  std::vector<std::string> Shapes;
  std::set<std::string> Failing;
  for (size_t I = 0; I < N; ++I)
    Shapes.push_back("shape" + std::to_string(Rand.nextBelow(Alphabet)));
  for (size_t S = 0; S < Alphabet; ++S)
    if (Rand.chance(1, 3))
      Failing.insert("shape" + std::to_string(S));

  std::vector<size_t> Attempted;
  auto Succeeds = [&](size_t I) {
    Attempted.push_back(I);
    return !Failing.count(Shapes[I]);
  };
  std::vector<CommitDecision> Plan = planCommit(Shapes, Succeeds);

  // Reference: the serial loop, written out independently.
  std::map<std::string, size_t> ByShape;
  std::vector<size_t> ExpectAttempted;
  size_t Tests = 0;
  for (size_t I = 0; I < N; ++I) {
    if (ByShape.count(Shapes[I])) {
      EXPECT_EQ(Plan[I].K, CommitDecision::Kind::Join) << I;
      EXPECT_EQ(Plan[I].TestIndex, ByShape[Shapes[I]]) << I;
      continue;
    }
    ExpectAttempted.push_back(I);
    if (!Failing.count(Shapes[I])) {
      EXPECT_EQ(Plan[I].K, CommitDecision::Kind::NewTest) << I;
      EXPECT_EQ(Plan[I].TestIndex, Tests) << I;
      ByShape[Shapes[I]] = Tests++;
    } else {
      EXPECT_EQ(Plan[I].K, CommitDecision::Kind::FailSkip) << I;
    }
  }

  // The lazy callback ran for exactly the serial loop's attempts, in
  // canonical order — nothing extra was synthesized, nothing was lost.
  EXPECT_EQ(Attempted, ExpectAttempted);

  // Test numbering is dense in canonical pair order.
  size_t Next = 0;
  for (size_t I = 0; I < N; ++I)
    if (Plan[I].K == CommitDecision::Kind::NewTest)
      EXPECT_EQ(Plan[I].TestIndex, Next++) << I;
  EXPECT_EQ(Next, Tests);
}

// Splitting the derivation seed by pair index must give distinct streams
// per pair and the same stream for the same pair regardless of call order.
TEST_P(MergeSweep, PairSeedsAreStableAndDecorrelated) {
  const uint64_t Base = GetParam();
  std::set<uint64_t> Seen;
  for (size_t I = 0; I < 64; ++I) {
    uint64_t S = pairDerivationSeed(Base, I);
    EXPECT_EQ(S, pairDerivationSeed(Base, I)) << "unstable seed, pair " << I;
    EXPECT_TRUE(Seen.insert(S).second) << "colliding seed, pair " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           1234, 99991));

//===----------------------------------------------------------------------===//
// P9/P10: generated seed corpus properties
//===----------------------------------------------------------------------===//

namespace {
class GenSweep : public ::testing::TestWithParam<std::string> {};
} // namespace

// P9: reduction is a pure subset operation on the kept seeds and an
// identity on the covered pair set.
TEST_P(GenSweep, ReductionNeverShrinksPairCoverage) {
  const CorpusEntry *Entry = findCorpusEntry(GetParam());
  ASSERT_TRUE(Entry);
  gen::GenOptions Options;
  Options.FocusClass = Entry->ClassName;

  Options.Reduce = false;
  Result<gen::GenResult> Full = gen::generateSeedCorpus(Entry->Source, Options);
  Options.Reduce = true;
  Result<gen::GenResult> Reduced =
      gen::generateSeedCorpus(Entry->Source, Options);
  ASSERT_TRUE(Full.hasValue()) << Full.error().str();
  ASSERT_TRUE(Reduced.hasValue()) << Reduced.error().str();

  EXPECT_EQ(Full->PairKeys, Reduced->PairKeys);
  EXPECT_LE(Reduced->Seeds.size(), Full->Seeds.size());

  // Every surviving seed is one of the unreduced seeds, unchanged and in
  // the same relative order (the reducer only erases).
  size_t Cursor = 0;
  for (const gen::GenSeed &Kept : Reduced->Seeds) {
    while (Cursor < Full->Seeds.size() &&
           Full->Seeds[Cursor].Name != Kept.Name)
      ++Cursor;
    ASSERT_LT(Cursor, Full->Seeds.size()) << "seed not in unreduced corpus";
    EXPECT_EQ(Full->Seeds[Cursor].Source, Kept.Source) << Kept.Name;
    ++Cursor;
  }
}

// P10: generation is a pure function of (source, options) — running it
// again after a reduced run replays the identical reduced corpus.
TEST_P(GenSweep, SameSeedRegenerationReplaysReducedCorpus) {
  const CorpusEntry *Entry = findCorpusEntry(GetParam());
  ASSERT_TRUE(Entry);
  gen::GenOptions Options;
  Options.FocusClass = Entry->ClassName;
  Result<gen::GenResult> A = gen::generateSeedCorpus(Entry->Source, Options);
  Result<gen::GenResult> B = gen::generateSeedCorpus(Entry->Source, Options);
  ASSERT_TRUE(A.hasValue()) << A.error().str();
  ASSERT_TRUE(B.hasValue()) << B.error().str();
  EXPECT_EQ(A->CorpusSource, B->CorpusSource);
  EXPECT_EQ(A->SeedNames, B->SeedNames);
  EXPECT_EQ(A->PairKeys, B->PairKeys);
  ASSERT_EQ(A->Seeds.size(), B->Seeds.size());
  for (size_t I = 0; I < A->Seeds.size(); ++I)
    EXPECT_EQ(A->Seeds[I].Source, B->Seeds[I].Source) << A->Seeds[I].Name;
}

// P11: the commit and reduction phases track pair coverage one seed at a
// time.  generatePairs over the kept seeds, run and merged from scratch in
// order, is the reference for the keys they report.
TEST_P(GenSweep, PairCoverageMatchesGeneratePairsOverKeptSeeds) {
  const CorpusEntry *Entry = findCorpusEntry(GetParam());
  ASSERT_TRUE(Entry);
  for (bool Reduce : {false, true}) {
    gen::GenOptions Options;
    Options.FocusClass = Entry->ClassName;
    Options.Reduce = Reduce;
    Result<gen::GenResult> Gen =
        gen::generateSeedCorpus(Entry->Source, Options);
    ASSERT_TRUE(Gen.hasValue()) << Gen.error().str();
    Result<CompiledProgram> Corpus = compileProgram(Gen->CorpusSource);
    ASSERT_TRUE(Corpus.hasValue()) << Corpus.error().str();

    AnalysisResult Merged;
    for (const std::string &Name : Gen->SeedNames) {
      Result<TestRun> Run = runTestSequential(*Corpus->Module, Name);
      ASSERT_TRUE(Run.hasValue()) << Run.error().str();
      ASSERT_FALSE(Run->Result.HitStepLimit) << Name;
      Merged.merge(analyzeTrace(Run->TheTrace, *Corpus->Info));
    }
    PairGenOptions PairOptions;
    PairOptions.FocusClass = Entry->ClassName;
    std::set<std::string> Keys;
    for (const RacyPair &Pair : generatePairs(Merged, PairOptions))
      Keys.insert(Pair.key());
    EXPECT_FALSE(Keys.empty());
    EXPECT_EQ(Keys, Gen->PairKeys) << "Reduce=" << Reduce;
  }
}

INSTANTIATE_TEST_SUITE_P(Classes, GenSweep,
                         ::testing::Values("C1", "C2", "C5", "C8", "C9"),
                         [](const auto &Info) { return Info.param; });
