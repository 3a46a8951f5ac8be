//===- tests/staticrace_test.cpp - Static race pre-analysis tests --------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Three layers of coverage for src/staticrace/:
//
//  1. Lockset abstract interpretation on hand-built IR: must-locks under
//     synchronized shapes, intersection at joins, fresh-monitor dropping,
//     store invalidation, and the path-depth cap.
//  2. Classifier verdicts on compiled corpus modules: the known-guarded
//     C7 pairs come back MustGuarded, the paper's actual races MayRace.
//  3. The soundness contract the verdicts rest on: no generated pair and
//     no dynamically confirmed race is ever statically MustGuarded.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "gen/GenEngine.h"
#include "staticrace/LocksetAnalysis.h"
#include "staticrace/PairClassifier.h"
#include "synth/Narada.h"
#include "synth/PairGenerator.h"

#include <gtest/gtest.h>

#include <map>

using namespace narada;
using staticrace::Controllability;
using staticrace::MethodSummary;
using staticrace::ModuleSummary;
using staticrace::PairVerdict;
using staticrace::StaticAccess;

namespace {

Instr instr(Opcode Op) {
  Instr I;
  I.Op = Op;
  return I;
}

Instr monitorOp(Opcode Op, Reg R) {
  Instr I = instr(Op);
  I.A = R;
  return I;
}

Instr loadField(Reg Dst, Reg Base, const std::string &Field) {
  Instr I = instr(Opcode::LoadField);
  I.Dst = Dst;
  I.A = Base;
  I.Member = Field;
  I.ClassName = "Q";
  return I;
}

Instr storeField(Reg Base, const std::string &Field, Reg Value) {
  Instr I = instr(Opcode::StoreField);
  I.A = Base;
  I.B = Value;
  I.Member = Field;
  I.ClassName = "Q";
  return I;
}

Instr branchTo(Reg Cond, size_t Target) {
  Instr I = instr(Opcode::Branch);
  I.A = Cond;
  I.Target = Target;
  return I;
}

Instr jumpTo(size_t Target) {
  Instr I = instr(Opcode::Jump);
  I.Target = Target;
  return I;
}

/// A Kind::Method function "Q.m" with \p Params params and \p Regs regs.
std::unique_ptr<IRFunction> makeMethod(std::vector<Instr> Body,
                                       unsigned Params = 1,
                                       unsigned Regs = 8) {
  auto F = std::make_unique<IRFunction>("Q.m", IRFunction::Kind::Method);
  F->setNumParams(Params);
  F->setNumRegs(Regs);
  for (Instr &I : Body)
    F->append(I);
  return F;
}

AccessPath receiverPath() { return AccessPath(0, {}); }

/// First summarized access at the given pc label suffix.
const StaticAccess *accessAt(const MethodSummary &S, const std::string &At) {
  for (const StaticAccess &A : S.Accesses)
    if (A.Label == "Q.m:" + At)
      return &A;
  return nullptr;
}

/// Label of the first access of \p Sym touching \p Field with the given
/// direction — lets corpus tests find sites without pinning pc numbers.
std::string labelOf(const ModuleSummary &S, const std::string &Sym,
                    const std::string &Field, bool IsWrite) {
  const MethodSummary *M = S.find(Sym);
  if (!M)
    return {};
  for (const StaticAccess &A : M->Accesses)
    if (A.Field == Field && A.IsWrite == IsWrite)
      return A.Label;
  return {};
}

ModuleSummary summarizeCorpus(const std::string &Id) {
  const CorpusEntry &E = *findCorpusEntry(Id);
  Result<CompiledProgram> P = compileProgram(E.Source);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  return staticrace::summarizeModule(*P->Module);
}

} // namespace

//===----------------------------------------------------------------------===//
// Lockset interpretation on hand-built IR.
//===----------------------------------------------------------------------===//

TEST(LocksetAnalysisTest, SyncMethodAccessHoldsReceiverLock) {
  // monitor_enter this; load this.head; monitor_exit this; ret — the
  // lowering of a synchronized getter.
  auto F = makeMethod({monitorOp(Opcode::MonitorEnter, 0),
                       loadField(1, 0, "head"),
                       monitorOp(Opcode::MonitorExit, 0),
                       instr(Opcode::Ret)});
  MethodSummary S = staticrace::summarizeFunctionIntra(*F);
  EXPECT_FALSE(S.Incomplete);
  ASSERT_EQ(S.Accesses.size(), 1u);
  const StaticAccess &A = S.Accesses[0];
  EXPECT_EQ(A.Label, "Q.m:1");
  EXPECT_EQ(A.Ctrl, Controllability::Param);
  ASSERT_TRUE(A.BasePath.has_value());
  EXPECT_EQ(*A.BasePath, receiverPath());
  EXPECT_EQ(A.UnknownLocks, 0u);
  ASSERT_EQ(A.MustLocks.size(), 1u);
  EXPECT_EQ(A.MustLocks.count(receiverPath()), 1u);
}

TEST(LocksetAnalysisTest, UnsynchronizedAccessHasEmptyMustSet) {
  auto F = makeMethod({loadField(1, 0, "head"), instr(Opcode::Ret)});
  MethodSummary S = staticrace::summarizeFunctionIntra(*F);
  EXPECT_FALSE(S.Incomplete);
  ASSERT_EQ(S.Accesses.size(), 1u);
  EXPECT_TRUE(S.Accesses[0].MustLocks.empty());
  EXPECT_EQ(S.Accesses[0].UnknownLocks, 0u);
}

TEST(LocksetAnalysisTest, JoinIntersectsDivergentLocks) {
  // Arms lock different objects (this vs arg); the join keeps neither, so
  // the access after it has an empty must-set, and the final exit of a
  // lock the abstraction no longer holds marks the summary Incomplete.
  auto F = makeMethod({instr(Opcode::ConstBool),             // 0: r2
                       branchTo(2, 4),                       // 1
                       monitorOp(Opcode::MonitorEnter, 0),   // 2
                       jumpTo(5),                            // 3
                       monitorOp(Opcode::MonitorEnter, 1),   // 4
                       loadField(3, 0, "head"),              // 5
                       monitorOp(Opcode::MonitorExit, 0),    // 6
                       instr(Opcode::Ret)},                  // 7
                      /*Params=*/2);
  F->instrs()[0].Dst = 2;
  MethodSummary S = staticrace::summarizeFunctionIntra(*F);
  const StaticAccess *A = accessAt(S, "5");
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->MustLocks.empty());
  EXPECT_EQ(A->UnknownLocks, 0u);
  EXPECT_TRUE(S.Incomplete); // The exit released a non-must monitor.
}

TEST(LocksetAnalysisTest, LockHeldOnBothArmsSurvivesJoin) {
  // Both arms lock the receiver; the join keeps it.
  auto F = makeMethod({instr(Opcode::ConstBool),             // 0: r2
                       branchTo(2, 4),                       // 1
                       monitorOp(Opcode::MonitorEnter, 0),   // 2
                       jumpTo(5),                            // 3
                       monitorOp(Opcode::MonitorEnter, 0),   // 4
                       loadField(3, 0, "head"),              // 5
                       monitorOp(Opcode::MonitorExit, 0),    // 6
                       instr(Opcode::Ret)});                 // 7
  F->instrs()[0].Dst = 2;
  MethodSummary S = staticrace::summarizeFunctionIntra(*F);
  EXPECT_FALSE(S.Incomplete);
  const StaticAccess *A = accessAt(S, "5");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->MustLocks.count(receiverPath()), 1u);
}

TEST(LocksetAnalysisTest, FreshMonitorIsDropped) {
  // Locking a freshly allocated object proves nothing about cross-thread
  // exclusion: the access under it must not look guarded.
  Instr New = instr(Opcode::NewObject);
  New.Dst = 1;
  New.ClassName = "Q";
  auto F = makeMethod({New,
                       monitorOp(Opcode::MonitorEnter, 1),
                       loadField(2, 0, "head"),
                       monitorOp(Opcode::MonitorExit, 1),
                       instr(Opcode::Ret)});
  MethodSummary S = staticrace::summarizeFunctionIntra(*F);
  EXPECT_FALSE(S.Incomplete);
  const StaticAccess *A = accessAt(S, "2");
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->MustLocks.empty());
  EXPECT_EQ(A->UnknownLocks, 0u);
}

TEST(LocksetAnalysisTest, StoreInvalidatesFutureLoadsOnly) {
  // r1 = this.f (entry snapshot); store this.f; then a re-load of .f no
  // longer denotes an entry path, but r1 — loaded before the store —
  // still does.
  auto F = makeMethod({loadField(1, 0, "f"),       // 0: r1 = I0.f
                       storeField(0, "f", 0),      // 1: smashes f
                       loadField(2, 0, "f"),       // 2: r2 = unknown
                       loadField(3, 2, "g"),       // 3: base r2 unknown
                       loadField(4, 1, "g"),       // 4: base r1 = I0.f
                       instr(Opcode::Ret)});
  MethodSummary S = staticrace::summarizeFunctionIntra(*F);
  const StaticAccess *AfterSmash = accessAt(S, "3");
  ASSERT_NE(AfterSmash, nullptr);
  EXPECT_EQ(AfterSmash->Ctrl, Controllability::Unknown);
  const StaticAccess *Snapshot = accessAt(S, "4");
  ASSERT_NE(Snapshot, nullptr);
  EXPECT_EQ(Snapshot->Ctrl, Controllability::Param);
  ASSERT_TRUE(Snapshot->BasePath.has_value());
  EXPECT_EQ(Snapshot->BasePath->str(), AccessPath(0, {"f"}).str());
  EXPECT_EQ(S.StoredFields.count("f"), 1u);
}

TEST(LocksetAnalysisTest, PathDepthCapAbstractsToUnknown) {
  // pc K loads r(K+1) = r(K).fK, so r(K) sits at depth K.  The load at pc
  // Cap reads through a base at exactly the cap; its result would be one
  // deeper, so the load at pc Cap+1 has an unknown base.
  const unsigned Cap = staticrace::MaxPathDepth;
  std::vector<Instr> Body;
  for (Reg K = 0; K <= Cap + 1; ++K)
    Body.push_back(loadField(K + 1, K, "f" + std::to_string(K)));
  Body.push_back(instr(Opcode::Ret));
  auto F = makeMethod(std::move(Body), /*Params=*/1, /*Regs=*/Cap + 3);
  MethodSummary S = staticrace::summarizeFunctionIntra(*F);
  const StaticAccess *AtCap = accessAt(S, std::to_string(Cap));
  ASSERT_NE(AtCap, nullptr);
  EXPECT_EQ(AtCap->Ctrl, Controllability::Param); // Base itself is at the cap.
  const StaticAccess *Beyond = accessAt(S, std::to_string(Cap + 1));
  ASSERT_NE(Beyond, nullptr);
  EXPECT_EQ(Beyond->Ctrl, Controllability::Unknown);
}

//===----------------------------------------------------------------------===//
// Compositional summaries and classifier verdicts on corpus modules.
//===----------------------------------------------------------------------===//

TEST(StaticSummaryTest, WrapperInheritsCalleeAccessWithCalleeLabel) {
  // C1's SynchronizedWriteBehindQueue methods call into the underlying
  // queue class; the entry method's summary must contain the callee-site
  // labels, rebased to the entry receiver, with the caller's lock added.
  ModuleSummary S = summarizeCorpus("C1");
  const MethodSummary *Offer =
      S.find("SynchronizedWriteBehindQueue.offer");
  ASSERT_NE(Offer, nullptr);
  bool SawInherited = false;
  for (const StaticAccess &A : Offer->Accesses) {
    if (A.Label.rfind("SynchronizedWriteBehindQueue.", 0) == 0)
      continue; // Own site.
    SawInherited = true;
    // Inherited instances under the synchronized wrapper must hold the
    // wrapper's receiver lock.
    if (A.Ctrl == Controllability::Param)
      EXPECT_EQ(A.MustLocks.count(receiverPath()), 1u) << A.str();
  }
  EXPECT_TRUE(SawInherited);
}

TEST(PairClassifierTest, C7SynchronizedPairIsMustGuarded) {
  ModuleSummary S = summarizeCorpus("C7");
  const std::string Cls = "PooledExecutorWithInvalidate";
  std::string AddHead = labelOf(S, Cls + ".addTask", "head", /*write*/ true);
  std::string RunHead =
      labelOf(S, Cls + ".runNextTask", "head", /*write*/ true);
  ASSERT_FALSE(AddHead.empty());
  ASSERT_FALSE(RunHead.empty());
  EXPECT_EQ(staticrace::classifyLabelPair(S, Cls + ".addTask", AddHead,
                                          Cls + ".runNextTask", RunHead),
            PairVerdict::MustGuarded);
}

TEST(PairClassifierTest, C7ShutdownFlagIsMayRace) {
  // The paper's actual C7 race: shutdownNow() writes the flag with no
  // lock; addTask() reads it under the receiver lock.  Disjoint locksets
  // on at least one side -> can race.
  ModuleSummary S = summarizeCorpus("C7");
  const std::string Cls = "PooledExecutorWithInvalidate";
  std::string Write =
      labelOf(S, Cls + ".shutdownNow", "shutdown", /*write*/ true);
  std::string Read =
      labelOf(S, Cls + ".isShutdown", "shutdown", /*write*/ false);
  ASSERT_FALSE(Write.empty());
  ASSERT_FALSE(Read.empty());
  EXPECT_EQ(staticrace::classifyLabelPair(S, Cls + ".shutdownNow", Write,
                                          Cls + ".isShutdown", Read),
            PairVerdict::MayRace);
}

TEST(PairClassifierTest, UnknownSymbolsClassifyUnknown) {
  ModuleSummary S;
  EXPECT_EQ(staticrace::classifyLabelPair(S, "A.m", "A.m:0", "B.n", "B.n:0"),
            PairVerdict::Unknown);
}

TEST(StaticTriageTest, ListingIsDeterministicAndFindsC7Races) {
  ModuleSummary First = summarizeCorpus("C7");
  ModuleSummary Second = summarizeCorpus("C7");
  std::string A = staticrace::renderStaticTriage(First, "");
  std::string B = staticrace::renderStaticTriage(Second, "");
  EXPECT_EQ(A, B);
  EXPECT_NE(A.find("MayRace"), std::string::npos);
  EXPECT_NE(A.find("shutdownNow"), std::string::npos);
}

TEST(StaticTriageTest, ZeroSeedModuleIsClassifiable) {
  // A library with no test blocks at all: the dynamic pipeline has no
  // seeds to trace, but the static triage still classifies its pairs —
  // the --static-only CLI path.
  const char *Source = R"(
class Counter {
  field value: int;
  method init() { }
  method increment() synchronized { this.value = this.value + 1; }
  method get(): int synchronized { return this.value; }
  method peek(): int { return this.value; }
}
)";
  Result<CompiledProgram> P = compileProgram(Source);
  ASSERT_TRUE(P.hasValue()) << (P ? "" : P.error().str());
  ModuleSummary S = staticrace::summarizeModule(*P->Module);
  std::string Triage = staticrace::renderStaticTriage(S, "Counter");
  EXPECT_NE(Triage.find("MayRace"), std::string::npos) << Triage;
  EXPECT_NE(Triage.find("MustGuarded"), std::string::npos) << Triage;

  std::string Inc = labelOf(S, "Counter.increment", "value", true);
  std::string Get = labelOf(S, "Counter.get", "value", false);
  std::string Peek = labelOf(S, "Counter.peek", "value", false);
  EXPECT_EQ(staticrace::classifyLabelPair(S, "Counter.increment", Inc,
                                          "Counter.get", Get),
            PairVerdict::MustGuarded);
  EXPECT_EQ(staticrace::classifyLabelPair(S, "Counter.increment", Inc,
                                          "Counter.peek", Peek),
            PairVerdict::MayRace);
}

//===----------------------------------------------------------------------===//
// Verdict soundness over the corpus.
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> pairKeys(const std::vector<RacyPair> &Pairs) {
  std::vector<std::string> Keys;
  for (const RacyPair &P : Pairs)
    Keys.push_back(P.key());
  return Keys;
}

Result<NaradaResult> runPipeline(const CorpusEntry &E, bool Verdicts,
                                 bool Rank = false, unsigned Jobs = 1) {
  NaradaOptions Options;
  Options.FocusClass = E.ClassName;
  Options.Jobs = Jobs;
  Options.StaticVerdicts = Verdicts;
  Options.StaticRank = Rank;
  return runNarada(E.Source, E.SeedNames, Options);
}

} // namespace

TEST(StaticVerdictSoundnessTest, NoGeneratedPairIsMustGuarded) {
  // A generated pair is anchored on an access the seed trace saw
  // unprotected, and the must-lockset is a lower bound, so no generated
  // pair can be MustGuarded; and the verdicts filter nothing, so the pair
  // set is the one generated without them.  Checked on every class's hand
  // seeds and on the generated seed corpora at seeds 1-16, as
  // `synthesize [--gen-seeds] --static-verdicts` builds them.
  std::map<PairVerdict, size_t> Counts;
  auto Check = [&](const std::string &Input, const std::string &Source,
                   const std::vector<std::string> &Seeds,
                   const std::string &FocusClass) {
    NaradaOptions Options;
    Options.FocusClass = FocusClass;
    Result<NaradaFrontHalf> Plain =
        runNaradaFrontHalf(Source, Seeds, Options);
    Options.StaticVerdicts = true;
    Result<NaradaFrontHalf> Front =
        runNaradaFrontHalf(Source, Seeds, Options);
    ASSERT_TRUE(Plain.hasValue()) << Input << ": " << Plain.error().str();
    ASSERT_TRUE(Front.hasValue()) << Input << ": " << Front.error().str();
    EXPECT_EQ(pairKeys(Plain->Pairs), pairKeys(Front->Pairs)) << Input;
    for (const RacyPair &P : Front->Pairs) {
      ASSERT_TRUE(P.Verdict.has_value()) << Input << ": " << P.str();
      ++Counts[*P.Verdict];
      EXPECT_NE(P.Verdict, PairVerdict::MustGuarded)
          << Input << ": " << P.str();
    }
  };
  for (const CorpusEntry &E : corpus()) {
    Check(E.Id, E.Source, E.SeedNames, E.ClassName);
    for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
      gen::GenOptions Gen;
      Gen.FocusClass = E.ClassName;
      Gen.Seed = Seed;
      Result<gen::GenResult> G = gen::generateSeedCorpus(E.Source, Gen);
      ASSERT_TRUE(G.hasValue()) << E.Id << " seed " << Seed;
      Check(E.Id + " gen seed " + std::to_string(Seed), G->CorpusSource,
            G->SeedNames, E.ClassName);
    }
  }
  // Not vacuous: the inputs reach every other verdict.
  EXPECT_GT(Counts[PairVerdict::MayRace], 0u);
  EXPECT_GT(Counts[PairVerdict::MustRace], 0u);
  EXPECT_GT(Counts[PairVerdict::Unknown], 0u);
}

TEST(StaticVerdictSoundnessTest, ConfirmedRacesNeverMustGuarded) {
  // Dynamic ground truth vs static verdicts: run full detection on C7
  // with the verdicts on; every confirmed race must classify MayRace or
  // Unknown.  A MustGuarded confirmed race would mean the verdict is
  // unsound.
  const CorpusEntry &E = *findCorpusEntry("C7");
  Result<NaradaResult> R = runPipeline(E, /*Verdicts=*/true);
  ASSERT_TRUE(R.hasValue());

  std::vector<TestDetectJob> Jobs;
  for (const SynthesizedTestInfo &T : R->Tests)
    Jobs.push_back({T.Name, T.CandidateLabels});
  DetectOptions Options;
  Options.RandomRuns = 6;
  Options.ConfirmAttempts = 2;
  Result<std::vector<TestDetectionResult>> Results =
      detectRacesInTests(*R->Program.Module, Jobs, Options, /*Jobs=*/1);
  ASSERT_TRUE(Results.hasValue());

  std::map<std::string, std::string> Verdicts =
      staticVerdictsByRaceKey(R->Pairs);
  unsigned Confirmed = 0;
  for (const TestDetectionResult &D : *Results)
    for (const ConfirmedRace &C : D.Races) {
      if (!C.Reproduced)
        continue;
      ++Confirmed;
      auto It = Verdicts.find(C.Report.key());
      if (It != Verdicts.end())
        EXPECT_NE(It->second, "MustGuarded") << C.Report.str();
    }
  EXPECT_GT(Confirmed, 0u) << "detection found nothing to cross-check";
}

TEST(StaticRankTest, RankedPairsAreDeterministicAcrossJobs) {
  const CorpusEntry &E = *findCorpusEntry("C5");
  Result<NaradaResult> J1 =
      runPipeline(E, /*Verdicts=*/true, /*Rank=*/true, /*Jobs=*/1);
  Result<NaradaResult> J4 =
      runPipeline(E, /*Verdicts=*/true, /*Rank=*/true, /*Jobs=*/4);
  ASSERT_TRUE(J1.hasValue());
  ASSERT_TRUE(J4.hasValue());
  EXPECT_EQ(pairKeys(J1->Pairs), pairKeys(J4->Pairs));
  ASSERT_EQ(J1->Tests.size(), J4->Tests.size());
  for (size_t I = 0; I < J1->Tests.size(); ++I)
    EXPECT_EQ(J1->Tests[I].SourceText, J4->Tests[I].SourceText);
}

TEST(StaticRankTest, MayRaceSortsBeforeUnknown) {
  const CorpusEntry &E = *findCorpusEntry("C7");
  Result<NaradaResult> R =
      runPipeline(E, /*Verdicts=*/false, /*Rank=*/true);
  ASSERT_TRUE(R.hasValue());
  auto RankOf = [](const RacyPair &P) {
    if (!P.Verdict)
      return 1;
    switch (*P.Verdict) {
    case PairVerdict::MustRace:
    case PairVerdict::MayRace:
      return 0;
    case PairVerdict::Unknown:
      return 1;
    case PairVerdict::MustGuarded:
      return 2;
    }
    return 1;
  };
  int Last = 0;
  for (const RacyPair &P : R->Pairs) {
    EXPECT_GE(RankOf(P), Last) << "ranking not monotone at " << P.str();
    Last = RankOf(P);
  }
}
