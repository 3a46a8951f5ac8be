//===- tests/synth_test.cpp - Narada stage 2/3 unit tests ---------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "lang/ASTPrinter.h"
#include "runtime/Execution.h"
#include "synth/Narada.h"
#include "synth/SeedNormalizer.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

// The paper's Fig. 1 library with a seed invoking every method once.
constexpr const char *Figure1 =
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

// The Fig. 2 hazelcast motivating example, modeled: a synchronized wrapper
// whose mutex is 'this' instead of the wrapped queue, plus the factory.
constexpr const char *Hazelcast =
    "class CoalescedQueue {\n"
    "  field size: int;\n"
    "  method removeFirst() { this.size = this.size - 1; }\n"
    "  method add() { this.size = this.size + 1; }\n"
    "}\n"
    "class SafeQueue {\n"
    "  field queue: CoalescedQueue;\n"
    "  method init(q: CoalescedQueue) { this.queue = q; }\n"
    "  method removeFirst() synchronized { this.queue.removeFirst(); }\n"
    "  method add() synchronized { this.queue.add(); }\n"
    "}\n"
    "class Queues {\n"
    "  method createSafe(q: CoalescedQueue): SafeQueue {\n"
    "    return new SafeQueue(q);\n"
    "  }\n"
    "  method createCoalesced(): CoalescedQueue {\n"
    "    return new CoalescedQueue;\n"
    "  }\n"
    "}\n"
    "test seed {\n"
    "  var qs: Queues = new Queues;\n"
    "  var cq: CoalescedQueue = qs.createCoalesced();\n"
    "  cq.add();\n"
    "  cq.removeFirst();\n"
    "  var sq: SafeQueue = qs.createSafe(cq);\n"
    "  sq.add();\n"
    "  sq.removeFirst();\n"
    "}\n";

NaradaResult runOk(std::string_view Source,
                   const std::vector<std::string> &Seeds,
                   NaradaOptions Options = {}) {
  Result<NaradaResult> R = runNarada(Source, Seeds, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : NaradaResult{};
}

/// Runs a synthesized test under many random interleavings; returns true if
/// some interleaving loses an update on \p Field (i.e. the race has an
/// observable effect).
bool raceManifests(const IRModule &M, const std::string &TestName,
                   uint64_t Seeds = 64) {
  std::set<uint64_t> Hashes;
  for (uint64_t Seed = 0; Seed < Seeds; ++Seed) {
    RandomPolicy Policy(Seed);
    Result<TestRun> Run = runTest(M, TestName, Policy, /*RandSeed=*/1);
    if (!Run)
      return false;
    Hashes.insert(Run->HeapHash);
  }
  return Hashes.size() > 1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Seed normalization
//===----------------------------------------------------------------------===//

TEST(NormalizerTest, HoistsNestedCalls) {
  Result<CompiledProgram> P = compileProgram(
      "class A { method id(x: A): A { return x; } method m(y: A) { } }\n"
      "test seed { var a: A = new A; a.m(a.id(a)); }\n");
  ASSERT_TRUE(P.hasValue());
  const TestDecl *Seed = P->Ast->findTest("seed");
  Result<std::unique_ptr<TestDecl>> Norm = normalizeSeed(*Seed, *P->Info);
  ASSERT_TRUE(Norm.hasValue()) << Norm.error().str();
  std::string Printed = printTest(**Norm);
  // The nested a.id(a) is hoisted to a temp used as m's argument.
  EXPECT_NE(Printed.find("var __t0: A = a.id(a)"), std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("a.m(__t0)"), std::string::npos) << Printed;
}

TEST(NormalizerTest, HoistsNewInsideCall) {
  Result<CompiledProgram> P = compileProgram(
      "class B { }\n"
      "class A { method m(b: B) { } }\n"
      "test seed { var a: A = new A; a.m(new B); }\n");
  ASSERT_TRUE(P.hasValue());
  Result<std::unique_ptr<TestDecl>> Norm =
      normalizeSeed(*P->Ast->findTest("seed"), *P->Info);
  ASSERT_TRUE(Norm.hasValue());
  std::string Printed = printTest(**Norm);
  EXPECT_NE(Printed.find("var __t0: B = new B"), std::string::npos);
  EXPECT_NE(Printed.find("a.m(__t0)"), std::string::npos);
}

TEST(NormalizerTest, NormalizedSeedStillCompilesAndRuns) {
  const char *Source =
      "class B { field v: int; }\n"
      "class A { field b: B;\n"
      "  method set(b: B) { this.b = b; }\n"
      "  method get(): B { return this.b; }\n"
      "}\n"
      "test seed { var a: A = new A; a.set(new B); a.get().v = 1; }\n";
  Result<CompiledProgram> P = compileProgram(Source);
  ASSERT_TRUE(P.hasValue());
  Result<std::unique_ptr<TestDecl>> Norm =
      normalizeSeed(*P->Ast->findTest("seed"), *P->Info);
  ASSERT_TRUE(Norm.hasValue());

  std::string NewSource;
  for (const auto &C : P->Ast->Classes)
    NewSource += printClass(*C);
  NewSource += printTest(**Norm);
  Result<CompiledProgram> P2 = compileProgram(NewSource);
  ASSERT_TRUE(P2.hasValue()) << (P2 ? "" : P2.error().str());
  Result<TestRun> Run = runTestSequential(*P2->Module, "seed");
  ASSERT_TRUE(Run.hasValue());
  EXPECT_FALSE(Run->Result.Faulted);
}

TEST(NormalizerTest, RejectsControlFlowInSeeds) {
  Result<CompiledProgram> P = compileProgram(
      "test seed { var i: int = 0; while (i < 3) { i = i + 1; } }\n");
  ASSERT_TRUE(P.hasValue());
  Result<std::unique_ptr<TestDecl>> Norm =
      normalizeSeed(*P->Ast->findTest("seed"), *P->Info);
  EXPECT_FALSE(Norm.hasValue());
}

//===----------------------------------------------------------------------===//
// Pair generation
//===----------------------------------------------------------------------===//

TEST(PairGenTest, Figure1ProducesCountPair) {
  auto R = runOk(Figure1, {"seed"});
  // The count++ read/write in inc() through Lib.update must pair with
  // itself (same label, two threads).
  bool Found = false;
  for (const RacyPair &Pair : R.Pairs)
    if (Pair.Field == "count" && Pair.First.Method == "update" &&
        Pair.Second.Method == "update")
      Found = true;
  EXPECT_TRUE(Found);
  EXPECT_FALSE(R.Pairs.empty());
}

TEST(PairGenTest, FullySynchronizedClassHasNoPairs) {
  auto R = runOk("class Safe {\n"
                 "  field n: int;\n"
                 "  method inc() synchronized { this.n = this.n + 1; }\n"
                 "  method get(): int synchronized { return this.n; }\n"
                 "}\n"
                 "test seed { var s: Safe = new Safe; s.inc(); s.get(); }\n",
                 {"seed"});
  EXPECT_TRUE(R.Pairs.empty())
      << "receiver-locked accesses cannot race: " << R.Pairs[0].str();
}

TEST(PairGenTest, UnsynchronizedCounterPairsOnSharedReceiver) {
  auto R = runOk("class C { field n: int;\n"
                 "  method inc() { this.n = this.n + 1; } }\n"
                 "test seed { var c: C = new C; c.inc(); }\n",
                 {"seed"});
  ASSERT_FALSE(R.Pairs.empty());
  EXPECT_EQ(R.Pairs[0].First.BasePath.str(), "I0");
}

TEST(PairGenTest, ReadOnlyFieldsNeverPair) {
  auto R = runOk("class C { field n: int;\n"
                 "  method get(): int { return this.n; } }\n"
                 "test seed { var c: C = new C; c.get(); }\n",
                 {"seed"});
  EXPECT_TRUE(R.Pairs.empty());
}

TEST(PairGenTest, InternalMutexProtectsReceiverSharing) {
  // pop() locks this.mutex; sharing the receiver also shares the mutex, so
  // pop/pop cannot race.  An unsynchronized method racing with pop still
  // pairs (lock sets stay disjoint on one side).
  auto R = runOk("class Mutex { }\n"
                 "class Q {\n"
                 "  field mutex: Mutex; field size: int;\n"
                 "  method init() { this.mutex = new Mutex; }\n"
                 "  method pop() {\n"
                 "    synchronized (this.mutex) { this.size = this.size - 1; }\n"
                 "  }\n"
                 "  method hint(): int { return this.size; }\n"
                 "}\n"
                 "test seed { var q: Q = new Q(); q.pop(); q.hint(); }\n",
                 {"seed"});
  bool PopPop = false, PopHint = false;
  for (const RacyPair &Pair : R.Pairs) {
    if (Pair.First.Method == "pop" && Pair.Second.Method == "pop")
      PopPop = true;
    std::set<std::string> Methods{Pair.First.Method, Pair.Second.Method};
    if (Methods.count("pop") && Methods.count("hint"))
      PopHint = true;
  }
  EXPECT_FALSE(PopPop) << "mutex-protected pop/pop must be filtered";
  EXPECT_TRUE(PopHint) << "unprotected read can race with protected write";
}

//===----------------------------------------------------------------------===//
// Context derivation + synthesis, end to end
//===----------------------------------------------------------------------===//

TEST(SynthTest, Figure1TestIsSynthesized) {
  auto R = runOk(Figure1, {"seed"});
  ASSERT_FALSE(R.Tests.empty());
  // Some synthesized test must target Lib.update from both threads.
  const SynthesizedTestInfo *UpdateTest = nullptr;
  for (const SynthesizedTestInfo &T : R.Tests)
    if (T.Representative.First.Method == "update" &&
        T.Representative.Second.Method == "update")
      UpdateTest = &T;
  ASSERT_TRUE(UpdateTest);
  EXPECT_TRUE(UpdateTest->ContextComplete);
  EXPECT_EQ(UpdateTest->SharedClassName, "Counter");
  // The synthesized program calls set on two receivers and spawns update.
  EXPECT_NE(UpdateTest->SourceText.find("spawn"), std::string::npos);
  EXPECT_NE(UpdateTest->SourceText.find(".set("), std::string::npos);
  EXPECT_NE(UpdateTest->SourceText.find(".update()"), std::string::npos);
}

TEST(SynthTest, Figure1SynthesizedRaceManifests) {
  auto R = runOk(Figure1, {"seed"});
  const SynthesizedTestInfo *UpdateTest = nullptr;
  for (const SynthesizedTestInfo &T : R.Tests)
    if (T.Representative.First.Method == "update" &&
        T.Representative.Second.Method == "update" && T.ContextComplete)
      UpdateTest = &T;
  ASSERT_TRUE(UpdateTest);
  EXPECT_TRUE(raceManifests(*R.Program.Module, UpdateTest->Name))
      << UpdateTest->SourceText;
}

TEST(SynthTest, HazelcastFactoryPatternSynthesized) {
  auto R = runOk(Hazelcast, {"seed"}, [] {
    NaradaOptions O;
    O.FocusClass = "SafeQueue";
    return O;
  }());
  ASSERT_FALSE(R.Tests.empty());
  const SynthesizedTestInfo *Racy = nullptr;
  for (const SynthesizedTestInfo &T : R.Tests)
    if (T.ContextComplete && T.SharedClassName == "CoalescedQueue")
      Racy = &T;
  ASSERT_TRUE(Racy) << "expected a complete sharing plan via ctor/factory";
  // The two SafeQueue receivers must be wired around one CoalescedQueue.
  EXPECT_TRUE(raceManifests(*R.Program.Module, Racy->Name, 128))
      << Racy->SourceText;
}

TEST(SynthTest, Figure13SetterChainSynthesized) {
  // The paper's Fig. 13: races on A.x.o require z.baz(x); a.bar(z);
  // a2.bar(z); then two foo threads.
  const char *Source =
      "class X { field o: int; }\n"
      "class Y { }\n"
      "class Z {\n"
      "  field w: X;\n"
      "  method baz(x: X) { this.w = x; }\n"
      "}\n"
      "class A {\n"
      "  field x: X; field y: Y;\n"
      "  method init() { this.x = new X; }\n"
      "  method foo(y: Y) {\n"
      "    synchronized (this) {\n"
      "      var t: X = this.x;\n"
      "      t.o = rand();\n"
      "      this.y = y;\n"
      "    }\n"
      "  }\n"
      "  method bar(z: Z) { this.x = z.w; }\n"
      "}\n"
      "test seed {\n"
      "  var x: X = new X;\n"
      "  var z: Z = new Z;\n"
      "  z.baz(x);\n"
      "  var a: A = new A();\n"
      "  a.bar(z);\n"
      "  var y: Y = new Y;\n"
      "  a.foo(y);\n"
      "}\n";
  auto R = runOk(Source, {"seed"});
  const SynthesizedTestInfo *FooTest = nullptr;
  for (const SynthesizedTestInfo &T : R.Tests)
    if (T.Representative.First.Method == "foo" &&
        T.Representative.Second.Method == "foo" && T.ContextComplete)
      FooTest = &T;
  ASSERT_TRUE(FooTest);
  // The derived context must route through bar (and transitively baz).
  EXPECT_NE(FooTest->SourceText.find(".bar("), std::string::npos)
      << FooTest->SourceText;
  EXPECT_NE(FooTest->SourceText.find(".baz("), std::string::npos)
      << FooTest->SourceText;
  EXPECT_TRUE(raceManifests(*R.Program.Module, FooTest->Name, 128))
      << FooTest->SourceText;
}

TEST(SynthTest, TestsDeduplicateAcrossPairs) {
  auto R = runOk(Hazelcast, {"seed"});
  EXPECT_LE(R.Tests.size(), R.Pairs.size());
  size_t Covered = 0;
  for (const SynthesizedTestInfo &T : R.Tests)
    Covered += T.CoveredPairKeys.size();
  EXPECT_EQ(Covered + R.Skipped.size(), R.Pairs.size())
      << "every pair maps to exactly one test or a skip reason";
}

TEST(SynthTest, SynthesizedTestsCompileAndRunWithoutDeadlock) {
  auto R = runOk(Hazelcast, {"seed"});
  for (const SynthesizedTestInfo &T : R.Tests) {
    RandomPolicy Policy(42);
    Result<TestRun> Run = runTest(*R.Program.Module, T.Name, Policy);
    ASSERT_TRUE(Run.hasValue()) << T.SourceText;
    EXPECT_FALSE(Run->Result.Deadlocked) << T.SourceText;
    EXPECT_FALSE(Run->Result.HitStepLimit) << T.SourceText;
  }
}

TEST(SynthTest, ContextAblationProducesIncompleteTests) {
  NaradaOptions Options;
  Options.EnableContextDerivation = false;
  auto R = runOk(Figure1, {"seed"}, Options);
  for (const SynthesizedTestInfo &T : R.Tests)
    EXPECT_FALSE(T.ContextComplete);
  // Without sharing, the update/update test cannot manifest the race: the
  // two threads mutate distinct counters.
  for (const SynthesizedTestInfo &T : R.Tests)
    if (T.Representative.First.Method == "update" &&
        T.Representative.Second.Method == "update")
      EXPECT_FALSE(raceManifests(*R.Program.Module, T.Name))
          << T.SourceText;
}

TEST(SynthTest, FocusClassRestrictsPairs) {
  auto R = runOk(Hazelcast, {"seed"}, [] {
    NaradaOptions O;
    O.FocusClass = "CoalescedQueue";
    return O;
  }());
  for (const RacyPair &Pair : R.Pairs) {
    EXPECT_EQ(Pair.First.ClassName, "CoalescedQueue");
    EXPECT_EQ(Pair.Second.ClassName, "CoalescedQueue");
  }
}

TEST(SynthTest, SynthesizedSourceIsPrintableClientProgram) {
  auto R = runOk(Figure1, {"seed"});
  ASSERT_FALSE(R.Tests.empty());
  for (const SynthesizedTestInfo &T : R.Tests) {
    EXPECT_NE(T.SourceText.find("test " + T.Name), std::string::npos);
    EXPECT_NE(T.SourceText.find("spawn"), std::string::npos);
  }
}
