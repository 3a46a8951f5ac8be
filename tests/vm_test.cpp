//===- tests/vm_test.cpp - VM and scheduler unit tests -----------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "RunRecorded.h"
#include "runtime/Execution.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

CompiledProgram compileOk(std::string_view Source) {
  Result<CompiledProgram> R = compileProgram(Source);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : CompiledProgram{};
}

TestRun runOk(const IRModule &M, const std::string &Name,
              uint64_t Seed = 1) {
  Result<TestRun> R = runTestSequential(M, Name, Seed);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : TestRun{};
}

/// Returns the last written value of @Obj.Field in the trace, if any.
const TraceEvent *lastWrite(const Trace &T, const std::string &Field) {
  const TraceEvent *Out = nullptr;
  for (const TraceEvent &E : T)
    if (E.Kind == EventKind::WriteField && *E.Member == Field)
      Out = &E;
  return Out;
}

} // namespace

TEST(VMTest, ArithmeticViaFieldWrites) {
  auto P = compileOk("class Box { field v: int;\n"
                     "  method compute() {\n"
                     "    this.v = (2 + 3) * 4 - 10 / 2;\n" // 15
                     "  }\n"
                     "}\n"
                     "test t { var b: Box = new Box; b.compute(); }\n");
  auto Run = runOk(*P.Module, "t");
  const TraceEvent *W = lastWrite(Run.TheTrace, "v");
  ASSERT_TRUE(W);
  EXPECT_EQ(W->Val.asInt(), 15);
  EXPECT_FALSE(Run.Result.Faulted);
}

TEST(VMTest, RemainderAndComparisons) {
  auto P = compileOk("class Box { field v: int; field b: bool;\n"
                     "  method compute() {\n"
                     "    this.v = 17 % 5;\n"
                     "    this.b = 3 < 4 && 4 <= 4 && 5 > 4 && 4 >= 4\n"
                     "        && 1 == 1 && 1 != 2;\n"
                     "  }\n"
                     "}\n"
                     "test t { var b: Box = new Box; b.compute(); }\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_EQ(lastWrite(Run.TheTrace, "v")->Val.asInt(), 2);
  EXPECT_TRUE(lastWrite(Run.TheTrace, "b")->Val.asBool());
}

TEST(VMTest, WhileLoopComputesSum) {
  auto P = compileOk("class Acc { field sum: int;\n"
                     "  method addUpTo(n: int) {\n"
                     "    var i: int = 1;\n"
                     "    while (i <= n) { this.sum = this.sum + i; i = i + 1; }\n"
                     "  }\n"
                     "}\n"
                     "test t { var a: Acc = new Acc; a.addUpTo(10); }\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_EQ(lastWrite(Run.TheTrace, "sum")->Val.asInt(), 55);
}

TEST(VMTest, IfElseBranches) {
  auto P = compileOk("class C { field r: int;\n"
                     "  method pick(x: int) {\n"
                     "    if (x < 0) { this.r = 0 - 1; }\n"
                     "    else if (x == 0) { this.r = 0; }\n"
                     "    else { this.r = 1; }\n"
                     "  }\n"
                     "}\n"
                     "test t {\n"
                     "  var c: C = new C;\n"
                     "  c.pick(0 - 5); c.pick(0); c.pick(5);\n"
                     "}\n");
  auto Run = runOk(*P.Module, "t");
  std::vector<int64_t> Writes;
  for (const TraceEvent &E : Run.TheTrace)
    if (E.Kind == EventKind::WriteField && *E.Member == "r")
      Writes.push_back(E.Val.asInt());
  ASSERT_EQ(Writes.size(), 3u);
  EXPECT_EQ(Writes[0], -1);
  EXPECT_EQ(Writes[1], 0);
  EXPECT_EQ(Writes[2], 1);
}

TEST(VMTest, MethodCallsReturnValues) {
  auto P = compileOk("class Math {\n"
                     "  method square(x: int): int { return x * x; }\n"
                     "}\n"
                     "class Box { field v: int;\n"
                     "  method fill(m: Math) { this.v = m.square(7); }\n"
                     "}\n"
                     "test t {\n"
                     "  var m: Math = new Math;\n"
                     "  var b: Box = new Box;\n"
                     "  b.fill(m);\n"
                     "}\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_EQ(lastWrite(Run.TheTrace, "v")->Val.asInt(), 49);
}

TEST(VMTest, ConstructorRunsOnNew) {
  auto P = compileOk("class Node { field v: int;\n"
                     "  method init(v: int) { this.v = v; } }\n"
                     "test t { var n: Node = new Node(99); }\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_EQ(lastWrite(Run.TheTrace, "v")->Val.asInt(), 99);
}

TEST(VMTest, ObjectReferencesAreShared) {
  auto P = compileOk("class Counter { field n: int;\n"
                     "  method inc() { this.n = this.n + 1; } }\n"
                     "class Holder { field c: Counter;\n"
                     "  method set(c: Counter) { this.c = c; }\n"
                     "  method bump() { this.c.inc(); } }\n"
                     "test t {\n"
                     "  var c: Counter = new Counter;\n"
                     "  var h1: Holder = new Holder;\n"
                     "  var h2: Holder = new Holder;\n"
                     "  h1.set(c); h2.set(c);\n"
                     "  h1.bump(); h2.bump(); h1.bump();\n"
                     "}\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_EQ(lastWrite(Run.TheTrace, "n")->Val.asInt(), 3);
}

TEST(VMTest, IntArrayOperations) {
  auto P = compileOk("class Buf { field total: int;\n"
                     "  method sum(a: IntArray) {\n"
                     "    var i: int = 0;\n"
                     "    var acc: int = 0;\n"
                     "    while (i < a.length()) { acc = acc + a.get(i); i = i + 1; }\n"
                     "    this.total = acc;\n"
                     "  }\n"
                     "}\n"
                     "test t {\n"
                     "  var a: IntArray = new IntArray(4);\n"
                     "  a.set(0, 10); a.set(1, 20); a.set(2, 30); a.set(3, 40);\n"
                     "  var b: Buf = new Buf;\n"
                     "  b.sum(a);\n"
                     "}\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_EQ(lastWrite(Run.TheTrace, "total")->Val.asInt(), 100);
  // Element accesses appear in the trace.
  size_t ElemWrites = 0, ElemReads = 0;
  for (const TraceEvent &E : Run.TheTrace) {
    if (E.Kind == EventKind::WriteElem)
      ++ElemWrites;
    if (E.Kind == EventKind::ReadElem)
      ++ElemReads;
  }
  EXPECT_EQ(ElemWrites, 4u);
  EXPECT_EQ(ElemReads, 4u);
}

TEST(VMTest, NullDereferenceFaults) {
  auto P = compileOk("class A { field next: A; field v: int;\n"
                     "  method poke() { this.next.v = 1; } }\n"
                     "test t { var a: A = new A; a.poke(); }\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_TRUE(Run.Result.Faulted);
  ASSERT_EQ(Run.Result.FaultMessages.size(), 1u);
  EXPECT_NE(Run.Result.FaultMessages[0].find("null dereference"),
            std::string::npos);
}

TEST(VMTest, DivisionByZeroFaults) {
  auto P = compileOk("class A { field v: int;\n"
                     "  method div(n: int) { this.v = 10 / n; } }\n"
                     "test t { var a: A = new A; a.div(0); }\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_TRUE(Run.Result.Faulted);
  EXPECT_NE(Run.Result.FaultMessages[0].find("division by zero"),
            std::string::npos);
}

TEST(VMTest, ArrayOutOfBoundsFaults) {
  auto P = compileOk("test t {\n"
                     "  var a: IntArray = new IntArray(2);\n"
                     "  a.set(5, 1);\n"
                     "}\n"
                     "test readBelow {\n"
                     "  var a: IntArray = new IntArray(2);\n"
                     "  var x: int = a.get(0 - 1);\n"
                     "}\n"
                     "test writeAtLength {\n"
                     "  var a: IntArray = new IntArray(3);\n"
                     "  a.set(a.length(), 7);\n"
                     "}\n"
                     "test negativeSize {\n"
                     "  var a: IntArray = new IntArray(0 - 4);\n"
                     "}\n");
  const std::pair<const char *, const char *> Want[] = {
      {"t", "array index 5 out of bounds (size 2) at test$t:6"},
      {"readBelow", "array index -1 out of bounds (size 2) at test$readBelow:7"},
      {"writeAtLength", "array index 3 out of bounds (size 3) at test$writeAtLength:6"},
      {"negativeSize", "negative array size -4 at test$negativeSize:4"},
  };
  for (const auto &[Test, Message] : Want) {
    auto Run = runOk(*P.Module, Test);
    EXPECT_TRUE(Run.Result.Faulted) << Test;
    ASSERT_EQ(Run.Result.FaultMessages.size(), 1u) << Test;
    EXPECT_EQ(Run.Result.FaultMessages[0], Message) << Test;
  }
}

TEST(VMTest, MonitorEventsEmitted) {
  auto P = compileOk("class L { field v: int;\n"
                     "  method m() synchronized { this.v = 1; } }\n"
                     "test t { var l: L = new L; l.m(); }\n");
  auto Run = runOk(*P.Module, "t");
  auto Locks = Run.TheTrace.eventsOfKind(EventKind::Lock);
  auto Unlocks = Run.TheTrace.eventsOfKind(EventKind::Unlock);
  ASSERT_EQ(Locks.size(), 1u);
  ASSERT_EQ(Unlocks.size(), 1u);
  EXPECT_EQ(Locks[0]->Obj, Unlocks[0]->Obj);
  // The write happens between lock and unlock.
  const TraceEvent *W = lastWrite(Run.TheTrace, "v");
  EXPECT_GT(W->Label, Locks[0]->Label);
  EXPECT_LT(W->Label, Unlocks[0]->Label);
}

TEST(VMTest, ReentrantMonitorEmitsOneLockPair) {
  auto P = compileOk("class L { field v: int;\n"
                     "  method outer() synchronized { this.inner(); }\n"
                     "  method inner() synchronized { this.v = 1; } }\n"
                     "test t { var l: L = new L; l.outer(); }\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_EQ(Run.TheTrace.eventsOfKind(EventKind::Lock).size(), 1u);
  EXPECT_EQ(Run.TheTrace.eventsOfKind(EventKind::Unlock).size(), 1u);
  EXPECT_FALSE(Run.Result.Faulted);
}

TEST(VMTest, ClientCallEventsAtLibraryBoundary) {
  auto P = compileOk("class Inner { field v: int;\n"
                     "  method poke() { this.v = 1; } }\n"
                     "class Outer { field i: Inner;\n"
                     "  method set(i: Inner) { this.i = i; }\n"
                     "  method go() { this.i.poke(); } }\n"
                     "test t {\n"
                     "  var i: Inner = new Inner;\n"
                     "  var o: Outer = new Outer;\n"
                     "  o.set(i);\n"
                     "  o.go();\n"
                     "}\n");
  auto Run = runOk(*P.Module, "t");
  auto Calls = Run.TheTrace.eventsOfKind(EventKind::ClientCall);
  // Only client->library transitions: set and go (library->library poke is
  // not a client call).
  ASSERT_EQ(Calls.size(), 2u);
  EXPECT_EQ(*Calls[0]->Member, "set");
  EXPECT_EQ(*Calls[1]->Member, "go");
  EXPECT_EQ(Run.TheTrace.eventsOfKind(EventKind::ClientCallEnd).size(), 2u);
}

TEST(VMTest, ClientCallCarriesReceiverAndArgs) {
  auto P = compileOk("class A { field x: int;\n"
                     "  method m(v: int) { this.x = v; } }\n"
                     "test t { var a: A = new A; a.m(42); }\n");
  auto Run = runOk(*P.Module, "t");
  auto Calls = Run.TheTrace.eventsOfKind(EventKind::ClientCall);
  ASSERT_EQ(Calls.size(), 1u);
  EXPECT_NE(Calls[0]->Receiver, NoObject);
  ASSERT_EQ(Calls[0]->args().size(), 2u); // receiver + v
  EXPECT_EQ(Calls[0]->args()[1].asInt(), 42);
}

TEST(VMTest, SpawnedThreadsRunToCompletion) {
  auto P = compileOk("class C { field n: int;\n"
                     "  method inc() synchronized { this.n = this.n + 1; } }\n"
                     "test t {\n"
                     "  var c: C = new C;\n"
                     "  spawn { c.inc(); }\n"
                     "  spawn { c.inc(); }\n"
                     "}\n");
  auto Run = runOk(*P.Module, "t");
  EXPECT_FALSE(Run.Result.Faulted);
  EXPECT_FALSE(Run.Result.Deadlocked);
  EXPECT_EQ(Run.TheTrace.eventsOfKind(EventKind::ThreadStart).size(), 3u);
  EXPECT_EQ(Run.TheTrace.eventsOfKind(EventKind::ThreadEnd).size(), 3u);
  // With both increments synchronized the final count is exactly 2.
  EXPECT_EQ(lastWrite(Run.TheTrace, "n")->Val.asInt(), 2);
}

TEST(VMTest, RandomInterleavingsCanLoseUnsynchronizedUpdates) {
  // The Fig. 1 count++ race: with an adversarial interleaving one update is
  // lost.  Search interleavings by seed until we observe the lost update.
  auto P = compileOk("class Counter { field count: int;\n"
                     "  method inc() { this.count = this.count + 1; } }\n"
                     "test t {\n"
                     "  var c: Counter = new Counter;\n"
                     "  spawn { c.inc(); }\n"
                     "  spawn { c.inc(); }\n"
                     "}\n");
  bool SawLostUpdate = false;
  bool SawBothUpdates = false;
  for (uint64_t Seed = 0; Seed < 64 && !(SawLostUpdate && SawBothUpdates);
       ++Seed) {
    RandomPolicy Policy(Seed);
    Result<TestRun> R = runRecorded(*P.Module, "t", Policy);
    ASSERT_TRUE(R.hasValue());
    int64_t Final = lastWrite(R->TheTrace, "count")->Val.asInt();
    if (Final == 1)
      SawLostUpdate = true;
    if (Final == 2)
      SawBothUpdates = true;
  }
  EXPECT_TRUE(SawLostUpdate) << "no interleaving lost an update";
  EXPECT_TRUE(SawBothUpdates) << "no interleaving kept both updates";
}

TEST(VMTest, SynchronizedBlocksExcludeEachOther) {
  // Unlike the previous test, a common lock object forces atomicity: the
  // final value is 2 under every interleaving.
  auto P = compileOk("class Counter { field count: int;\n"
                     "  method inc() synchronized {\n"
                     "    this.count = this.count + 1;\n"
                     "  } }\n"
                     "test t {\n"
                     "  var c: Counter = new Counter;\n"
                     "  spawn { c.inc(); }\n"
                     "  spawn { c.inc(); }\n"
                     "}\n");
  for (uint64_t Seed = 0; Seed < 32; ++Seed) {
    RandomPolicy Policy(Seed);
    Result<TestRun> R = runRecorded(*P.Module, "t", Policy);
    ASSERT_TRUE(R.hasValue());
    EXPECT_EQ(lastWrite(R->TheTrace, "count")->Val.asInt(), 2)
        << "seed " << Seed;
  }
}

TEST(VMTest, DeadlockIsDetected) {
  auto P = compileOk("class L { field other: L;\n"
                     "  method setOther(o: L) { this.other = o; }\n"
                     "  method hop() synchronized {\n"
                     "    this.other.poke();\n"
                     "  }\n"
                     "  method poke() synchronized { }\n"
                     "}\n"
                     "test t {\n"
                     "  var a: L = new L;\n"
                     "  var b: L = new L;\n"
                     "  a.setOther(b); b.setOther(a);\n"
                     "  spawn { a.hop(); }\n"
                     "  spawn { b.hop(); }\n"
                     "}\n");
  bool SawDeadlock = false;
  for (uint64_t Seed = 0; Seed < 128 && !SawDeadlock; ++Seed) {
    RandomPolicy Policy(Seed);
    Result<TestRun> R = runTest(*P.Module, "t", Policy);
    ASSERT_TRUE(R.hasValue());
    if (R->Result.Deadlocked)
      SawDeadlock = true;
  }
  EXPECT_TRUE(SawDeadlock) << "classic lock-order inversion never deadlocked";
}

TEST(VMTest, FaultingThreadReleasesItsMonitors) {
  auto P = compileOk("class L { field a: IntArray;\n"
                     "  method boom() synchronized { this.a.set(9, 1); }\n"
                     "  method fine() synchronized { }\n"
                     "}\n"
                     "test t {\n"
                     "  var l: L = new L;\n"
                     "  spawn { l.boom(); }\n"
                     "  spawn { l.fine(); }\n"
                     "}\n");
  // boom() faults (null array) while holding l's monitor; fine() must still
  // be able to acquire it afterwards: no deadlock.
  RoundRobinPolicy Policy;
  Result<TestRun> R = runTest(*P.Module, "t", Policy);
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->Result.Faulted);
  EXPECT_FALSE(R->Result.Deadlocked);
  EXPECT_FALSE(R->Result.HitStepLimit);
}

TEST(VMTest, StepLimitStopsInfiniteLoops) {
  auto P = compileOk("class A { field n: int;\n"
                     "  method spin() { while (true) { this.n = this.n + 1; } }\n"
                     "}\n"
                     "test t { var a: A = new A; a.spin(); }\n");
  RoundRobinPolicy Policy;
  Result<TestRun> R = runTest(*P.Module, "t", Policy, 1, nullptr,
                              /*MaxSteps=*/10'000);
  ASSERT_TRUE(R.hasValue());
  EXPECT_TRUE(R->Result.HitStepLimit);
}

TEST(VMTest, HeapHashDiffersForDifferentFinalStates) {
  auto P = compileOk("class A { field n: int;\n"
                     "  method set(v: int) { this.n = v; } }\n"
                     "test t1 { var a: A = new A; a.set(1); }\n"
                     "test t2 { var a: A = new A; a.set(2); }\n"
                     "test t3 { var a: A = new A; a.set(1); }\n");
  auto R1 = runOk(*P.Module, "t1");
  auto R2 = runOk(*P.Module, "t2");
  auto R3 = runOk(*P.Module, "t3");
  EXPECT_NE(R1.HeapHash, R2.HeapHash);
  EXPECT_EQ(R1.HeapHash, R3.HeapHash);
}

TEST(VMTest, RandIsDeterministicPerSeed) {
  auto P = compileOk("class A { field x: int;\n"
                     "  method roll() { this.x = rand(); } }\n"
                     "test t { var a: A = new A; a.roll(); }\n");
  auto R1 = runOk(*P.Module, "t", 7);
  auto R2 = runOk(*P.Module, "t", 7);
  auto R3 = runOk(*P.Module, "t", 8);
  EXPECT_EQ(lastWrite(R1.TheTrace, "x")->Val.asInt(),
            lastWrite(R2.TheTrace, "x")->Val.asInt());
  EXPECT_NE(lastWrite(R1.TheTrace, "x")->Val.asInt(),
            lastWrite(R3.TheTrace, "x")->Val.asInt());
}

TEST(VMTest, TraceLabelsAreStrictlyIncreasing) {
  auto P = compileOk("class C { field n: int;\n"
                     "  method inc() synchronized { this.n = this.n + 1; } }\n"
                     "test t {\n"
                     "  var c: C = new C;\n"
                     "  spawn { c.inc(); }\n"
                     "  spawn { c.inc(); }\n"
                     "}\n");
  RandomPolicy Policy(3);
  Result<TestRun> R = runRecorded(*P.Module, "t", Policy);
  ASSERT_TRUE(R.hasValue());
  ASSERT_FALSE(R->TheTrace.empty());
  uint64_t Prev = 0;
  for (const TraceEvent &E : R->TheTrace) {
    EXPECT_GT(E.Label, Prev);
    Prev = E.Label;
  }
}

TEST(VMTest, RunUnknownTestIsAnError) {
  auto P = compileOk("test t { }");
  Result<TestRun> R = runTestSequential(*P.Module, "missing");
  EXPECT_FALSE(R.hasValue());
}

TEST(SchedulerTest, PCTFindsTheCounterRace) {
  auto P = compileOk("class Counter { field count: int;\n"
                     "  method inc() { this.count = this.count + 1; } }\n"
                     "test t {\n"
                     "  var c: Counter = new Counter;\n"
                     "  spawn { c.inc(); }\n"
                     "  spawn { c.inc(); }\n"
                     "}\n");
  // With one change point over a ~40-step run the race window is hit in
  // roughly 8% of seeds (PCT's 1/(n*k^(d-1)) bound); 128 seeds make the
  // test overwhelmingly stable.
  bool SawLostUpdate = false;
  for (uint64_t Seed = 0; Seed < 128 && !SawLostUpdate; ++Seed) {
    PCTPolicy Policy(Seed, /*Depth=*/2, /*MaxSteps=*/40);
    Result<TestRun> R = runRecorded(*P.Module, "t", Policy);
    ASSERT_TRUE(R.hasValue());
    if (lastWrite(R->TheTrace, "count")->Val.asInt() == 1)
      SawLostUpdate = true;
  }
  EXPECT_TRUE(SawLostUpdate) << "PCT with depth 2 should expose the race";
}

TEST(SchedulerTest, PCTRunsToCompletion) {
  auto P = compileOk("class C { field n: int;\n"
                     "  method inc() synchronized { this.n = this.n + 1; } }\n"
                     "test t {\n"
                     "  var c: C = new C;\n"
                     "  spawn { c.inc(); c.inc(); }\n"
                     "  spawn { c.inc(); }\n"
                     "}\n");
  for (uint64_t Seed = 0; Seed < 16; ++Seed) {
    PCTPolicy Policy(Seed, 3, 500);
    Result<TestRun> R = runRecorded(*P.Module, "t", Policy);
    ASSERT_TRUE(R.hasValue());
    EXPECT_FALSE(R->Result.Deadlocked);
    EXPECT_FALSE(R->Result.HitStepLimit);
    EXPECT_EQ(lastWrite(R->TheTrace, "n")->Val.asInt(), 3);
  }
}

TEST(SchedulerTest, PCTIsDeterministicPerSeed) {
  auto P = compileOk("class C { field n: int;\n"
                     "  method inc() { this.n = this.n + 1; } }\n"
                     "test t {\n"
                     "  var c: C = new C;\n"
                     "  spawn { c.inc(); }\n"
                     "  spawn { c.inc(); }\n"
                     "}\n");
  for (uint64_t Seed : {3u, 9u}) {
    PCTPolicy P1(Seed, 2, 100), P2(Seed, 2, 100);
    Result<TestRun> A = runRecorded(*P.Module, "t", P1);
    Result<TestRun> B = runRecorded(*P.Module, "t", P2);
    ASSERT_TRUE(A.hasValue());
    ASSERT_TRUE(B.hasValue());
    EXPECT_EQ(A->HeapHash, B->HeapHash);
    ASSERT_FALSE(A->TheTrace.empty());
    EXPECT_EQ(printTrace(A->TheTrace), printTrace(B->TheTrace));
  }
}

TEST(VMTest, RunawayRecursionFaultsInsteadOfExhaustingMemory) {
  auto P = compileOk("class A {\n"
                     "  method spin(): int { return this.spin(); }\n"
                     "}\n"
                     "test t { var a: A = new A; var x: int = a.spin(); }\n");
  RoundRobinPolicy Policy;
  Result<TestRun> R = runTest(*P.Module, "t", Policy, 1, nullptr, 5'000'000);
  ASSERT_TRUE(R.hasValue());
  ASSERT_TRUE(R->Result.Faulted);
  EXPECT_NE(R->Result.FaultMessages[0].find("stack overflow"),
            std::string::npos);
}

TEST(VMTest, DeepButBoundedRecursionSucceeds) {
  auto P = compileOk("class A { field r: int;\n"
                     "  method depth(n: int): int {\n"
                     "    if (n == 0) { return 0; }\n"
                     "    return 1 + this.depth(n - 1);\n"
                     "  }\n"
                     "  method go() { this.r = this.depth(500); }\n"
                     "}\n"
                     "test t { var a: A = new A; a.go(); }\n");
  RoundRobinPolicy Policy;
  Result<TestRun> R = runTest(*P.Module, "t", Policy, 1, nullptr, 5'000'000);
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(R->Result.Faulted)
      << (R->Result.FaultMessages.empty() ? "" : R->Result.FaultMessages[0]);
}
