//===- tests/step_loop_test.cpp - Step-loop invariants ------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The VM keeps its runnable list between steps and rescans it only after
// a step that can change it.  A checking policy compares that list with a
// full rescan at every pick, over the synthesized corpus tests under every
// policy and over the monitor programs that block, deadlock and fault
// while holding a monitor.  The schedule pins record what whole runs did
// (steps, context switches, final heap, every pick), so a change to the
// step loop that moves one pick fails here, not only in the benchmark.
// The event-stream pins add every event each run emits and the
// instructions it executed per opcode, over every synthesized test.
//
//===----------------------------------------------------------------------===//

#include "EventDigest.h"
#include "corpus/Corpus.h"
#include "detect/RaceConfirmer.h"
#include "obs/Metrics.h"
#include "runtime/Execution.h"
#include "support/Digest.h"
#include "support/StringUtils.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

using namespace narada;

namespace {

/// The rule the VM's runnable list follows, as a full scan: Runnable
/// threads, and Blocked ones whose awaited monitor is free or their own,
/// in id order.
std::vector<ThreadId> rescanRunnable(const VM &M) {
  std::vector<ThreadId> Out;
  for (ThreadId T = 0; T != M.numThreads(); ++T) {
    const ThreadState &S = M.thread(T);
    if (S.Status == ThreadStatus::Runnable) {
      Out.push_back(T);
    } else if (S.Status == ThreadStatus::Blocked) {
      ThreadId Owner = M.heap().object(S.WaitingOn).MonitorOwner;
      if (Owner == NoThread || Owner == T)
        Out.push_back(T);
    }
  }
  return Out;
}

/// Delegates every pick to \p Inner and checks the list it was given
/// against rescanRunnable().  Also hashes the pick sequence and counts
/// context switches the way the step loop does.
class CheckingPolicy final : public SchedulingPolicy {
public:
  explicit CheckingPolicy(SchedulingPolicy &Inner) : Inner(Inner) {}

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override {
    ++Picks;
    if (Runnable != rescanRunnable(M) || M.allDone())
      ++Mismatches;
    ThreadId Chosen = Inner.pick(Runnable, M);
    if (Prev != NoThread && Chosen != Prev)
      ++Switches;
    Prev = Chosen;
    for (int Shift = 0; Shift < 32; Shift += 8) {
      PickHash ^= (Chosen >> Shift) & 0xff;
      PickHash *= 0x100000001b3ULL;
    }
    return Chosen;
  }

  SchedulingPolicy &Inner;
  uint64_t Picks = 0;
  uint64_t Mismatches = 0;
  uint64_t Switches = 0;
  uint64_t PickHash = 0xcbf29ce484222325ULL;

private:
  ThreadId Prev = NoThread;
};

/// Counts threads started and ended (finished or faulted).
class ThreadEnds final : public ExecutionObserver {
public:
  void onEvent(const TraceEvent &Event) override {
    Started += Event.Kind == EventKind::ThreadStart;
    Ended += Event.Kind == EventKind::ThreadEnd || Event.Kind == EventKind::Fault;
  }
  unsigned Started = 0;
  unsigned Ended = 0;
};

uint64_t contextSwitchCounter() {
  return obs::MetricsRegistry::global().counter("runtime.context_switches")
      .value();
}

/// Runs \p Test under \p Inner with the checks attached and renders the
/// run as one pin line.  Checks that the loop's context-switch counter
/// agrees with the one counted from the picks.
std::string pinLine(const IRModule &M, const std::string &Test,
                    SchedulingPolicy &Inner, uint64_t MaxSteps) {
  CheckingPolicy Policy(Inner);
  uint64_t SwitchesBefore = contextSwitchCounter();
  Result<TestRun> Run = runTest(M, Test, Policy, /*RandSeed=*/1,
                                /*Extra=*/nullptr, MaxSteps);
  EXPECT_TRUE(Run.hasValue());
  if (!Run)
    return "";
  EXPECT_EQ(Policy.Mismatches, 0u) << Test;
  EXPECT_EQ(contextSwitchCounter() - SwitchesBefore, Policy.Switches);
  return formatString("steps=%llu switches=%llu heap=%016llx picks=%016llx",
                      static_cast<unsigned long long>(Run->Result.Steps),
                      static_cast<unsigned long long>(Policy.Switches),
                      static_cast<unsigned long long>(Run->HeapHash),
                      static_cast<unsigned long long>(Policy.PickHash));
}

NaradaResult synthesize(const CorpusEntry &Entry) {
  NaradaOptions Options;
  Options.FocusClass = Entry.ClassName;
  Result<NaradaResult> R = runNarada(Entry.Source, Entry.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : NaradaResult{};
}

/// Small budgets: long enough for every non-hanging corpus run, short
/// enough that the hanging ones cost little.
constexpr uint64_t CheckBudget = 20'000;

class RunnableSetTest : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(RunnableSetTest, CachedListMatchesRescanUnderEveryPolicy) {
  NaradaResult R = synthesize(*findCorpusEntry(GetParam()));
  ASSERT_FALSE(R.Tests.empty());
  const IRModule &M = *R.Program.Module;
  uint64_t Picks = 0;
  for (const SynthesizedTestInfo &Info : R.Tests) {
    for (const char *Name : {"roundrobin", "random", "preempt", "pct"}) {
      std::unique_ptr<SchedulingPolicy> Inner = makePolicy(Name, 7);
      CheckingPolicy Policy(*Inner);
      ASSERT_TRUE(runTest(M, Info.Name, Policy, 1, nullptr, CheckBudget));
      EXPECT_EQ(Policy.Mismatches, 0u) << Info.Name << " under " << Name;
      Picks += Policy.Picks;
    }
    // The confirmer pauses and releases threads around the candidate
    // accesses: one run per candidate pair, in both orders.
    for (const auto &[A, B] : Info.CandidateLabels) {
      for (bool SecondFirst : {false, true}) {
        RaceConfirmPolicy Inner(A, B, /*Seed=*/1001, SecondFirst);
        CheckingPolicy Policy(Inner);
        ASSERT_TRUE(runTest(M, Info.Name, Policy, 1, nullptr, CheckBudget));
        EXPECT_EQ(Policy.Mismatches, 0u)
            << Info.Name << " confirming " << A << "~" << B;
        Picks += Policy.Picks;
      }
    }
  }
  EXPECT_GT(Picks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Classes, RunnableSetTest,
                         ::testing::Values("C1", "C2", "C3", "C4", "C5", "C6",
                                           "C7", "C8", "C9"),
                         [](const auto &Info) { return Info.param; });

// No corpus run deadlocks, so the blocking, deadlock and
// fault-while-holding paths are covered by these programs (the ones
// vm_test.cpp checks for their outcomes).
TEST(RunnableSetMonitorTest, BlockingDeadlockAndFaultPrograms) {
  Result<CompiledProgram> P = compileProgram(
      "class Counter { field count: int;\n"
      "  method inc() synchronized { this.count = this.count + 1; } }\n"
      "class L { field other: L; field a: IntArray;\n"
      "  method setOther(o: L) { this.other = o; }\n"
      "  method hop() synchronized { this.other.poke(); }\n"
      "  method poke() synchronized { }\n"
      "  method boom() synchronized { this.a.set(9, 1); }\n"
      "  method fine() synchronized { }\n"
      "}\n"
      "test exclude {\n"
      "  var c: Counter = new Counter;\n"
      "  spawn { c.inc(); c.inc(); }\n"
      "  spawn { c.inc(); }\n"
      "  spawn { c.inc(); }\n"
      "}\n"
      "test deadlock {\n"
      "  var a: L = new L;\n"
      "  var b: L = new L;\n"
      "  a.setOther(b); b.setOther(a);\n"
      "  spawn { a.hop(); }\n"
      "  spawn { b.hop(); }\n"
      "}\n"
      "test faultHolding {\n"
      "  var l: L = new L;\n"
      "  spawn { l.boom(); }\n"
      "  spawn { l.fine(); }\n"
      "  spawn { l.fine(); }\n"
      "}\n");
  ASSERT_TRUE(P.hasValue()) << P.error().str();
  obs::Counter &Blocks =
      obs::MetricsRegistry::global().counter("runtime.monitor_blocks");
  bool SawBlock = false, SawDeadlock = false, SawFaultWhileBlocked = false;
  for (const char *Test : {"exclude", "deadlock", "faultHolding"}) {
    for (const char *Name : {"roundrobin", "random", "preempt", "pct"}) {
      for (uint64_t Seed = 0; Seed < 64; ++Seed) {
        std::unique_ptr<SchedulingPolicy> Inner = makePolicy(Name, Seed);
        CheckingPolicy Policy(*Inner);
        ThreadEnds Ends;
        uint64_t BlocksBefore = Blocks.value();
        Result<TestRun> Run = runTest(*P->Module, Test, Policy, 1, &Ends);
        ASSERT_TRUE(Run.hasValue());
        EXPECT_EQ(Policy.Mismatches, 0u)
            << Test << " under " << Name << " seed " << Seed;
        // The loop stops on an empty list: that must be a real deadlock,
        // and any other stop must leave no thread live.
        EXPECT_EQ(Run->Result.Deadlocked, Ends.Ended < Ends.Started)
            << Test << " under " << Name << " seed " << Seed;
        bool Blocked = Blocks.value() != BlocksBefore;
        SawBlock |= Blocked;
        SawDeadlock |= Run->Result.Deadlocked;
        SawFaultWhileBlocked |= Run->Result.Faulted && Blocked;
      }
    }
  }
  EXPECT_TRUE(SawBlock);
  EXPECT_TRUE(SawDeadlock);
  EXPECT_TRUE(SawFaultWhileBlocked);
}

// Recorded with the step loop that rescanned every thread at every pick.
// narada_011 finishes at seeds 1-4 and runs into the budget at seed 7 (its
// detection run 6); the confirmation of narada_088 runs into it too.
TEST(SchedulePinTest, RandomRunsOfAHangingC1Test) {
  NaradaResult R = synthesize(*findCorpusEntry("C1"));
  const std::pair<uint64_t, const char *> Want[] = {
      {1, "steps=1158 switches=15 heap=e3a959fc4c2ad913 "
          "picks=444604017df0d924"},
      {2, "steps=1158 switches=20 heap=e3a959fc4c2ad913 "
          "picks=b2282ab250ee16e4"},
      {3, "steps=1158 switches=13 heap=e3a959fc4c2ad913 "
          "picks=78af0a6789ec9a54"},
      {4, "steps=1203 switches=11 heap=e46017fbd18a488c "
          "picks=3231c1dc3f107ad6"},
      {7, "steps=400000 switches=18 heap=69ae679cfc9e9200 "
          "picks=6d23574a786c3844"},
  };
  for (const auto &[Seed, Line] : Want) {
    RandomPolicy Random(Seed);
    EXPECT_EQ(pinLine(*R.Program.Module, "narada_011", Random, 400'000), Line)
        << "seed " << Seed;
  }
}

TEST(SchedulePinTest, ConfirmationRunOfAHangingC1Test) {
  NaradaResult R = synthesize(*findCorpusEntry("C1"));
  RaceConfirmPolicy Confirm("CoalescedWriteBehindQueue.addLast:1",
                            "CoalescedWriteBehindQueue.addLast:10",
                            /*Seed=*/1001);
  EXPECT_EQ(pinLine(*R.Program.Module, "narada_088", Confirm, 400'000),
            "steps=400000 switches=75 heap=f5c01ce443e962ad "
            "picks=4ee8022a9d159dc7");
}

namespace {

/// What a set of runs did, summed over the runs, with one digest over
/// each run's steps, switches, final heap and event stream in run order.
struct StreamPin {
  uint64_t Runs = 0, Steps = 0, Switches = 0, Events = 0;
  uint64_t Digest = digest::Fnv1aBasis;
  uint64_t InstrByOp[NumOpcodes] = {};

  /// Runs \p Test under \p Inner the way runTest does: VM seed 1, the
  /// detection step budget.
  void add(const IRModule &M, const std::string &Test,
           SchedulingPolicy &Inner) {
    const IRFunction *Entry = M.findTest(Test);
    ASSERT_NE(Entry, nullptr) << Test;
    VM Machine(M, /*RandSeed=*/1);
    EventDigest Stream;
    Machine.setObserver(&Stream);
    Machine.spawnThread(Entry, {});
    CheckingPolicy Policy(Inner);
    RunResult Result = runToCompletion(Machine, Policy, 400'000);
    EXPECT_EQ(Policy.Mismatches, 0u) << Test;
    ++Runs;
    Steps += Result.Steps;
    Switches += Policy.Switches;
    Events += Stream.Events;
    for (uint64_t Part : {Result.Steps, Policy.Switches,
                          Machine.heap().stateHash(), Stream.Hash})
      Digest = digest::updateU64(Digest, Part);
    for (unsigned Op = 0; Op != NumOpcodes; ++Op)
      InstrByOp[Op] += Machine.stats().InstrByOp[Op];
  }

  std::string str() const {
    std::string Out = formatString(
        "runs=%llu steps=%llu switches=%llu events=%llu digest=%016llx "
        "instr=",
        static_cast<unsigned long long>(Runs),
        static_cast<unsigned long long>(Steps),
        static_cast<unsigned long long>(Switches),
        static_cast<unsigned long long>(Events),
        static_cast<unsigned long long>(Digest));
    for (unsigned Op = 0; Op != NumOpcodes; ++Op)
      Out += formatString(Op ? ",%llu" : "%llu",
                          static_cast<unsigned long long>(InstrByOp[Op]));
    return Out;
  }
};

} // namespace

// Recorded with the VM whose step loop called VM::step and a separate
// execInstr switch, and that resolved array builtins by name.  For every
// synthesized test of a class: its first random-phase detection run
// (seed BaseSeed = 1) and its first confirmation run (the synthesizer's
// first candidate pair at confirmation seed 1001, first order).
TEST(EventStreamPinTest, FirstDetectionAndConfirmationRunsOfEveryTest) {
  const std::pair<const char *, const char *> Want[] = {
      {"C1",
       "runs=178 steps=1772036 switches=602432 "
       "events=544312 digest=76cc924109f006b2 "
       "instr=8451,858,242762,246925,246054,0,486519,18584,5956,17817,0,4030,4020,231168,240215,18321,356"},
      {"C2",
       "runs=66 steps=83114 switches=1424 "
       "events=33192 digest=3be37ee5b44680dd "
       "instr=10897,178,0,8218,11980,1578,14651,2266,884,13470,0,1402,1402,631,7180,8245,132"},
      {"C3",
       "runs=52 steps=22029 switches=867 "
       "events=8900 digest=a7e00ae1fb96256e "
       "instr=2660,0,0,1428,3389,172,3491,663,454,3715,0,1206,1172,514,1461,1600,104"},
      {"C4",
       "runs=194 steps=498500 switches=3698 "
       "events=156393 digest=1f8834274bf2e8ed "
       "instr=56135,3658,0,71086,110259,152,82333,7613,1586,54323,0,12439,12309,24812,47564,13843,388"},
      {"C5",
       "runs=358 steps=351943 switches=4633 "
       "events=149101 digest=e30d2effdeccaa3a "
       "instr=46729,5468,0,36312,52977,2866,59375,11272,3598,54158,0,13099,12830,6366,29075,17102,716"},
      {"C6",
       "runs=196 steps=244366 switches=6345 "
       "events=75569 digest=f643863e65867594 "
       "instr=39689,686,0,32860,33362,6149,38559,12566,1176,29262,0,0,0,2569,29957,17139,392"},
      {"C7",
       "runs=30 steps=5720 switches=443 "
       "events=3458 digest=f209cdd58891dfb3 "
       "instr=254,151,407,377,451,36,785,841,216,522,0,230,230,105,443,612,60"},
      {"C8",
       "runs=32 steps=6092 switches=264 "
       "events=4146 digest=0d8d056056e1d74a "
       "instr=686,30,0,420,530,16,1070,836,64,652,0,340,340,0,296,748,64"},
      {"C9",
       "runs=16 steps=2170 switches=160 "
       "events=1202 digest=961d339d04a6d122 "
       "instr=356,2,0,246,152,32,344,150,64,358,0,60,60,0,132,182,32"},
  };
  for (const auto &[Class, Line] : Want) {
    NaradaResult R = synthesize(*findCorpusEntry(Class));
    ASSERT_FALSE(R.Tests.empty()) << Class;
    StreamPin Pin;
    for (const SynthesizedTestInfo &Info : R.Tests) {
      RandomPolicy Random(/*Seed=*/1);
      Pin.add(*R.Program.Module, Info.Name, Random);
      if (Info.CandidateLabels.empty())
        continue;
      const auto &[A, B] = Info.CandidateLabels.front();
      RaceConfirmPolicy Confirm(A, B, /*Seed=*/1001);
      Pin.add(*R.Program.Module, Info.Name, Confirm);
    }
    EXPECT_EQ(Pin.str(), Line) << Class;
  }
}
