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
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/RaceConfirmer.h"
#include "obs/Metrics.h"
#include "runtime/Execution.h"
#include "synth/Narada.h"
#include "support/StringUtils.h"

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
