//===- explore/Explorer.cpp - Systematic schedule search -----------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "explore/Explorer.h"

#include "obs/Metrics.h"
#include "obs/Span.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <optional>

using namespace narada;
using namespace narada::explore;

ScheduleVisitor::~ScheduleVisitor() = default;

namespace {

bool contains(const std::vector<ThreadId> &Runnable, ThreadId T) {
  return std::find(Runnable.begin(), Runnable.end(), T) != Runnable.end();
}

/// Two pending accesses conflict when they touch the same location and at
/// least one writes — the DPOR dependence relation restricted to what
/// peekAccess can see (heap loads/stores and array element accesses).
bool conflicting(const std::optional<PendingAccess> &A,
                 const std::optional<PendingAccess> &B) {
  if (!A || !B)
    return false;
  if (A->Obj != B->Obj || A->IsElem != B->IsElem)
    return false;
  if (A->IsElem && A->ElemIndex != B->ElemIndex)
    return false;
  if (!A->IsElem && *A->Field != *B->Field)
    return false;
  return A->IsWrite || B->IsWrite;
}

/// A decision point with unexplored alternatives, kept on the DFS stack
/// across runs.  Explored choices are never re-added (sleep-set
/// discipline): Untried only shrinks.
struct Branch {
  uint64_t Step = 0;               ///< Pick index of the decision.
  std::vector<ThreadId> Untried;   ///< Alternatives still to explore.
};

/// Maximum preemptive context switches per schedule (the PCT/CHESS bound
/// d); yield switches are free.  Races of depth d need d-1 preemptions.
constexpr unsigned MaxPreemptions = 2;

/// One run of the DFS: replays \p Forced, then continues non-preemptively
/// (keep the running thread; at yields, lowest thread id first), creating
/// Branch records for every decision point past the forced prefix.  It
/// records its picks straight into the trace handed to the visitor.
class DfsPolicy : public SchedulingPolicy {
public:
  DfsPolicy(const std::vector<ThreadId> &Forced, const std::string &TestName,
            uint64_t RandSeed)
      : Forced(Forced) {
    Trace.TestName = TestName;
    Trace.RandSeed = RandSeed;
  }

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override {
    std::vector<ThreadId> &Picks = Trace.Picks;
    uint64_t Step = Picks.size();
    ThreadId Chosen;
    if (Step < Forced.size()) {
      // Deterministic replay of the shared prefix; the branches along it
      // already live on the caller's stack.
      Chosen = Forced[Step];
      if (!contains(Runnable, Chosen)) {
        // Cannot happen for prefixes recorded against this module/test;
        // degrade rather than crash if it somehow does.
        Diverged = true;
        Chosen = Runnable.front();
      }
    } else {
      bool PrevRunnable = Prev != NoThread && contains(Runnable, Prev);
      ThreadId Default = PrevRunnable ? Prev : Runnable.front();
      if (Runnable.size() > 1) {
        std::vector<ThreadId> Alternatives;
        for (ThreadId T : Runnable) {
          if (T == Default)
            continue;
          if (!PrevRunnable) {
            // Yield point: reordering whole thread bodies costs no
            // preemption; always branch.
            Alternatives.push_back(T);
            continue;
          }
          // Preemptive switch: bounded, and only at the running thread's
          // shared-access steps.  Preempting at a non-access step is
          // equivalent (up to local ops) to preempting at the next access,
          // so those steps are pruned wholesale.  When the candidate
          // thread is itself paused at an access, the DPOR dependence
          // filter applies: switching to a thread about to perform an
          // independent access only reorders commuting operations.
          if (Preemptions >= MaxPreemptions) {
            ++Pruned;
            continue;
          }
          std::optional<PendingAccess> DefaultAccess = M.peekAccess(Default);
          if (!DefaultAccess) {
            ++Pruned;
            continue;
          }
          std::optional<PendingAccess> TAccess = M.peekAccess(T);
          if (TAccess && !conflicting(DefaultAccess, TAccess)) {
            ++Pruned;
            continue;
          }
          Alternatives.push_back(T);
        }
        if (!Alternatives.empty())
          NewBranches.push_back({Step, std::move(Alternatives)});
      }
      Chosen = Default;
    }
    if (Prev != NoThread && Chosen != Prev && contains(Runnable, Prev)) {
      Trace.PreemptSteps.push_back(Step);
      ++Preemptions;
    }
    Prev = Chosen;
    Picks.push_back(Chosen);
    return Chosen;
  }

  const std::vector<ThreadId> &picks() const { return Trace.Picks; }
  std::vector<Branch> takeNewBranches() { return std::move(NewBranches); }
  uint64_t pruned() const { return Pruned; }
  bool diverged() const { return Diverged; }

  /// The schedule run so far.
  const ScheduleTrace &trace() const { return Trace; }

private:
  const std::vector<ThreadId> &Forced;

  ScheduleTrace Trace;
  std::vector<Branch> NewBranches;
  ThreadId Prev = NoThread;
  unsigned Preemptions = 0;
  uint64_t Pruned = 0;
  bool Diverged = false;
};

} // namespace

Result<ExploreOutcome>
narada::explore::exploreSchedules(const IRModule &M,
                                  const std::string &TestName,
                                  const ExploreOptions &Options,
                                  ScheduleVisitor &Visitor) {
  obs::Span ExploreSpan("explore");
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();

  ExploreOutcome Outcome;
  std::vector<Branch> Stack;
  std::vector<ThreadId> Forced;

  for (;;) {
    if (Outcome.SchedulesRun >= Options.MaxSchedules) {
      Outcome.HitScheduleBudget = true;
      break;
    }

    obs::Span ScheduleSpan("schedule");
    // Containment boundary: an injected fault here unwinds out of the
    // whole exploration and is quarantined per test by detectRacesInTests,
    // never aborting sibling tests (see support/FaultInjection.h).
    fault::probe("explore.schedule");
    DfsPolicy Policy(Forced, TestName, Options.RandSeed);
    ExecutionObserver *Observer =
        Visitor.beginSchedule(Outcome.SchedulesRun);
    Result<TestRun> Run = runTest(M, TestName, Policy, Options.RandSeed,
                                  Observer, Options.MaxSteps);
    if (!Run)
      return Run.error();
    ++Outcome.SchedulesRun;
    Outcome.Pruned += Policy.pruned();
    Metrics.counter("explore.schedules_run").inc();
    Metrics.counter("explore.pruned").inc(Policy.pruned());

    for (Branch &B : Policy.takeNewBranches())
      Stack.push_back(std::move(B));

    // Frontier shape gauges for the run report: peak DFS depth and peak
    // pending-alternative population.  Both are per-schedule functions of
    // the deterministic search, so the peaks match across --jobs values.
    Metrics.gauge("explore.frontier_peak")
        .max(static_cast<int64_t>(Stack.size()));
    uint64_t Pending = 0;
    for (const Branch &B : Stack)
      Pending += B.Untried.size();
    Metrics.gauge("explore.sleepset_peak").max(static_cast<int64_t>(Pending));

    if (!Visitor.endSchedule(Policy.trace(), *Run)) {
      Outcome.Stopped = true;
      break;
    }

    // Backtrack: drop exhausted decisions, then flip the deepest one left.
    while (!Stack.empty() && Stack.back().Untried.empty())
      Stack.pop_back();
    if (Stack.empty()) {
      Outcome.Exhausted = true;
      break;
    }
    Branch &Flip = Stack.back();
    ThreadId Alternative = Flip.Untried.back();
    Flip.Untried.pop_back();
    // All runs in this decision's subtree share picks[0, Step), so the
    // just-finished run's prefix is the right one to force.
    const std::vector<ThreadId> &Picks = Policy.picks();
    Forced.assign(Picks.begin(),
                  Picks.begin() + static_cast<ptrdiff_t>(Flip.Step));
    Forced.push_back(Alternative);
  }
  return Outcome;
}
