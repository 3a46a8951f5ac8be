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

ObserverCheckpoint::~ObserverCheckpoint() = default;
ScheduleVisitor::~ScheduleVisitor() = default;

std::unique_ptr<ObserverCheckpoint> ScheduleVisitor::checkpointObserver() {
  return nullptr;
}

ExecutionObserver *
ScheduleVisitor::resumeSchedule(unsigned, std::unique_ptr<ObserverCheckpoint>) {
  narada_unreachable("resuming a visitor that makes no checkpoints");
}

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

/// The run at a decision point, before the decision's step: the VM, whose
/// position() is the decision's (steps taken, context switches, last
/// pick), and the observer's state.
struct Checkpoint {
  Checkpoint(const VM &Machine, std::unique_ptr<ObserverCheckpoint> Observer)
      : Machine(Machine), Observer(std::move(Observer)) {}

  VM Machine;
  std::unique_ptr<ObserverCheckpoint> Observer;
};

/// A decision point with unexplored alternatives, kept on the DFS stack
/// across runs.  Explored choices are never re-added (sleep-set
/// discipline): Untried only shrinks.  From is null for a visitor that
/// makes no checkpoints, and once the last alternative has taken it.
struct Branch {
  uint64_t Step = 0;               ///< Pick index of the decision.
  std::vector<ThreadId> Untried;   ///< Alternatives still to explore.
  std::unique_ptr<Checkpoint> From;
};

/// Maximum preemptive context switches per schedule (the PCT/CHESS bound
/// d); yield switches are free.  Races of depth d need d-1 preemptions.
constexpr unsigned MaxPreemptions = 2;

/// One run of the DFS: from the step it starts at (\p At, 0 for a run
/// from step 0), takes the picks of \p Forced, then continues
/// non-preemptively (keep the running thread; at yields, lowest thread id
/// first), creating Branch records for every decision point past the
/// forced picks.  It records its picks into the trace handed to the
/// visitor, which starts with the picks the run resumes after.  When
/// \p Visitor can copy its observer, each Branch gets a checkpoint.
class DfsPolicy : public SchedulingPolicy {
public:
  DfsPolicy(const std::vector<ThreadId> &Forced, ScheduleTrace Start,
            const VM::Position &At, ScheduleVisitor &Visitor,
            bool &Checkpoints)
      : Forced(Forced), Trace(std::move(Start)), Visitor(Visitor),
        Checkpoints(Checkpoints), First(At.Steps), Prev(At.LastPick),
        Switches(At.ContextSwitches) {
    assert(Trace.Picks.size() == At.Steps && "a resumed run's picks");
  }

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override {
    std::vector<ThreadId> &Picks = Trace.Picks;
    uint64_t Step = Picks.size();
    ThreadId Chosen;
    if (Step - First < Forced.size()) {
      // Deterministic replay of the shared prefix; the branches along it
      // already live on the caller's stack.
      Chosen = Forced[Step - First];
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
          if (Trace.preemptions() >= MaxPreemptions) {
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
          NewBranches.push_back(
              {Step, std::move(Alternatives), checkpoint(M, Step)});
      }
      Chosen = Default;
    }
    if (Prev != NoThread && Chosen != Prev) {
      ++Switches;
      if (contains(Runnable, Prev))
        Trace.PreemptSteps.push_back(Step);
    }
    Prev = Chosen;
    Picks.push_back(Chosen);
    return Chosen;
  }

  std::vector<Branch> takeNewBranches() { return std::move(NewBranches); }
  uint64_t pruned() const { return Pruned; }
  bool diverged() const { return Diverged; }

  /// The schedule run so far.
  const ScheduleTrace &trace() const { return Trace; }
  ScheduleTrace takeTrace() { return std::move(Trace); }

private:
  /// The run as it stands before step \p Step, or null when the visitor
  /// makes no checkpoints.  \p M's loop position is stale inside pick(),
  /// so the copy gets the one this policy tracks.
  std::unique_ptr<Checkpoint> checkpoint(const VM &M, uint64_t Step) {
    if (!Checkpoints)
      return nullptr;
    std::unique_ptr<ObserverCheckpoint> Observer =
        Visitor.checkpointObserver();
    if (!Observer) {
      Checkpoints = false;
      return nullptr;
    }
    auto C = std::make_unique<Checkpoint>(M, std::move(Observer));
    C->Machine.setPosition({Step, Switches, Prev});
    return C;
  }

  const std::vector<ThreadId> &Forced;
  ScheduleTrace Trace;
  ScheduleVisitor &Visitor;
  bool &Checkpoints;
  std::vector<Branch> NewBranches;
  uint64_t First; ///< The step the run starts at.
  ThreadId Prev;
  /// Context switches by the VM's rule: any change of thread.
  uint64_t Switches;
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
  // The next schedule: the picks it is forced to take from its first
  // step, the trace of the prefix it skips and the checkpoint it resumes
  // from (both empty for a run from step 0).
  std::vector<ThreadId> Forced;
  ScheduleTrace Start;
  Start.TestName = TestName;
  Start.RandSeed = Options.RandSeed;
  std::unique_ptr<Checkpoint> From;
  // Cleared for good by a visitor that makes no checkpoints.
  bool Checkpoints = true;

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
    std::optional<VM> Machine;
    ExecutionObserver *Observer;
    if (From) {
      Observer = Visitor.resumeSchedule(Outcome.SchedulesRun,
                                        std::move(From->Observer));
      Machine.emplace(std::move(From->Machine));
      From.reset();
      Metrics.counter("explore.steps_resumed").inc(Machine->position().Steps);
    } else {
      Observer = Visitor.beginSchedule(Outcome.SchedulesRun);
      Result<VM> Started =
          startTest(M, TestName, Options.RandSeed, Observer);
      if (!Started)
        return Started.error();
      Machine.emplace(Started.take());
    }
    DfsPolicy Policy(Forced, std::move(Start), Machine->position(), Visitor,
                     Checkpoints);
    TestRun Run;
    Run.Result = runToEnd(*Machine, Policy, Observer, Options.MaxSteps);
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

    if (!Visitor.endSchedule(Policy.trace(), Run)) {
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
    // just-finished run's prefix is the right one to force or keep.
    Start = Policy.takeTrace();
    if (!Flip.From) {
      Forced.assign(Start.Picks.begin(),
                    Start.Picks.begin() + static_cast<ptrdiff_t>(Flip.Step));
      Forced.push_back(Alternative);
      Start.Picks.clear();
      Start.PreemptSteps.clear();
      continue;
    }
    // Resume from the decision's checkpoint: keep the prefix's picks and
    // preemptions, force only the alternative, and take the checkpoint
    // itself with the last alternative.
    Forced.assign(1, Alternative);
    Start.Picks.resize(Flip.Step);
    Start.PreemptSteps.erase(std::lower_bound(Start.PreemptSteps.begin(),
                                              Start.PreemptSteps.end(),
                                              Flip.Step),
                             Start.PreemptSteps.end());
    if (Flip.Untried.empty())
      From = std::move(Flip.From);
    else
      From = std::make_unique<Checkpoint>(Flip.From->Machine,
                                          Flip.From->Observer->copy());
  }
  return Outcome;
}
