//===- explore/Explorer.h - Systematic schedule search ----------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded systematic search over SchedulingPolicy decision points, in the
/// stateless-model-checking style: every schedule follows a forced prefix
/// of pick() decisions, then continues non-preemptively; backtracking
/// flips the deepest decision with an unexplored alternative.  A schedule
/// does not re-execute the prefix it shares with the run that created its
/// decision: that run copied the VM and the observer's state at the
/// decision (a checkpoint), and the schedule resumes from the copy with
/// the alternative forced.  A visitor that cannot copy its observer gets
/// the same schedules, each re-executed from step 0.  Two prunings keep
/// the space tractable:
///
///  - sleep-set discipline: an alternative explored at a decision point is
///    never re-added, so each (prefix, choice) is executed exactly once;
///  - DPOR-style conflict filtering keyed on the VM's *pending* shared-
///    memory accesses (VM::peekAccess): preemptive switches are only
///    scheduled at steps where the running thread is about to perform a
///    shared access (preempting elsewhere commutes with local ops), and a
///    switch to a thread that is itself paused at an access is pruned
///    unless the two accesses conflict (same location, at least one
///    write).  Switches at yield points (the running thread blocked or
///    finished) are always branched, since they reorder whole thread
///    bodies for free.
///
/// The search is bounded by a budget ladder — max schedules and max
/// preemptions per schedule — and reports whether the bounded space was
/// exhausted, so callers can degrade gracefully to randomized policies
/// when it was not (see detect/Detection.cpp).  A wall-clock budget is the
/// caller's: detection checks its per-test budget after every schedule.
/// Approximation notes: monitor operations are not branch points
/// (peekAccess only describes heap accesses), so lock-order interleavings
/// beyond those forced by yields are not enumerated; within the preemption
/// bound the search is exhaustive over the pruned space.
///
/// Memory: a decision holds its checkpoint only while it has alternatives
/// left, and the schedule that takes the last one takes the checkpoint
/// too, so at most one checkpoint per level of the DFS stack is alive
/// (explore.frontier_peak).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_EXPLORE_EXPLORER_H
#define NARADA_EXPLORE_EXPLORER_H

#include "explore/ScheduleTrace.h"
#include "runtime/Execution.h"
#include "support/Error.h"

#include <memory>
#include <string>

namespace narada {
namespace explore {

/// The budget ladder bounding one systematic search.
struct ExploreOptions {
  /// Maximum schedules to execute before giving up on exhausting the
  /// space.  Degenerate values are still honored (1 = baseline run only).
  unsigned MaxSchedules = 256;
  /// Per-schedule step ceiling.
  uint64_t MaxSteps = 400'000;
  /// VM rand() stream seed (schedules are deterministic given it).
  uint64_t RandSeed = 1;
};

/// What one search did and why it stopped.
struct ExploreOutcome {
  unsigned SchedulesRun = 0;
  /// Alternatives discarded by the conflict filter or the preemption
  /// bound — each is a subtree the bounded search never entered.
  uint64_t Pruned = 0;
  bool Exhausted = false;         ///< The pruned, bounded space was covered.
  bool HitScheduleBudget = false; ///< Stopped at MaxSchedules.
  bool Stopped = false;           ///< The visitor asked to stop.
};

/// A copy of an observer's state at a decision point, made by
/// ScheduleVisitor::checkpointObserver().
class ObserverCheckpoint {
public:
  virtual ~ObserverCheckpoint();

  /// An independent copy, for a schedule resumed while the decision still
  /// has alternatives left.
  virtual std::unique_ptr<ObserverCheckpoint> copy() const = 0;
};

/// Callbacks driving one search.  The visitor owns the per-schedule
/// observers (detectors) and decides when to stop early.
class ScheduleVisitor {
public:
  virtual ~ScheduleVisitor();

  /// Called before schedule \p Index executes from step 0; the returned
  /// observer (may be null) watches that execution.
  virtual ExecutionObserver *beginSchedule(unsigned Index) = 0;

  /// Called after a schedule ran, with the exact trace it executed: every
  /// pick from step 0, also for a schedule resumed from a checkpoint.
  /// Run.Result counts the whole schedule too.  Run.TheTrace is empty and
  /// Run.HeapHash is not computed (0).  Return false to stop the search
  /// (ExploreOutcome::Stopped).
  virtual bool endSchedule(const ScheduleTrace &Trace, const TestRun &Run) = 0;

  /// Called inside a schedule at each decision point it creates: copies
  /// the state of the observer watching it, which has seen every event
  /// of the schedule so far.  The copy must not report anything (flush
  /// counters, say) on its own.  Null, the default, means the visitor
  /// cannot resume, and every schedule then re-executes from step 0.
  virtual std::unique_ptr<ObserverCheckpoint> checkpointObserver();

  /// Called instead of beginSchedule() for schedule \p Index when it
  /// resumes from a decision point: \p From is (a copy of) what
  /// checkpointObserver() returned there.  The returned observer (may be
  /// null) must continue from that state and watches the rest of the
  /// schedule; what it reports should cover the whole schedule.
  virtual ExecutionObserver *
  resumeSchedule(unsigned Index, std::unique_ptr<ObserverCheckpoint> From);
};

/// Runs the bounded DFS for \p TestName over \p M.  Deterministic: the
/// same (module, test, options) always explores the same schedules in the
/// same order, which is what keeps per-test exploration identical across
/// --jobs values.  Errors surface only for harness-level failures (unknown
/// test); schedule-level misbehavior (faults, deadlocks, step limits) is
/// reported per run through the visitor.
Result<ExploreOutcome> exploreSchedules(const IRModule &M,
                                        const std::string &TestName,
                                        const ExploreOptions &Options,
                                        ScheduleVisitor &Visitor);

} // namespace explore
} // namespace narada

#endif // NARADA_EXPLORE_EXPLORER_H
