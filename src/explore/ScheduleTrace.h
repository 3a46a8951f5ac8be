//===- explore/ScheduleTrace.h - Replayable schedule traces -----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule record/replay layer of the exploration subsystem: a
/// ScheduleTrace is the exact sequence of SchedulingPolicy::pick()
/// decisions of one execution, serialized to a compact text format so any
/// run — random, PCT, or systematic — that finds a race can emit a
/// replayable witness.  Because the VM is deterministic given (module,
/// test, rand seed, pick sequence), replaying a trace recorded from a real
/// run reproduces that run byte-identically: same events, same detector
/// output, same final heap hash.
///
/// Three policies operate on traces:
///  - RecordingPolicy wraps any policy and records its picks, classifying
///    each context switch as preemptive (the previous thread was still
///    runnable) or a yield (it was not);
///  - ReplayPolicy replays a trace pick for pick (strict; divergence from
///    the recorded runnable sets is flagged, not papered over);
///  - SegmentReplayPolicy replays a schedule at thread-segment granularity
///    with relaxed semantics, which is what the witness minimizer perturbs
///    (see WitnessMinimizer.h).
///
/// Trace text format (one directive per line, '#' comments ignored):
///
///   narada.schedule/v1
///   test <name>
///   seed <vm-rand-seed>
///   race <race-key>             (zero or more, sorted)
///   preempt-steps <s1> <s2> ...  (step indices of preemptive switches)
///   picks <tid>x<count> ...      (run-length encoded; line repeatable)
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_EXPLORE_SCHEDULETRACE_H
#define NARADA_EXPLORE_SCHEDULETRACE_H

#include "runtime/Scheduler.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace narada {
namespace explore {

/// One recorded schedule: the exact pick() sequence of a run, plus the
/// metadata needed to replay and triage it.
struct ScheduleTrace {
  static constexpr const char *Schema = "narada.schedule/v1";

  std::string TestName;
  uint64_t RandSeed = 1; ///< VM rand() stream seed of the recorded run.
  std::vector<ThreadId> Picks;
  /// Step indices at which the recorded run preempted: it switched away
  /// from a thread that was still runnable.  Yield switches (the previous
  /// thread blocked or finished) are not listed.
  std::vector<uint64_t> PreemptSteps;
  /// key()s of the races this schedule witnessed, sorted (may be empty for
  /// traces recorded outside witness emission).
  std::vector<std::string> RaceKeys;

  unsigned preemptions() const {
    return static_cast<unsigned>(PreemptSteps.size());
  }

  /// Renders the trace in the text format above.
  std::string serialize() const;

  /// Parses a serialized trace; malformed input is an Error naming the
  /// offending line.  So is a thread id that does not fit below NoThread,
  /// and a trace of more than \p MaxPicks picks, the most the replay it is
  /// read for can consume (one per step of its step budget); both are
  /// checked before any run is expanded.
  static Result<ScheduleTrace> deserialize(const std::string &Text,
                                           uint64_t MaxPicks);

  Status writeFile(const std::string &Path) const;
  static Result<ScheduleTrace> readFile(const std::string &Path,
                                        uint64_t MaxPicks);
};

/// Wraps another policy and records its decisions, so every exploration
/// mode emits witnesses through the same code path.
class RecordingPolicy : public SchedulingPolicy {
public:
  explicit RecordingPolicy(SchedulingPolicy &Inner) : Inner(Inner) {}

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

  const std::vector<ThreadId> &picks() const { return Picks; }
  unsigned preemptions() const {
    return static_cast<unsigned>(PreemptSteps.size());
  }

  /// The recorded schedule so far, stamped with \p TestName / \p RandSeed.
  ScheduleTrace trace(std::string TestName, uint64_t RandSeed) const;

private:
  SchedulingPolicy &Inner;
  std::vector<ThreadId> Picks;
  std::vector<uint64_t> PreemptSteps;
  ThreadId Prev = NoThread;
};

/// Strict replay: returns the recorded picks in order.  On a deterministic
/// VM a trace recorded from a real run never diverges; diverged() reports
/// when a recorded pick was not runnable (e.g. a trace replayed against a
/// different module), in which case the policy degrades to non-preemptive
/// continuation rather than crashing.
class ReplayPolicy : public SchedulingPolicy {
public:
  explicit ReplayPolicy(const ScheduleTrace &Trace) : Trace(Trace) {}

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

  bool diverged() const { return Diverged; }
  /// True when the run needed more picks than the trace recorded.
  bool exhausted() const { return Exhausted; }

private:
  const ScheduleTrace &Trace;
  size_t Next = 0;
  ThreadId Prev = NoThread;
  bool Diverged = false;
  bool Exhausted = false;
};

/// Relaxed, segment-granular replay for minimization candidates.  Each
/// segment runs its thread for up to Len steps (Len 0 = until the thread
/// stops being runnable); a segment whose thread is not runnable is
/// skipped.  When all segments are consumed the policy continues
/// non-preemptively.  Candidates produced by coalescing segments of a real
/// trace are not exact pick sequences, so exactness is *not* promised here
/// — the minimizer re-records the actual run (via RecordingPolicy) before
/// accepting a candidate, and only exact re-recorded traces are reported.
class SegmentReplayPolicy : public SchedulingPolicy {
public:
  struct Segment {
    ThreadId T = 0;
    uint64_t Len = 0; ///< 0 = run until not runnable.
  };

  explicit SegmentReplayPolicy(std::vector<Segment> Segments)
      : Segments(std::move(Segments)) {}

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

private:
  std::vector<Segment> Segments;
  size_t Cur = 0;
  uint64_t StepsLeft = 0;
  bool CurStarted = false;
  ThreadId Prev = NoThread;
};

/// Decomposes \p Trace.Picks into maximal same-thread segments, marking
/// for each segment boundary whether the switch was preemptive (its step
/// index appears in Trace.PreemptSteps).
struct SegmentedTrace {
  std::vector<SegmentReplayPolicy::Segment> Segments;
  /// PreemptiveBoundary[I] — the switch between Segments[I] and
  /// Segments[I+1] was a preemption.  Size = Segments.size() - 1 (empty
  /// for single-segment traces).
  std::vector<bool> PreemptiveBoundary;
};

SegmentedTrace segmentTrace(const ScheduleTrace &Trace);

} // namespace explore
} // namespace narada

#endif // NARADA_EXPLORE_SCHEDULETRACE_H
