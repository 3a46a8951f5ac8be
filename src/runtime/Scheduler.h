//===- runtime/Scheduler.h - Thread interleaving ----------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative scheduling over VM threads.  The paper relies on the JVM
/// scheduler plus RaceFuzzer's controlled interleaving; here a seeded policy
/// picks which live thread executes the next instruction, which makes every
/// interleaving reproducible and lets the detect/ library implement
/// RaceFuzzer's pause-at-the-racy-access strategy as just another policy.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_RUNTIME_SCHEDULER_H
#define NARADA_RUNTIME_SCHEDULER_H

#include "runtime/VM.h"
#include "support/RNG.h"

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace narada {

/// Chooses the next thread to step among the currently runnable ones.
class SchedulingPolicy {
public:
  virtual ~SchedulingPolicy();

  /// \p Runnable is non-empty.  Returns an element of \p Runnable.
  virtual ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) = 0;
};

/// Steps threads in index order, exhausting each before the next becomes
/// runnable work.  Deterministic; useful for sequential tests (which only
/// ever have one thread) and as a degenerate baseline.
class RoundRobinPolicy : public SchedulingPolicy {
public:
  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

private:
  ThreadId Last = 0;
};

/// Picks a uniformly random runnable thread; the seed determines the whole
/// interleaving.
class RandomPolicy : public SchedulingPolicy {
public:
  explicit RandomPolicy(uint64_t Seed) : Rand(Seed) {}
  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

private:
  RNG Rand;
};

/// Preemption-bounded random policy in the spirit of probabilistic
/// concurrency testing: runs the current thread until it blocks or finishes,
/// with occasional random preemptions.
class PreemptionBoundedPolicy : public SchedulingPolicy {
public:
  PreemptionBoundedPolicy(uint64_t Seed, unsigned PreemptPercent)
      : Rand(Seed), PreemptPercent(PreemptPercent) {}
  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

private:
  RNG Rand;
  unsigned PreemptPercent;
  ThreadId Current = NoThread;
};

/// Priority-based probabilistic concurrency testing (PCT, Burckhardt et
/// al., ASPLOS'10 — citation [3] of the paper): every thread gets a random
/// priority; the highest-priority runnable thread always runs, except at
/// d-1 pre-chosen steps where the running thread's priority drops below
/// everyone else's.  For a bug of depth d this finds it with probability
/// >= 1/(n * k^(d-1)).  Synthesized racy tests have depth ~2, so PCT with
/// small d exposes them quickly — one reason the paper lists PCT among the
/// tools that "can benefit from the tests synthesized by our
/// implementation".
class PCTPolicy : public SchedulingPolicy {
public:
  /// \p Depth is PCT's d (number of priority change points + 1);
  /// \p MaxSteps bounds k, the step budget the change points are drawn
  /// from.
  PCTPolicy(uint64_t Seed, unsigned Depth = 2, uint64_t MaxSteps = 20'000);

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

  /// Change points drawn at construction: always d-1, even when the RNG
  /// lands several on the same step (each still causes its own drop).
  unsigned plannedDrops() const { return PlannedDrops; }
  /// Priority drops performed so far; reaches plannedDrops() once the run
  /// stepped past the last change point.
  unsigned dropsPerformed() const { return DropsPerformed; }

private:
  uint64_t priorityOf(ThreadId T);

  RNG Rand;
  std::vector<uint64_t> ChangePoints; ///< Sorted step indices.
  std::vector<uint64_t> Priorities;   ///< Indexed by thread id.
  uint64_t Step = 0;
  uint64_t NextLowPriority = 1; ///< Counts down: later drops rank lower.
  unsigned PlannedDrops = 0;
  unsigned DropsPerformed = 0;
};

/// Builds the named policy ("roundrobin", "random", "preempt", "pct") —
/// the user-facing policy registry behind narada-cli's --policy flag.
/// Returns nullptr on an unknown name; knownPolicyNames() lists the valid
/// spellings for diagnostics.
std::unique_ptr<SchedulingPolicy> makePolicy(std::string_view Name,
                                             uint64_t Seed);
const char *knownPolicyNames();

/// The outcome of driving a VM to quiescence.
struct RunResult {
  uint64_t Steps = 0;
  bool Deadlocked = false;
  bool Faulted = false;
  bool HitStepLimit = false;
  std::vector<std::string> FaultMessages;
};

/// Steps the VM under \p Policy until every thread finishes, a deadlock is
/// reached, or \p MaxSteps instructions have executed.  Defined in VM.cpp,
/// beside VM::step.
RunResult runToCompletion(VM &M, SchedulingPolicy &Policy,
                          uint64_t MaxSteps = 1'000'000);

} // namespace narada

#endif // NARADA_RUNTIME_SCHEDULER_H
