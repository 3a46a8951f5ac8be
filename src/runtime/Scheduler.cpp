//===- runtime/Scheduler.cpp - Thread interleaving -----------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "runtime/Scheduler.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace narada;

SchedulingPolicy::~SchedulingPolicy() = default;

ThreadId RoundRobinPolicy::pick(const std::vector<ThreadId> &Runnable,
                                VM &M) {
  // Prefer the thread after the last one stepped, wrapping around.
  for (ThreadId Candidate : Runnable)
    if (Candidate >= Last)
      return Last = Candidate;
  return Last = Runnable.front();
}

ThreadId RandomPolicy::pick(const std::vector<ThreadId> &Runnable, VM &M) {
  return Runnable[Rand.nextBelow(Runnable.size())];
}

ThreadId PreemptionBoundedPolicy::pick(const std::vector<ThreadId> &Runnable,
                                       VM &M) {
  bool CurrentRunnable =
      Current != NoThread &&
      std::find(Runnable.begin(), Runnable.end(), Current) != Runnable.end();
  if (CurrentRunnable && !Rand.chance(PreemptPercent, 100))
    return Current;
  return Current = Runnable[Rand.nextBelow(Runnable.size())];
}

PCTPolicy::PCTPolicy(uint64_t Seed, unsigned Depth, uint64_t MaxSteps)
    : Rand(Seed) {
  for (unsigned I = 0; I + 1 < Depth; ++I)
    ChangePoints.push_back(Rand.nextBelow(MaxSteps));
  std::sort(ChangePoints.begin(), ChangePoints.end());
  PlannedDrops = static_cast<unsigned>(ChangePoints.size());
}

uint64_t PCTPolicy::priorityOf(ThreadId T) {
  while (Priorities.size() <= T)
    // Initial priorities are random but all above the change-point band
    // [0, d), so a dropped thread always ranks below undropped ones.
    Priorities.push_back(1000 + Rand.nextBelow(1'000'000));
  return Priorities[T];
}

ThreadId PCTPolicy::pick(const std::vector<ThreadId> &Runnable, VM &M) {
  ThreadId Best = Runnable.front();
  uint64_t BestPriority = priorityOf(Best);
  for (ThreadId T : Runnable) {
    if (priorityOf(T) > BestPriority) {
      Best = T;
      BestPriority = priorityOf(T);
    }
  }
  // At a change point the chosen thread's priority drops into the low
  // band.  Duplicate change points (the RNG may draw the same step twice)
  // each perform a drop, so exactly d-1 drops happen overall.
  while (!ChangePoints.empty() && Step == ChangePoints.front()) {
    ChangePoints.erase(ChangePoints.begin());
    Priorities[Best] = NextLowPriority++;
    ++DropsPerformed;
  }
  ++Step;
  return Best;
}

namespace {

/// One entry of the policy registry.  makePolicy() and knownPolicyNames()
/// both read this table, so adding a policy here is the whole change —
/// the --policy validation and the --help text can no longer drift.
struct PolicyEntry {
  const char *Name;
  std::unique_ptr<SchedulingPolicy> (*Make)(uint64_t Seed);
};

const PolicyEntry PolicyRegistry[] = {
    {"roundrobin",
     [](uint64_t) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<RoundRobinPolicy>();
     }},
    {"random",
     [](uint64_t Seed) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<RandomPolicy>(Seed);
     }},
    {"preempt",
     [](uint64_t Seed) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<PreemptionBoundedPolicy>(
           Seed, /*PreemptPercent=*/25);
     }},
    {"pct",
     [](uint64_t Seed) -> std::unique_ptr<SchedulingPolicy> {
       return std::make_unique<PCTPolicy>(Seed);
     }},
};

} // namespace

std::unique_ptr<SchedulingPolicy> narada::makePolicy(std::string_view Name,
                                                     uint64_t Seed) {
  for (const PolicyEntry &Entry : PolicyRegistry)
    if (Name == Entry.Name)
      return Entry.Make(Seed);
  return nullptr;
}

const char *narada::knownPolicyNames() {
  // Rendered from the registry once; the names never change at run time.
  static const std::string Names = [] {
    std::string Out;
    for (const PolicyEntry &Entry : PolicyRegistry) {
      if (!Out.empty())
        Out += ", ";
      Out += Entry.Name;
    }
    return Out;
  }();
  return Names.c_str();
}

RunResult narada::runToCompletion(VM &M, SchedulingPolicy &Policy,
                                  uint64_t MaxSteps) {
  RunResult Result;
  // Scheduling stats accumulate in locals and flush to the registry once
  // after the loop: the step loop is the hottest path in the system and
  // must not touch atomics per iteration.
  uint64_t ContextSwitches = 0;
  ThreadId Prev = NoThread;
  std::vector<ThreadId> Runnable; // Refilled each step, allocated once.
  while (!M.allDone()) {
    if (Result.Steps >= MaxSteps) {
      Result.HitStepLimit = true;
      break;
    }
    M.runnableThreads(Runnable);
    if (Runnable.empty()) {
      Result.Deadlocked = M.deadlocked();
      break;
    }
    ThreadId Chosen = Policy.pick(Runnable, M);
    if (Prev != NoThread && Chosen != Prev)
      ++ContextSwitches;
    Prev = Chosen;
    M.step(Chosen);
    ++Result.Steps;
  }
  for (size_t T = 0, E = M.numThreads(); T != E; ++T) {
    const ThreadState &Thread = M.thread(static_cast<ThreadId>(T));
    if (Thread.Status == ThreadStatus::Faulted) {
      Result.Faulted = true;
      Result.FaultMessages.push_back(Thread.FaultMessage);
    }
  }

  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Metrics.counter("runtime.runs").inc();
  Metrics.counter("runtime.steps").inc(Result.Steps);
  Metrics.counter("runtime.context_switches").inc(ContextSwitches);
  if (Result.Deadlocked)
    Metrics.counter("runtime.deadlocks").inc();
  if (Result.Faulted)
    Metrics.counter("runtime.faults").inc();
  if (Result.HitStepLimit)
    Metrics.counter("runtime.step_limit_hits").inc();
  static obs::Histogram &StepsPerRun = Metrics.histogram(
      "runtime.steps_per_run", {100, 1000, 10000, 100000, 1000000});
  StepsPerRun.observe(Result.Steps);
  return Result;
}
