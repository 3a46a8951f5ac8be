//===- support/ThreadPool.h - Work-stealing thread pool ---------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing executor for the embarrassingly parallel per-pair
/// and per-test stages of the pipeline.  Each worker owns a deque of tasks:
/// it pops from the back of its own deque (LIFO, cache-friendly) and steals
/// from the front of a victim's deque (FIFO, coarse units first) when its
/// own runs dry.  Determinism is the callers' problem by construction: the
/// pool promises only that every submitted task runs exactly once; callers
/// write results into pre-sized slots and merge them in canonical order
/// (see synth/ParallelDriver).
///
/// The deques are mutex-guarded rather than lock-free: tasks here are
/// whole-pair derivations and whole-test schedule explorations (micro- to
/// milliseconds), so queue overhead is noise, and mutexes keep the pool
/// trivially clean under ThreadSanitizer.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_THREADPOOL_H
#define NARADA_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <condition_variable>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace narada {

/// Resolves a --jobs/NARADA_JOBS request: 0 means "all hardware threads".
inline unsigned resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

/// Parses a base-10 unsigned integer that fits in \p T.  Returns false and
/// leaves \p Out untouched on empty, signed, non-numeric, or out-of-range
/// input, so callers keep their default.
template <typename T> bool parseUnsigned(const char *Text, T &Out) {
  if (!Text || *Text == '\0')
    return false;
  for (const char *P = Text; *P; ++P)
    if (*P < '0' || *P > '9')
      return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE ||
      Value > std::numeric_limits<T>::max())
    return false;
  Out = static_cast<T>(Value);
  return true;
}

/// Parses a --jobs/NARADA_JOBS value, where 0 means "all hardware threads";
/// on malformed input callers keep their default instead of silently
/// escalating to maximum parallelism.
inline bool parseJobs(const char *Text, unsigned &Out) {
  return parseUnsigned(Text, Out);
}

/// A fixed-size work-stealing thread pool.  Construct with the worker
/// count; destruction drains nothing — join only happens once all
/// parallelFor calls returned (the pool is used scoped, per stage).
class ThreadPool {
public:
  explicit ThreadPool(unsigned Workers)
      : Queues(Workers == 0 ? 1 : Workers) {
    unsigned N = static_cast<unsigned>(Queues.size());
    for (auto &Q : Queues)
      Q = std::make_unique<WorkerQueue>();
    Threads.reserve(N);
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back([this, I] { workerLoop(I); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(SleepM);
      Stopping = true;
    }
    SleepCV.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  /// One pooled task that threw: which item, and what escaped it.  The
  /// barrier in runTask captures the exception instead of letting it
  /// unwind the worker thread (which would std::terminate the process and
  /// lose every other item's results).
  struct TaskFailure {
    size_t Item = 0;
    std::exception_ptr Error;
  };

  /// Runs Body(Item, Worker) for every Item in [0, N), distributing items
  /// round-robin over the worker deques and blocking until all complete.
  /// Worker is the executing worker's index in [0, size()) — callers use
  /// it to pick per-worker scratch state without locking.  A Body that
  /// throws does not take the process down: the exception is captured
  /// per-task and returned (sorted by item index, so the caller's handling
  /// is deterministic); all other items still run.
  [[nodiscard]] std::vector<TaskFailure>
  parallelFor(size_t N, const std::function<void(size_t, unsigned)> &Body) {
    if (N == 0)
      return {};
    Batch B;
    B.Remaining = N; // No worker can see B until the pushes below publish it.
    // Round-robin seeding spreads the canonical index range over the
    // deques so early stealing is rarely needed for balanced loads.
    for (size_t Item = 0; Item < N; ++Item) {
      WorkerQueue &Q = *Queues[Item % Queues.size()];
      std::lock_guard<std::mutex> Lock(Q.M);
      Q.Tasks.push_back(Task{&B, &Body, Item});
    }
    {
      // Bump the submission ticket under the sleep lock so a worker that
      // scanned empty deques before the pushes above cannot go to sleep
      // without observing the new work (see workerLoop).
      std::lock_guard<std::mutex> Lock(SleepM);
      ++SubmitTicket;
    }
    SleepCV.notify_all();
    std::vector<TaskFailure> Failures;
    {
      std::unique_lock<std::mutex> Lock(B.DoneM);
      B.DoneCV.wait(Lock, [&B] { return B.Remaining == 0; });
      Failures = std::move(B.Failures);
    }
    std::sort(Failures.begin(), Failures.end(),
              [](const TaskFailure &A, const TaskFailure &C) {
                return A.Item < C.Item;
              });
    return Failures;
  }

private:
  struct Batch {
    size_t Remaining = 0; ///< Guarded by DoneM once workers can see Batch.
    std::vector<TaskFailure> Failures; ///< Guarded by DoneM.
    std::mutex DoneM;
    std::condition_variable DoneCV;
  };

  struct Task {
    Batch *Owner = nullptr;
    const std::function<void(size_t, unsigned)> *Body = nullptr;
    size_t Item = 0;
  };

  struct WorkerQueue {
    std::mutex M;
    std::deque<Task> Tasks;
  };

  bool popOwn(unsigned Worker, Task &Out) {
    WorkerQueue &Q = *Queues[Worker];
    std::lock_guard<std::mutex> Lock(Q.M);
    if (Q.Tasks.empty())
      return false;
    Out = Q.Tasks.back();
    Q.Tasks.pop_back();
    return true;
  }

  bool steal(unsigned Thief, Task &Out) {
    for (size_t Offset = 1; Offset < Queues.size(); ++Offset) {
      WorkerQueue &Victim = *Queues[(Thief + Offset) % Queues.size()];
      std::lock_guard<std::mutex> Lock(Victim.M);
      if (Victim.Tasks.empty())
        continue;
      Out = Victim.Tasks.front();
      Victim.Tasks.pop_front();
      return true;
    }
    return false;
  }

  void runTask(const Task &T, unsigned Worker) {
    // Exception barrier: a throw must never unwind the worker loop — that
    // escapes the thread and std::terminates the process, killing every
    // other task's results with it.  Capture and hand it to the waiter.
    std::exception_ptr Failure;
    try {
      (*T.Body)(T.Item, Worker);
    } catch (...) {
      Failure = std::current_exception();
    }
    // Decrement and notify while holding DoneM: the waiter's predicate runs
    // under the same mutex, so it cannot observe Remaining == 0 and destroy
    // the stack-allocated Batch until this unlock completes — after which no
    // thread touches the Batch again.
    Batch &B = *T.Owner;
    std::lock_guard<std::mutex> Lock(B.DoneM);
    if (Failure)
      B.Failures.push_back({T.Item, std::move(Failure)});
    if (--B.Remaining == 0)
      B.DoneCV.notify_all();
  }

  void workerLoop(unsigned Worker) {
    uint64_t SeenTicket = 0;
    for (;;) {
      Task T;
      if (popOwn(Worker, T) || steal(Worker, T)) {
        runTask(T, Worker);
        continue;
      }
      std::unique_lock<std::mutex> Lock(SleepM);
      if (Stopping)
        return;
      // Sleep only if no submission happened since our (empty) scan of the
      // deques started; parallelFor bumps the ticket under this lock after
      // pushing, so the wake-up cannot be lost.
      if (SubmitTicket == SeenTicket)
        SleepCV.wait(Lock, [this, SeenTicket] {
          return Stopping || SubmitTicket != SeenTicket;
        });
      if (Stopping)
        return;
      SeenTicket = SubmitTicket;
    }
  }

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Threads;
  std::mutex SleepM;
  std::condition_variable SleepCV;
  uint64_t SubmitTicket = 0;
  bool Stopping = false;
};

} // namespace narada

#endif // NARADA_SUPPORT_THREADPOOL_H
