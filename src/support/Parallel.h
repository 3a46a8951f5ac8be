//===- support/Parallel.h - Fan-out over independent items ------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parallelFor, the one fan-out of the pipeline's embarrassingly parallel
/// stages (one unit per racy pair, synthesized test, generated seed
/// candidate or report file), plus the --jobs/NARADA_JOBS parsing they
/// share.  Items are whole derivations, detections, validations or parses
/// (micro- to milliseconds) and no item submits more work, so threads
/// started per call and one shared counter are all the scheduling they
/// need.  Determinism is the callers' problem by construction: every item
/// runs exactly once; callers write results into pre-sized slots and merge
/// them in canonical order (see obs/UnitExecutor).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_PARALLEL_H
#define NARADA_SUPPORT_PARALLEL_H

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <system_error>
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

/// One item of a parallelFor call that threw: which item, and what escaped
/// it.
struct ItemFailure {
  size_t Item = 0;
  std::exception_ptr Error;
};

/// Runs Body(Item, Worker) for every Item in [0, N).  With \p Workers <= 1
/// or N <= 1 the items run in index order on the calling thread (Worker 0).
/// Otherwise min(Workers, N) threads take indices from one shared counter
/// while the caller only waits, so no item inherits the caller's
/// thread-locals; Worker is the executing thread's index in
/// [0, min(Workers, N)).  A Body that throws does not take the
/// process down: the exception is captured per item and returned, sorted
/// by item, so the caller's handling is deterministic; all other items
/// still run.
[[nodiscard]] inline std::vector<ItemFailure>
parallelFor(size_t N, unsigned Workers,
            const std::function<void(size_t, unsigned)> &Body) {
  std::mutex FailuresM;
  std::vector<ItemFailure> Failures; ///< Guarded by FailuresM.
  auto RunItem = [&](size_t Item, unsigned Worker) {
    // The exception barrier: a throw escaping a thread's entry function
    // std::terminates the process, losing every other item's result.
    try {
      Body(Item, Worker);
    } catch (...) {
      std::lock_guard<std::mutex> Lock(FailuresM);
      Failures.push_back({Item, std::current_exception()});
    }
  };

  if (Workers <= 1 || N <= 1) {
    for (size_t Item = 0; Item < N; ++Item)
      RunItem(Item, 0);
    return Failures;
  }

  std::atomic<size_t> Next{0};
  auto Drain = [&](unsigned Worker) {
    for (size_t Item = Next++; Item < N; Item = Next++)
      RunItem(Item, Worker);
  };
  std::vector<std::thread> Threads;
  const unsigned Count = static_cast<unsigned>(std::min<size_t>(Workers, N));
  Threads.reserve(Count);
  for (unsigned W = 0; W < Count; ++W) {
    try {
      Threads.emplace_back(Drain, W);
    } catch (const std::system_error &) {
      // Out of threads: the ones already running drain every item.  With
      // none running there is nothing to join, so the error propagates.
      if (Threads.empty())
        throw;
      break;
    }
  }
  for (std::thread &T : Threads)
    T.join();
  std::sort(Failures.begin(), Failures.end(),
            [](const ItemFailure &A, const ItemFailure &B) {
              return A.Item < B.Item;
            });
  return Failures;
}

} // namespace narada

#endif // NARADA_SUPPORT_PARALLEL_H
