//===- obs/UnitExecutor.h - One executor for per-unit stages ----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the units of a per-unit pipeline stage (a racy pair in synthesis,
/// a synthesized test in detection) in process through parallelFor
/// (support/Parallel.h) — inline at --jobs 1, on worker threads at --jobs N
/// with each unit in a `worker<K>` span — or in crash-isolated worker
/// processes (support/ProcessPool.h) under --isolate.  Every unit runs
/// under fault::ScopedUnit and obs::TraceScope, and a unit without a
/// result yields one fault record, so a stage commits its units with one
/// walk whichever way they ran.  Isolated rounds also merge each reply's
/// metrics delta and record `pool.unit_micros`, and the pool's `pool.*`
/// statistics are published when the executor is destroyed — which is why
/// this lives in narada_obs, above narada_support.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_OBS_UNITEXECUTOR_H
#define NARADA_OBS_UNITEXECUTOR_H

#include "support/Wire.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace narada {

namespace pool {
class ProcessPool;
struct IsolateOptions;
} // namespace pool

/// Why a unit produced no result.
struct UnitFault {
  enum class Kind {
    Internal, ///< An exception escaped the unit, here or in its worker.
    Crash,    ///< The unit's worker process died (pool::describeCrash).
  };
  Kind K = Kind::Internal;
  std::string Message;
};

class UnitExecutor {
public:
  /// \p Jobs workers (0 = one per hardware thread); worker processes set up
  /// with \p SetupPayload when \p Isolate is non-null.  \p TraceKind names
  /// the units in trace scopes ("pair", "test").
  UnitExecutor(unsigned Jobs, const char *TraceKind,
               const pool::IsolateOptions *Isolate, std::string SetupPayload);
  /// Publishes the worker processes' statistics as pool.* counters.
  ~UnitExecutor();
  UnitExecutor(const UnitExecutor &) = delete;
  UnitExecutor &operator=(const UnitExecutor &) = delete;

  /// Worker threads or processes (at least 1).
  unsigned workers() const { return Workers; }

  /// Runs unit \p Ids[K] for every K: in process as \p Local(Id), or
  /// isolated by sending \p Encode(Id) to a worker process and handing its
  /// reply to \p Accept(Id, Reply).  Returns, in the order of \p Ids, the
  /// fault of every unit that has no result.  Worker processes keep their
  /// setup across rounds.
  std::vector<std::optional<UnitFault>>
  run(const std::vector<size_t> &Ids,
      const std::function<void(size_t)> &Local,
      const std::function<std::string(size_t)> &Encode,
      const std::function<void(size_t, const wire::RecordReader &)> &Accept);

private:
  const char *TraceKind;
  unsigned Workers;
  std::unique_ptr<pool::ProcessPool> Processes; ///< Set under --isolate.
  std::vector<std::string> WorkerSpanNames; ///< Set at --jobs N in process.
};

/// Unit ids 0 .. \p N - 1.
std::vector<size_t> unitIds(size_t N);

} // namespace narada

#endif // NARADA_OBS_UNITEXECUTOR_H
