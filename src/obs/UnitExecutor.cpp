//===- obs/UnitExecutor.cpp - One executor for per-unit stages -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "obs/UnitExecutor.h"

#include "obs/MetricsWire.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "support/ProcessPool.h"
#include "support/StringUtils.h"

#include <numeric>

using namespace narada;

std::vector<size_t> narada::unitIds(size_t N) {
  std::vector<size_t> Ids(N);
  std::iota(Ids.begin(), Ids.end(), size_t{0});
  return Ids;
}

UnitExecutor::UnitExecutor(unsigned Jobs, const char *TraceKind,
                           const pool::IsolateOptions *Isolate,
                           std::string SetupPayload)
    : TraceKind(TraceKind), Workers(resolveJobs(Jobs)) {
  if (Isolate) {
    Processes = std::make_unique<pool::ProcessPool>(*Isolate, Workers,
                                                    std::move(SetupPayload));
  } else if (Workers > 1) {
    for (unsigned W = 0; W < Workers; ++W)
      WorkerSpanNames.push_back(formatString("worker%u", W));
  }
}

UnitExecutor::~UnitExecutor() {
  if (!Processes)
    return;
  // The supervisor-side half of pool observability (the pool itself lives
  // below the metrics layer).
  const pool::PoolStats &S = Processes->stats();
  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  auto Publish = [&](const char *Name, uint64_t Value) {
    if (Value)
      Registry.counter(Name).inc(Value);
  };
  Publish("pool.workers_spawned", S.WorkersSpawned);
  Publish("pool.workers_respawned", S.WorkersRespawned);
  Publish("pool.workers_crashed", S.WorkersCrashed);
  Publish("pool.workers_timed_out", S.WorkersTimedOut);
  Publish("pool.units_dispatched", S.UnitsDispatched);
  Publish("pool.units_redispatched", S.UnitsRedispatched);
  Publish("pool.units_poisoned", S.UnitsPoisoned);
  Publish("pool.backoff_waits", S.BackoffWaits);
  Publish("pool.backoff_ms_total",
          static_cast<uint64_t>(S.BackoffMsTotal + 0.5));
}

std::vector<std::optional<UnitFault>> UnitExecutor::run(
    const std::vector<size_t> &Ids,
    const std::function<void(size_t)> &Local,
    const std::function<std::string(size_t)> &Encode,
    const std::function<void(size_t, const wire::RecordReader &)> &Accept) {
  const size_t N = Ids.size();
  std::vector<std::optional<UnitFault>> Faults(N);

  if (Processes) {
    std::vector<std::string> Requests;
    Requests.reserve(N);
    for (size_t K = 0; K < N; ++K)
      Requests.push_back(Encode(Ids[K]));
    std::vector<pool::UnitOutcome> Outcomes = Processes->run(Requests);
    for (size_t K = 0; K < N; ++K) {
      const pool::UnitOutcome &O = Outcomes[K];
      // 100us .. 10s in decade steps: unit cost spans compile-sized setup
      // amortization at the low end to deadline-bounded units at the top.
      obs::MetricsRegistry::global()
          .histogram("pool.unit_micros",
                     {100, 1000, 10000, 100000, 1000000, 10000000})
          .observe(O.Micros);
      if (!O.Ok) {
        Faults[K] = UnitFault{UnitFault::Kind::Crash, pool::describeCrash(O)};
        continue;
      }
      wire::RecordReader Reply(O.Payload);
      // Merged either way: the worker did the work even when it failed.
      obs::mergeMetricsDelta(Reply);
      if (std::optional<std::string> Fault = Reply.get("fault"))
        Faults[K] = UnitFault{UnitFault::Kind::Internal, *Fault};
      else
        Accept(Ids[K], Reply);
    }
    return Faults;
  }

  // A throwing unit costs its own result, never the round (let alone the
  // process): parallelFor's barrier captures it, on the calling thread at
  // --jobs 1 and on a worker thread at --jobs N alike.
  const bool Fanned = !WorkerSpanNames.empty() && N > 1;
  obs::SpanParent Parent{Fanned ? obs::Span::currentPath() : std::string()};
  std::vector<ItemFailure> Failures =
      parallelFor(N, Workers, [&](size_t K, unsigned W) {
        std::optional<obs::Span> WorkerSpan;
        if (Fanned)
          WorkerSpan.emplace(WorkerSpanNames[W], Parent);
        fault::ScopedUnit Unit(Ids[K]);
        obs::TraceScope Scope(TraceKind, Ids[K]);
        Local(Ids[K]);
      });
  for (ItemFailure &F : Failures)
    Faults[F.Item] = UnitFault{UnitFault::Kind::Internal,
                               describeException(std::move(F.Error))};
  return Faults;
}
