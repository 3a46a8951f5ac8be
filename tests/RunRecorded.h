//===- tests/RunRecorded.h - runTest with a trace recorder ------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// runTest() records no trace.  Tests that inspect the events of a
// scheduled run attach a TraceRecorder through runRecorded(), which files
// the recorded events into TestRun::TheTrace.
//
//===----------------------------------------------------------------------===//

#ifndef NARADA_TESTS_RUNRECORDED_H
#define NARADA_TESTS_RUNRECORDED_H

#include "runtime/Execution.h"

#include <string>
#include <utility>

namespace narada {

/// runTest() with a TraceRecorder attached next to \p Extra.
inline Result<TestRun> runRecorded(const IRModule &M, const std::string &Name,
                                   SchedulingPolicy &Policy,
                                   uint64_t RandSeed = 1,
                                   ExecutionObserver *Extra = nullptr) {
  Trace Recorded;
  TraceRecorder Recorder(Recorded);
  ObserverMux Mux;
  Mux.add(&Recorder);
  if (Extra)
    Mux.add(Extra);
  Result<TestRun> Run = runTest(M, Name, Policy, RandSeed, &Mux);
  if (Run)
    Run->TheTrace = std::move(Recorded);
  return Run;
}

} // namespace narada

#endif // NARADA_TESTS_RUNRECORDED_H
