//===- runtime/Execution.h - Compile-and-run facade -------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience entry points tying the front end, IR and VM together:
/// compile MiniJava source, run a test under a scheduling policy, and get
/// back its outcome.  Used by the Narada pipeline, the detectors, the
/// examples and the benchmark harness.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_RUNTIME_EXECUTION_H
#define NARADA_RUNTIME_EXECUTION_H

#include "ir/IR.h"
#include "lang/AST.h"
#include "lang/Sema.h"
#include "runtime/Scheduler.h"
#include "runtime/VM.h"
#include "support/Error.h"
#include "trace/Trace.h"

#include <memory>
#include <string>
#include <string_view>

namespace narada {

/// Everything produced by compiling one MiniJava source buffer.
struct CompiledProgram {
  std::unique_ptr<Program> Ast;
  std::shared_ptr<ProgramInfo> Info;
  std::shared_ptr<IRModule> Module;
};

/// Lex + parse + check + lower + verify \p Source.
Result<CompiledProgram> compileProgram(std::string_view Source);

/// Adds the tests of \p TestSource, a text of tests only, to the module of
/// the compiled \p Library without compiling the library again: parses the
/// text, checks it against Library.Info (analyzeTests), and lowers and
/// verifies each test into Library.Module (lowerTestInto), whose IR then
/// equals that of compiling the library and the tests as one source.  The
/// names must be new to the module.  The tests' ASTs are dropped once
/// lowered (the IR keeps no reference to them), so Library.Ast still holds
/// the library's source alone.  On a parse or check error \p Library is
/// unchanged.  Nothing may run on the module while tests are added.
Status compileTestsInto(CompiledProgram &Library, std::string_view TestSource);

/// The outcome of one test execution.
struct TestRun {
  /// Filled by runTestSequential() only: the runs whose trace an analysis
  /// reads.  Every other run records nothing.
  Trace TheTrace;
  RunResult Result;
  uint64_t HeapHash = 0; ///< Heap state hash after the run.
};

/// Runs test \p TestName under \p Policy, recording no trace: \p Extra,
/// if non-null, observes every event, and a caller that wants TheTrace
/// passes a TraceRecorder there (via an ObserverMux next to a detector).
/// \p RandSeed seeds the VM's rand() stream.  startTest() plus runToEnd(),
/// and then the final heap's hash.
Result<TestRun> runTest(const IRModule &M, const std::string &TestName,
                        SchedulingPolicy &Policy, uint64_t RandSeed = 1,
                        ExecutionObserver *Extra = nullptr,
                        uint64_t MaxSteps = 1'000'000);

/// Test \p TestName's VM before its first step: its main thread started,
/// which \p Observer (may be null) sees.  \p RandSeed seeds rand().
Result<VM> startTest(const IRModule &M, const std::string &TestName,
                     uint64_t RandSeed = 1,
                     ExecutionObserver *Observer = nullptr);

/// Runs \p Machine to the end under \p Policy, with \p Observer (may be
/// null) seeing every event from here on, and flushes the run's counters
/// (runtime.*, vm.instr.*).  \p Machine is a startTest() VM or a copy of
/// one taken mid-run (VM::position()).  Such a copy carries its run's
/// counts so far, so the counters, the result's Steps and \p MaxSteps all
/// count the whole run from the test's first step.  Hashes no heap.
RunResult runToEnd(VM &Machine, SchedulingPolicy &Policy,
                   ExecutionObserver *Observer, uint64_t MaxSteps);

/// Runs test \p TestName under RoundRobinPolicy (program order for
/// sequential tests), recording every event into TheTrace: the sequential
/// seed traces the Narada analysis consumes, and `narada-cli trace`.  A
/// caller that needs only the outcome calls runTest() with no observer.
Result<TestRun> runTestSequential(const IRModule &M,
                                  const std::string &TestName,
                                  uint64_t RandSeed = 1);

} // namespace narada

#endif // NARADA_RUNTIME_EXECUTION_H
