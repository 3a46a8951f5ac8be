//===- runtime/Execution.cpp - Compile-and-run facade -------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "runtime/Execution.h"

#include "ir/Lowering.h"
#include "ir/Verifier.h"
#include "lang/Parser.h"
#include "obs/Metrics.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

using namespace narada;

Result<CompiledProgram> narada::compileProgram(std::string_view Source) {
  Result<std::unique_ptr<Program>> Prog = Parser::parse(Source);
  if (!Prog)
    return Prog.error();
  CompiledProgram Out;
  Out.Ast = Prog.take();

  Result<std::shared_ptr<ProgramInfo>> Info = analyze(*Out.Ast);
  if (!Info)
    return Info.error();
  Out.Info = Info.take();

  Result<std::shared_ptr<IRModule>> Module = lower(*Out.Ast, Out.Info);
  if (!Module)
    return Module.error();
  Out.Module = Module.take();

  if (Status V = verifyModule(*Out.Module); !V)
    return V.error();
  return Out;
}

Status narada::compileTestsInto(CompiledProgram &Library,
                                std::string_view TestSource) {
  Result<std::unique_ptr<Program>> Parsed = Parser::parse(TestSource);
  if (!Parsed)
    return Parsed.error();
  std::unique_ptr<Program> Tests = Parsed.take();
  if (!Tests->Classes.empty())
    return Error("expected only tests, found a class",
                 Tests->Classes.front()->Loc.str());
  for (const auto &Test : Tests->Tests)
    if (Library.Module->findTest(Test->Name))
      return Error(formatString("duplicate test '%s'", Test->Name.c_str()),
                   Test->Loc.str());
  if (Status Checked = analyzeTests(Tests->Tests, *Library.Info); !Checked)
    return Checked;
  for (const std::unique_ptr<TestDecl> &Test : Tests->Tests) {
    Result<const IRFunction *> Lowered = lowerTestInto(*Library.Module, *Test);
    if (!Lowered)
      return Lowered.error();
  }
  return Status::success();
}

Result<TestRun> narada::runTest(const IRModule &M,
                                const std::string &TestName,
                                SchedulingPolicy &Policy, uint64_t RandSeed,
                                ExecutionObserver *Extra,
                                uint64_t MaxSteps) {
  Result<VM> Machine = startTest(M, TestName, RandSeed, Extra);
  if (!Machine)
    return Machine.error();
  TestRun Run;
  Run.Result = runToEnd(*Machine, Policy, Extra, MaxSteps);
  Run.HeapHash = Machine->heap().stateHash();
  return Run;
}

Result<VM> narada::startTest(const IRModule &M, const std::string &TestName,
                             uint64_t RandSeed, ExecutionObserver *Observer) {
  const IRFunction *Test = M.findTest(TestName);
  if (!Test)
    return Error(formatString("no such test '%s'", TestName.c_str()));
  VM Machine(M, RandSeed);
  Machine.setObserver(Observer);
  Machine.spawnThread(Test, {});
  return Machine;
}

RunResult narada::runToEnd(VM &Machine, SchedulingPolicy &Policy,
                           ExecutionObserver *Observer, uint64_t MaxSteps) {
  // Injection point for the containment sweep: only fires inside a
  // fault::ScopedUnit (the detection stage's per-test scope) — seed
  // executions during analysis run unscoped and are never injected.
  fault::probe("runtime.run_test");

  Machine.setObserver(Observer);
  RunResult Result = runToCompletion(Machine, Policy, MaxSteps);

  const VMStats &Stats = Machine.stats();
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Metrics.counter("runtime.threads_spawned").inc(Stats.ThreadsSpawned);
  Metrics.counter("runtime.monitor_acquires").inc(Stats.MonitorAcquires);
  Metrics.counter("runtime.monitor_blocks").inc(Stats.MonitorBlocks);
  if (uint64_t Objects =
          Stats.InstrByOp[static_cast<unsigned>(Opcode::NewObject)])
    Metrics.counter("runtime.heap_objects").inc(Objects);
  // Instruction-mix profile: one counter per InstrClass bucket, in enum
  // order.  The names are part of the pinned bench trajectory — keep them
  // in sync with docs/OBSERVABILITY.md.
  static const char *const InstrCounterNames[NumInstrClasses] = {
      "vm.instr.alu",    "vm.instr.heap",   "vm.instr.call",
      "vm.instr.monitor", "vm.instr.branch", "vm.instr.thread"};
  for (unsigned C = 0; C != NumInstrClasses; ++C)
    if (uint64_t Total = Stats.instrClassTotal(static_cast<InstrClass>(C)))
      Metrics.counter(InstrCounterNames[C]).inc(Total);
  return Result;
}

Result<TestRun> narada::runTestSequential(const IRModule &M,
                                          const std::string &TestName,
                                          uint64_t RandSeed) {
  RoundRobinPolicy Policy;
  Trace Recorded;
  TraceRecorder Recorder(Recorded);
  Result<TestRun> Run = runTest(M, TestName, Policy, RandSeed, &Recorder);
  if (Run)
    Run->TheTrace = std::move(Recorded);
  return Run;
}
