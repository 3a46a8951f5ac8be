//===- runtime/VM.h - Small-step virtual machine ----------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small-step interpreter over the register IR.  Each step of the loop
/// in runToCompletion() executes one instruction of one thread, so a
/// scheduler can interleave threads at the granularity of individual heap
/// accesses — the granularity at which data races manifest.  All heap
/// accesses, monitor transitions and client→library invocations are
/// reported to an ExecutionObserver; that event stream is both the
/// sequential trace Narada analyzes and the multithreaded trace the race
/// detectors consume.
///
/// Faults (null dereference, division by zero, array bounds, monitor misuse)
/// terminate the faulting thread like an uncaught Java exception: its frames
/// unwind and every monitor it holds is released.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_RUNTIME_VM_H
#define NARADA_RUNTIME_VM_H

#include "ir/IR.h"
#include "runtime/Heap.h"
#include "runtime/Value.h"
#include "support/RNG.h"
#include "trace/TraceEvent.h"

#include <optional>
#include <string>
#include <vector>

namespace narada {

class SchedulingPolicy;
struct RunResult;

/// One activation record.
struct Frame {
  const IRFunction *Func = nullptr;
  uint32_t Pc = 0;
  std::vector<Value> Regs;
  Reg RetDst = NoReg;           ///< Caller register receiving the result.
  bool IsClientBoundary = false; ///< Invoked directly from client code.
};

/// Lifecycle states of a VM thread.
enum class ThreadStatus {
  Runnable,
  Blocked,  ///< Waiting on a monitor (WaitingOn).
  Finished,
  Faulted,
};

/// One VM thread: a stack of frames plus scheduling state.
struct ThreadState {
  ThreadId Id = 0;
  std::vector<Frame> Stack;
  ThreadStatus Status = ThreadStatus::Runnable;
  ObjectId WaitingOn = NoObject;
  std::string FaultMessage;

  bool isLive() const {
    return Status == ThreadStatus::Runnable || Status == ThreadStatus::Blocked;
  }
};

/// Summary of the heap access the next instruction of a thread would
/// perform, used by the RaceFuzzer-style active scheduler to pause threads
/// right before a suspected racy access.
struct PendingAccess {
  ObjectId Obj = NoObject;
  const std::string *Field = nullptr; ///< Instr::Member; null for elements.
  unsigned ElemIndex = 0;
  bool IsElem = false;
  bool IsWrite = false;
  const IRFunction *Func = nullptr;
  uint32_t Pc = 0;

  ProgramPoint point() const { return {Func, Pc}; }
};

/// Coarse opcode classes for the instruction-mix profile.  Buckets follow
/// the cost structure of the interpreter loop: register-only arithmetic,
/// heap traffic (the instructions that emit trace events), call/return,
/// monitor transitions, control flow, and thread creation.
enum class InstrClass : unsigned {
  Alu,     ///< Const*/Move/RandInt/UnOp/BinOp.
  Heap,    ///< LoadField/StoreField/NewObject.
  Call,    ///< Invoke/Ret.
  Monitor, ///< MonitorEnter/MonitorExit.
  Branch,  ///< Jump/Branch.
  Thread,  ///< SpawnThread.
};
constexpr unsigned NumInstrClasses = 6;

/// Maps an opcode to its InstrClass bucket.
InstrClass classifyOpcode(Opcode Op);

/// Per-execution counters.  Accumulated in plain fields — the VM is
/// single-OS-threaded — and flushed to the metrics registry once per run by
/// the execution facade, keeping atomics out of the instruction loop.
struct VMStats {
  uint64_t ThreadsSpawned = 0;
  uint64_t MonitorAcquires = 0; ///< Outermost acquisitions (Lock events).
  uint64_t MonitorBlocks = 0;   ///< Transitions into the Blocked state.
  /// Executed instructions per opcode (a blocked MonitorEnter retry counts
  /// each attempt — retries are real interpreter work).  Raw opcodes, not
  /// InstrClass buckets: the interpreter loop pays one indexed increment
  /// and the class aggregation happens once per run at flush time.
  uint64_t InstrByOp[NumOpcodes] = {};

  /// Sums the per-opcode counts into \p C's bucket.
  uint64_t instrClassTotal(InstrClass C) const {
    uint64_t Total = 0;
    for (unsigned Op = 0; Op != NumOpcodes; ++Op)
      if (classifyOpcode(static_cast<Opcode>(Op)) == C)
        Total += InstrByOp[Op];
    return Total;
  }
};

/// The virtual machine.
class VM {
public:
  /// Invocations nested deeper than this fault the thread (the analog of
  /// Java's StackOverflowError); guards against runaway recursion in
  /// analyzed programs.
  static constexpr size_t MaxCallDepth = 2048;

  /// \p RandSeed seeds the 'rand()' value stream so whole executions are
  /// reproducible.
  explicit VM(const IRModule &M, uint64_t RandSeed = 1);

  /// Installs the event observer (may be null to discard events).
  void setObserver(ExecutionObserver *O) { Observer = O; }

  const IRModule &module() const { return M; }
  Heap &heap() { return TheHeap; }
  const Heap &heap() const { return TheHeap; }

  /// Starts a new thread executing \p F — a test body or a spawn closure,
  /// never a method — with \p Args as its parameter registers.  Returns
  /// its id.  \p Parent identifies the spawning thread for happens-before
  /// edges; NoThread marks a root thread started by the harness.
  ThreadId spawnThread(const IRFunction *F, std::vector<Value> Args,
                       ThreadId Parent = NoThread);

  const ThreadState &thread(ThreadId T) const { return Threads[T]; }
  size_t numThreads() const { return Threads.size(); }

  /// True when no thread is live.
  bool allDone() const { return LiveThreads == 0; }

  /// True if every live thread is blocked — a deadlock.
  bool deadlocked() const;

  /// The instruction thread \p T would execute next, or nullptr when done.
  const Instr *nextInstr(ThreadId T) const;

  /// If the next instruction of \p T is a heap access, describes it.
  std::optional<PendingAccess> peekAccess(ThreadId T) const;

  /// Allocates an object of class \p ClassName directly (used by harness
  /// code when staging receivers without running MiniJava code).
  ObjectId allocateObject(const std::string &ClassName);

  /// Monitors currently held by thread \p T.
  std::vector<ObjectId> heldMonitors(ThreadId T) const;

  /// Counters accumulated over this VM's lifetime.
  const VMStats &stats() const { return Stats; }

  /// Where the step loop stands: the steps run since the test started,
  /// the context switches among them (any change of thread between two
  /// consecutive picks, yields included), and the thread picked last.
  struct Position {
    uint64_t Steps = 0;
    uint64_t ContextSwitches = 0;
    ThreadId LastPick = NoThread;
  };

  /// The loop reads its steps and last pick on entry and writes them back
  /// on return, never per step (it counts a context switch in place).  So
  /// a copy of the VM taken inside SchedulingPolicy::pick() does not hold
  /// the position of the pick: the copy's owner sets it with
  /// setPosition(), and running the copy then continues that run from
  /// the pick.
  const Position &position() const { return Pos; }
  void setPosition(const Position &P) { Pos = P; }

private:
  friend RunResult runToCompletion(VM &M, SchedulingPolicy &Policy,
                                   uint64_t MaxSteps);

  /// The step loop behind runToCompletion(): picks a thread, then
  /// dispatches its next instruction through one switch.  A blocked
  /// thread retries its monitor acquisition.  Runs from position() until
  /// the threads end, they deadlock, or position().Steps reaches
  /// \p MaxSteps, and sets \p Result's Steps to that total.
  void run(SchedulingPolicy &Policy, uint64_t MaxSteps, RunResult &Result);

  // The step loop's out-of-line paths: calls, builtins, returns, monitor
  // blocking, spawns and faults.
  void invoke(ThreadState &T, Frame &F, const Instr &I);
  void execBuiltinInvoke(ThreadState &T, Frame &F, const Instr &I);
  void doReturn(ThreadState &T, Value RetVal);
  void blockOn(ThreadState &T, ObjectId Lock);
  void spawnFrom(ThreadState &T, Frame &F, const Instr &I);
  void faultNull(ThreadState &T, const Frame &F, const char *What,
                 const std::string *Member);
  void faultAt(ThreadState &T, const Frame &F, const char *What);
  void fault(ThreadState &T, const std::string &Message);
  void rescanRunnable();
  void emit(const TraceEvent &Event) {
    if (Observer)
      Observer->onEvent(Event);
  }
  uint64_t nextLabel() { return ++LabelCounter; }

  /// An event of thread \p Tid at frame \p F's current instruction.
  TraceEvent eventAt(EventKind Kind, ThreadId Tid, const Frame &F) {
    TraceEvent E;
    E.Kind = Kind;
    E.Label = nextLabel();
    E.Thread = Tid;
    E.Func = F.Func;
    E.Pc = F.Pc;
    return E;
  }
  /// An event of thread \p T at its top frame, or at no point when its
  /// stack is empty.
  TraceEvent makeEvent(EventKind Kind, const ThreadState &T);

  const IRModule &M;
  Heap TheHeap;
  std::vector<ThreadState> Threads;
  /// The threads that can make progress now, in id order: Runnable ones
  /// plus Blocked ones whose awaited monitor is free or their own.  The
  /// list is kept between steps and rescanned only after a step that can
  /// change it: a spawn, a thread finishing or faulting (a fault releases
  /// monitors), or any monitor enter or exit.
  std::vector<ThreadId> Runnable;
  bool RunnableStale = false;
  size_t LiveThreads = 0;
  ExecutionObserver *Observer = nullptr;
  RNG Rand;
  uint64_t LabelCounter = 0;
  VMStats Stats;
  Position Pos;
};

} // namespace narada

#endif // NARADA_RUNTIME_VM_H
