//===- runtime/VM.cpp - Small-step virtual machine ----------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "runtime/VM.h"

#include "support/StringUtils.h"

using namespace narada;

VM::VM(const IRModule &M, uint64_t RandSeed) : M(M), Rand(RandSeed) {}

TraceEvent VM::makeEvent(EventKind Kind, const ThreadState &T) {
  TraceEvent E;
  E.Kind = Kind;
  E.Label = nextLabel();
  E.Thread = T.Id;
  if (!T.Stack.empty()) {
    E.Func = T.Stack.back().Func;
    E.Pc = T.Stack.back().Pc;
  }
  return E;
}

void VM::emit(const TraceEvent &Event) {
  if (Observer)
    Observer->onEvent(Event);
}

ThreadId VM::spawnThread(const IRFunction *F, std::vector<Value> Args,
                         ThreadId Parent) {
  assert(F && "spawning a thread without code");
  assert(F->kind() != IRFunction::Kind::Method &&
         "thread roots are tests or spawn closures, which are client code");
  assert(Args.size() == F->numParams() && "argument count mismatch");

  ThreadState T;
  T.Id = static_cast<ThreadId>(Threads.size());

  Frame Entry;
  Entry.Func = F;
  Entry.Regs.resize(F->numRegs());
  for (size_t I = 0, E = Args.size(); I != E; ++I)
    Entry.Regs[I] = Args[I];
  T.Stack.push_back(std::move(Entry));

  Threads.push_back(std::move(T));
  ++Stats.ThreadsSpawned;
  ThreadState &Created = Threads.back();

  TraceEvent Start = makeEvent(EventKind::ThreadStart, Created);
  Start.ParentThread = Parent;
  emit(Start);
  return Created.Id;
}

void VM::runnableThreads(std::vector<ThreadId> &Out) const {
  Out.clear();
  for (const ThreadState &T : Threads) {
    if (T.Status == ThreadStatus::Runnable) {
      Out.push_back(T.Id);
      continue;
    }
    if (T.Status == ThreadStatus::Blocked) {
      const HeapObject &Obj = TheHeap.object(T.WaitingOn);
      if (Obj.MonitorOwner == NoThread || Obj.MonitorOwner == T.Id)
        Out.push_back(T.Id);
    }
  }
}

bool VM::allDone() const {
  for (const ThreadState &T : Threads)
    if (T.isLive())
      return false;
  return true;
}

bool VM::deadlocked() const {
  bool AnyLive = false;
  for (const ThreadState &T : Threads) {
    if (!T.isLive())
      continue;
    AnyLive = true;
    if (T.Status == ThreadStatus::Runnable)
      return false;
    const HeapObject &Obj = TheHeap.object(T.WaitingOn);
    if (Obj.MonitorOwner == NoThread || Obj.MonitorOwner == T.Id)
      return false;
  }
  return AnyLive;
}

const Instr *VM::nextInstr(ThreadId Tid) const {
  const ThreadState &T = Threads[Tid];
  if (!T.isLive() || T.Stack.empty())
    return nullptr;
  const Frame &F = T.Stack.back();
  if (F.Pc >= F.Func->instrs().size())
    return nullptr;
  return &F.Func->instrs()[F.Pc];
}

std::optional<PendingAccess> VM::peekAccess(ThreadId Tid) const {
  const Instr *I = nextInstr(Tid);
  if (!I)
    return std::nullopt;
  const Frame &F = Threads[Tid].Stack.back();

  PendingAccess Out;
  Out.Func = F.Func;
  Out.Pc = F.Pc;
  switch (I->Op) {
  case Opcode::LoadField:
  case Opcode::StoreField: {
    const Value &Base = F.Regs[I->A];
    if (!Base.isRef())
      return std::nullopt;
    Out.Obj = Base.asRef();
    Out.Field = &I->Member;
    Out.IsWrite = I->Op == Opcode::StoreField;
    return Out;
  }
  case Opcode::Invoke: {
    // Builtin array accesses surface as element accesses.
    if (I->Callee)
      return std::nullopt;
    const Value &Base = F.Regs[I->A];
    if (!Base.isRef())
      return std::nullopt;
    if (I->Member != "get" && I->Member != "set")
      return std::nullopt;
    const Value &Index = F.Regs[I->Args[0]];
    if (!Index.isInt())
      return std::nullopt;
    Out.Obj = Base.asRef();
    Out.IsElem = true;
    Out.ElemIndex = static_cast<unsigned>(Index.asInt());
    Out.IsWrite = I->Member == "set";
    return Out;
  }
  default:
    return std::nullopt;
  }
}

ObjectId VM::allocateObject(const std::string &ClassName) {
  const ClassInfo *Class = M.programInfo().findClass(ClassName);
  assert(Class && "allocating an unknown class");
  ObjectId Id = Class->IsBuiltin ? TheHeap.allocateArray(Class, 0)
                                 : TheHeap.allocate(Class);
  return Id;
}

std::vector<ObjectId> VM::heldMonitors(ThreadId Tid) const {
  std::vector<ObjectId> Out;
  for (ObjectId Id = 1; Id <= TheHeap.size(); ++Id)
    if (TheHeap.object(Id).MonitorOwner == Tid)
      Out.push_back(Id);
  return Out;
}

void VM::fault(ThreadState &T, const std::string &Message) {
  // Release every monitor the thread holds: its frames unwind as if an
  // exception propagated out of all synchronized regions.
  for (ObjectId Id = 1; Id <= TheHeap.size(); ++Id) {
    HeapObject &Obj = TheHeap.object(Id);
    if (Obj.MonitorOwner == T.Id) {
      Obj.MonitorOwner = NoThread;
      Obj.MonitorDepth = 0;
      TraceEvent E = makeEvent(EventKind::Unlock, T);
      E.Obj = Id;
      emit(E);
    }
  }
  TraceEvent E = makeEvent(EventKind::Fault, T);
  E.Message = &Message;
  emit(E);
  T.Status = ThreadStatus::Faulted;
  T.FaultMessage = Message;
  T.Stack.clear();
}

void VM::doReturn(ThreadState &T, Value RetVal) {
  Frame Done = std::move(T.Stack.back());
  T.Stack.pop_back();

  if (Done.IsClientBoundary) {
    TraceEvent E = makeEvent(EventKind::ClientCallEnd, T);
    E.Func = Done.Func;
    E.Val = RetVal;
    emit(E);
  }

  if (T.Stack.empty()) {
    emit(makeEvent(EventKind::ThreadEnd, T));
    T.Status = ThreadStatus::Finished;
    return;
  }
  Frame &Caller = T.Stack.back();
  if (Done.RetDst != NoReg)
    Caller.Regs[Done.RetDst] = RetVal;
}

void VM::step(ThreadId Tid) {
  ThreadState &T = Threads[Tid];
  assert(T.isLive() && "stepping a dead thread");
  assert(!T.Stack.empty() && "live thread with empty stack");

  Frame &F = T.Stack.back();
  assert(F.Pc < F.Func->instrs().size() && "pc ran past function end");
  const Instr &I = F.Func->instrs()[F.Pc];
  execInstr(T, F, I);
}

InstrClass narada::classifyOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::ConstInt:
  case Opcode::ConstBool:
  case Opcode::ConstNull:
  case Opcode::Move:
  case Opcode::RandInt:
  case Opcode::UnOp:
  case Opcode::BinOp:
    return InstrClass::Alu;
  case Opcode::LoadField:
  case Opcode::StoreField:
  case Opcode::NewObject:
    return InstrClass::Heap;
  case Opcode::Invoke:
  case Opcode::Ret:
    return InstrClass::Call;
  case Opcode::MonitorEnter:
  case Opcode::MonitorExit:
    return InstrClass::Monitor;
  case Opcode::Jump:
  case Opcode::Branch:
    return InstrClass::Branch;
  case Opcode::SpawnThread:
    return InstrClass::Thread;
  }
  narada_unreachable("unknown opcode");
}

void VM::execInstr(ThreadState &T, Frame &F, const Instr &I) {
  ++Stats.InstrByOp[static_cast<unsigned>(I.Op)];

  // Runs on every field access and call: the message is built only when
  // the check fails.
  auto NullCheck = [&](const Value &V, const char *What,
                       const std::string *Member = nullptr) -> bool {
    if (V.isRef())
      return true;
    std::string Subject =
        Member ? formatString("%s '%s'", What, Member->c_str()) : What;
    fault(T, formatString("null dereference: %s at %s:%u", Subject.c_str(),
                          F.Func->name().c_str(), F.Pc));
    return false;
  };

  switch (I.Op) {
  case Opcode::ConstInt:
    F.Regs[I.Dst] = Value::makeInt(I.Imm);
    ++F.Pc;
    return;
  case Opcode::ConstBool:
    F.Regs[I.Dst] = Value::makeBool(I.Imm != 0);
    ++F.Pc;
    return;
  case Opcode::ConstNull:
    F.Regs[I.Dst] = Value::makeNull();
    ++F.Pc;
    return;
  case Opcode::Move:
    F.Regs[I.Dst] = F.Regs[I.A];
    ++F.Pc;
    return;
  case Opcode::RandInt:
    F.Regs[I.Dst] = Value::makeInt(
        static_cast<int64_t>(Rand.nextBelow(1u << 30)));
    ++F.Pc;
    return;

  case Opcode::UnOp: {
    const Value &A = F.Regs[I.A];
    if (I.UnaryOperator == UnaryOp::Neg)
      F.Regs[I.Dst] = Value::makeInt(-A.asInt());
    else
      F.Regs[I.Dst] = Value::makeBool(!A.asBool());
    ++F.Pc;
    return;
  }

  case Opcode::BinOp: {
    const Value &A = F.Regs[I.A];
    const Value &B = F.Regs[I.B];
    switch (I.BinaryOperator) {
    case BinaryOp::Add:
      F.Regs[I.Dst] = Value::makeInt(A.asInt() + B.asInt());
      break;
    case BinaryOp::Sub:
      F.Regs[I.Dst] = Value::makeInt(A.asInt() - B.asInt());
      break;
    case BinaryOp::Mul:
      F.Regs[I.Dst] = Value::makeInt(A.asInt() * B.asInt());
      break;
    case BinaryOp::Div:
      if (B.asInt() == 0) {
        fault(T, formatString("division by zero at %s:%u",
                              F.Func->name().c_str(), F.Pc));
        return;
      }
      F.Regs[I.Dst] = Value::makeInt(A.asInt() / B.asInt());
      break;
    case BinaryOp::Rem:
      if (B.asInt() == 0) {
        fault(T, formatString("division by zero at %s:%u",
                              F.Func->name().c_str(), F.Pc));
        return;
      }
      F.Regs[I.Dst] = Value::makeInt(A.asInt() % B.asInt());
      break;
    case BinaryOp::Eq:
      F.Regs[I.Dst] = Value::makeBool(A == B);
      break;
    case BinaryOp::Ne:
      F.Regs[I.Dst] = Value::makeBool(A != B);
      break;
    case BinaryOp::Lt:
      F.Regs[I.Dst] = Value::makeBool(A.asInt() < B.asInt());
      break;
    case BinaryOp::Le:
      F.Regs[I.Dst] = Value::makeBool(A.asInt() <= B.asInt());
      break;
    case BinaryOp::Gt:
      F.Regs[I.Dst] = Value::makeBool(A.asInt() > B.asInt());
      break;
    case BinaryOp::Ge:
      F.Regs[I.Dst] = Value::makeBool(A.asInt() >= B.asInt());
      break;
    case BinaryOp::And:
      F.Regs[I.Dst] = Value::makeBool(A.asBool() && B.asBool());
      break;
    case BinaryOp::Or:
      F.Regs[I.Dst] = Value::makeBool(A.asBool() || B.asBool());
      break;
    }
    ++F.Pc;
    return;
  }

  case Opcode::LoadField: {
    const Value &Base = F.Regs[I.A];
    if (!NullCheck(Base, "read of field", &I.Member))
      return;
    HeapObject &Obj = TheHeap.object(Base.asRef());
    assert(I.FieldIndex < Obj.Fields.size() && "field index out of layout");
    Value Read = Obj.Fields[I.FieldIndex];
    F.Regs[I.Dst] = Read;

    TraceEvent E = makeEvent(EventKind::ReadField, T);
    E.Obj = Base.asRef();
    E.ClassName = &Obj.Class->Name;
    E.Member = &I.Member;
    E.FieldIndex = I.FieldIndex;
    E.Val = Read;
    emit(E);
    ++F.Pc;
    return;
  }

  case Opcode::StoreField: {
    const Value &Base = F.Regs[I.A];
    if (!NullCheck(Base, "write of field", &I.Member))
      return;
    HeapObject &Obj = TheHeap.object(Base.asRef());
    assert(I.FieldIndex < Obj.Fields.size() && "field index out of layout");
    Value NewVal = F.Regs[I.B];
    Obj.Fields[I.FieldIndex] = NewVal;

    TraceEvent E = makeEvent(EventKind::WriteField, T);
    E.Obj = Base.asRef();
    E.ClassName = &Obj.Class->Name;
    E.Member = &I.Member;
    E.FieldIndex = I.FieldIndex;
    E.Val = NewVal;
    emit(E);
    ++F.Pc;
    return;
  }

  case Opcode::NewObject: {
    const ClassInfo *Class = M.programInfo().findClass(I.ClassName);
    assert(Class && "lowering validated the class");
    ObjectId Id = Class->IsBuiltin ? TheHeap.allocateArray(Class, 0)
                                   : TheHeap.allocate(Class);
    F.Regs[I.Dst] = Value::makeRef(Id);

    TraceEvent E = makeEvent(EventKind::Alloc, T);
    E.Obj = Id;
    E.ClassName = &Class->Name;
    emit(E);
    ++F.Pc;
    return;
  }

  case Opcode::Invoke: {
    const Value &Receiver = F.Regs[I.A];
    if (!NullCheck(Receiver, "call of", &I.Member))
      return;
    if (!I.Callee) {
      execBuiltinInvoke(T, F, I);
      return;
    }

    // The callee's parameter registers double as the ClientCall's
    // argument list: receiver first, then the arguments.
    Frame Callee;
    Callee.Func = I.Callee;
    Callee.Regs.resize(I.Callee->numRegs());
    Callee.Regs[0] = Receiver;
    for (size_t ArgIdx = 0; ArgIdx != I.Args.size(); ++ArgIdx)
      Callee.Regs[ArgIdx + 1] = F.Regs[I.Args[ArgIdx]];
    Callee.RetDst = I.Dst;
    Callee.IsClientBoundary = F.Func->kind() != IRFunction::Kind::Method;

    if (Callee.IsClientBoundary) {
      TraceEvent E = makeEvent(EventKind::ClientCall, T);
      E.Member = &I.Member;
      E.ClassName = &I.ClassName;
      E.Receiver = Receiver.asRef();
      E.Args = Callee.Regs.data();
      E.NumArgs = static_cast<uint32_t>(I.Args.size() + 1);
      emit(E);
    }

    ++F.Pc; // Resume after the call upon return.

    if (T.Stack.size() >= MaxCallDepth) {
      fault(T, formatString("call stack overflow (depth %zu) invoking "
                            "'%s.%s'",
                            T.Stack.size(), I.ClassName.c_str(),
                            I.Member.c_str()));
      return;
    }
    T.Stack.push_back(std::move(Callee));
    return;
  }

  case Opcode::MonitorEnter: {
    const Value &LockVal = F.Regs[I.A];
    if (!NullCheck(LockVal, "monitor enter"))
      return;
    HeapObject &Obj = TheHeap.object(LockVal.asRef());
    if (Obj.MonitorOwner != NoThread && Obj.MonitorOwner != T.Id) {
      if (T.Status != ThreadStatus::Blocked)
        ++Stats.MonitorBlocks;
      T.Status = ThreadStatus::Blocked;
      T.WaitingOn = LockVal.asRef();
      return; // Pc unchanged: the acquisition is retried when scheduled.
    }
    T.Status = ThreadStatus::Runnable;
    T.WaitingOn = NoObject;
    Obj.MonitorOwner = T.Id;
    if (++Obj.MonitorDepth == 1) {
      ++Stats.MonitorAcquires;
      TraceEvent E = makeEvent(EventKind::Lock, T);
      E.Obj = LockVal.asRef();
      emit(E);
    }
    ++F.Pc;
    return;
  }

  case Opcode::MonitorExit: {
    const Value &LockVal = F.Regs[I.A];
    if (!NullCheck(LockVal, "monitor exit"))
      return;
    HeapObject &Obj = TheHeap.object(LockVal.asRef());
    if (Obj.MonitorOwner != T.Id) {
      fault(T, formatString("monitor exit without ownership at %s:%u",
                            F.Func->name().c_str(), F.Pc));
      return;
    }
    if (--Obj.MonitorDepth == 0) {
      Obj.MonitorOwner = NoThread;
      TraceEvent E = makeEvent(EventKind::Unlock, T);
      E.Obj = LockVal.asRef();
      emit(E);
    }
    ++F.Pc;
    return;
  }

  case Opcode::Jump:
    F.Pc = I.Target;
    return;

  case Opcode::Branch:
    if (!F.Regs[I.A].asBool())
      F.Pc = I.Target;
    else
      ++F.Pc;
    return;

  case Opcode::Ret: {
    Value RetVal = I.A == NoReg ? Value::makeNull() : F.Regs[I.A];
    doReturn(T, RetVal);
    return;
  }

  case Opcode::SpawnThread: {
    std::vector<Value> Args;
    for (Reg R : I.Args)
      Args.push_back(F.Regs[R]);
    ++F.Pc;
    spawnThread(I.Callee, std::move(Args), T.Id);
    return;
  }
  }
  narada_unreachable("unknown opcode");
}

void VM::execBuiltinInvoke(ThreadState &T, Frame &F, const Instr &I) {
  const Value &Receiver = F.Regs[I.A];
  HeapObject &Obj = TheHeap.object(Receiver.asRef());
  assert(Obj.Class && Obj.Class->IsBuiltin && "builtin call on user object");

  auto BoundsCheck = [&](int64_t Index) -> bool {
    if (Index >= 0 && static_cast<size_t>(Index) < Obj.Elems.size())
      return true;
    fault(T, formatString("array index %lld out of bounds (size %zu) at "
                          "%s:%u",
                          static_cast<long long>(Index), Obj.Elems.size(),
                          F.Func->name().c_str(), F.Pc));
    return false;
  };

  if (I.Member == ConstructorName) {
    int64_t Size = F.Regs[I.Args[0]].asInt();
    if (Size < 0) {
      fault(T, formatString("negative array size %lld at %s:%u",
                            static_cast<long long>(Size),
                            F.Func->name().c_str(), F.Pc));
      return;
    }
    Obj.Elems.assign(static_cast<size_t>(Size), 0);
    ++F.Pc;
    return;
  }

  if (I.Member == "get") {
    int64_t Index = F.Regs[I.Args[0]].asInt();
    if (!BoundsCheck(Index))
      return;
    int64_t Read = Obj.Elems[static_cast<size_t>(Index)];
    F.Regs[I.Dst] = Value::makeInt(Read);

    TraceEvent E = makeEvent(EventKind::ReadElem, T);
    E.Obj = Receiver.asRef();
    E.ClassName = &Obj.Class->Name;
    E.FieldIndex = static_cast<unsigned>(Index);
    E.Val = Value::makeInt(Read);
    emit(E);
    ++F.Pc;
    return;
  }

  if (I.Member == "set") {
    int64_t Index = F.Regs[I.Args[0]].asInt();
    if (!BoundsCheck(Index))
      return;
    int64_t NewVal = F.Regs[I.Args[1]].asInt();
    Obj.Elems[static_cast<size_t>(Index)] = NewVal;

    TraceEvent E = makeEvent(EventKind::WriteElem, T);
    E.Obj = Receiver.asRef();
    E.ClassName = &Obj.Class->Name;
    E.FieldIndex = static_cast<unsigned>(Index);
    E.Val = Value::makeInt(NewVal);
    emit(E);
    ++F.Pc;
    return;
  }

  if (I.Member == "length") {
    F.Regs[I.Dst] = Value::makeInt(static_cast<int64_t>(Obj.Elems.size()));
    ++F.Pc;
    return;
  }

  narada_unreachable("unknown builtin method");
}
