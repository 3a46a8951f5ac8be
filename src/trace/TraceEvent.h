//===- trace/TraceEvent.h - Execution trace events --------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic execution events the VM emits.  A sequential seed-test trace
/// is the input to the Narada access analysis (Fig. 7/9); a multithreaded
/// synthesized-test trace is the input to the race detectors.  Every event
/// carries a globally unique label (its dynamic execution index, cf. the
/// paper's §3.1) and the static program point (function, pc) it came from.
///
/// Lifetime contract: a TraceEvent is a trivially copyable record that owns
/// nothing.  Its class, field and method names point into the IRModule the
/// VM runs (ClassInfo::Name, Instr::ClassName, Instr::Member) and live as
/// long as that module.  ClientCall arguments and the Fault message point
/// into VM state and live only for the duration of onEvent(); an observer
/// that keeps them past that call copies them, as Trace::append does.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_TRACE_TRACEEVENT_H
#define NARADA_TRACE_TRACEEVENT_H

#include "ir/IR.h"
#include "runtime/Heap.h"
#include "runtime/Value.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace narada {

/// The kinds of events a VM execution produces.
enum class EventKind : uint8_t {
  Alloc,         ///< A new object was allocated.
  ReadField,     ///< Obj.Field was read.
  WriteField,    ///< Obj.Field was written.
  ReadElem,      ///< Array element Obj[Index] was read.
  WriteElem,     ///< Array element Obj[Index] was written.
  Lock,          ///< Monitor of Obj acquired (outermost entry only).
  Unlock,        ///< Monitor of Obj released (outermost exit only).
  ClientCall,    ///< A client (test/spawn) frame invoked a library method.
  ClientCallEnd, ///< That invocation returned to the client.
  ThreadStart,   ///< A thread began execution.
  ThreadEnd,     ///< A thread ran to completion.
  Fault,         ///< The thread died (null deref, div by zero, OOB, ...).
};

/// Returns a short mnemonic for \p Kind.
const char *eventKindName(EventKind Kind);

/// A static program point.  Detectors keep points on the per-event path
/// and render the label only when a report is built.
struct ProgramPoint {
  const IRFunction *Func = nullptr;
  uint32_t Pc = 0;

  /// "Class.method:pc", or "<unknown>" without a function.
  std::string label() const;
  bool operator==(const ProgramPoint &O) const = default;
};

/// A static label parsed once, so hot paths match program points without
/// rendering a label per event.  Anything label() cannot produce for a
/// function matches nothing.
class LabelMatcher {
public:
  explicit LabelMatcher(std::string_view Label);
  /// Compares the pc first, the function name only on a pc hit.
  bool matches(const IRFunction *Func, uint32_t Pc) const {
    return Valid && Pc == this->Pc && Func && Func->name() == FuncName;
  }

private:
  std::string FuncName;
  uint32_t Pc = 0;
  bool Valid = false;
};

/// One dynamic event.  Borrowed fields follow the lifetime contract in the
/// file comment; unset names are null.
struct TraceEvent {
  uint64_t Label = 0;       ///< Dynamic execution index, globally unique.
  const IRFunction *Func = nullptr; ///< Static program point (with Pc).
  /// Dynamic class of Obj (Alloc, accesses) or the static receiver class
  /// of a ClientCall.
  const std::string *ClassName = nullptr;
  /// Field name of a field access, or the invoked method of a ClientCall
  /// (both are the instruction's Instr::Member).
  const std::string *Member = nullptr;
  const Value *Args = nullptr; ///< ClientCall arguments, receiver first.
  const std::string *Message = nullptr; ///< Fault description.
  Value Val;                ///< Value read / written / returned.
  ThreadId Thread = 0;
  uint32_t Pc = 0;
  ObjectId Obj = NoObject;  ///< Accessed / locked / allocated object.
  unsigned FieldIndex = 0;  ///< Field slot, or element index for Read/WriteElem.
  ObjectId Receiver = NoObject; ///< ClientCall receiver (Args[0]).
  uint32_t NumArgs = 0;
  /// For ThreadStart: the spawning thread (NoThread for root threads).
  /// Gives happens-before detectors the parent->child edge.
  ThreadId ParentThread = NoThread;
  EventKind Kind = EventKind::Alloc;

  /// True for the four heap-access kinds.
  bool isAccess() const {
    return Kind == EventKind::ReadField || Kind == EventKind::WriteField ||
           Kind == EventKind::ReadElem || Kind == EventKind::WriteElem;
  }
  /// True for the write-access kinds.
  bool isWrite() const {
    return Kind == EventKind::WriteField || Kind == EventKind::WriteElem;
  }
  /// True for array-element accesses.
  bool isElemAccess() const {
    return Kind == EventKind::ReadElem || Kind == EventKind::WriteElem;
  }

  std::span<const Value> args() const { return {Args, NumArgs}; }

  /// The accessed location packed into one key: object, element flag and
  /// field slot or element index.
  uint64_t locationKey() const {
    assert(FieldIndex < (1u << 31) && "slot does not fit the packed key");
    return uint64_t(Obj) << 32 | uint64_t(isElemAccess()) << 31 | FieldIndex;
  }

  ProgramPoint point() const { return {Func, Pc}; }

  /// "Class.method:pc" — the static label used to name racy accesses.
  std::string staticLabel() const { return point().label(); }
};

static_assert(std::is_trivially_copyable_v<TraceEvent> &&
                  sizeof(TraceEvent) <= 96,
              "events are copied by value on every VM step");

/// Receives events as the VM executes.  Implemented by the trace recorder,
/// the race detectors and the RaceFuzzer-style active scheduler.
class ExecutionObserver {
public:
  virtual ~ExecutionObserver();
  virtual void onEvent(const TraceEvent &Event) = 0;
};

/// Fans one event stream out to several observers.
class ObserverMux : public ExecutionObserver {
public:
  void add(ExecutionObserver *Observer) { Observers.push_back(Observer); }
  void onEvent(const TraceEvent &Event) override {
    for (ExecutionObserver *O : Observers)
      O->onEvent(Event);
  }

private:
  std::vector<ExecutionObserver *> Observers;
};

} // namespace narada

#endif // NARADA_TRACE_TRACEEVENT_H
