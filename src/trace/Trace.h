//===- trace/Trace.h - Recorded traces --------------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A recorded event sequence plus convenience queries, and the observer that
/// records it.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_TRACE_TRACE_H
#define NARADA_TRACE_TRACE_H

#include "trace/TraceEvent.h"

#include <cstddef>
#include <forward_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace narada {

/// A complete recorded execution trace.  Events live in fixed-size chunks,
/// so appending never moves recorded events.  The trace owns copies of the
/// borrowed ClientCall arguments and fault messages; the names its events
/// point to still belong to the IRModule that ran (see TraceEvent.h).
/// Move-only: moving keeps every event's pointers valid.
class Trace {
public:
  /// Iterates the events in recording order.
  class const_iterator {
  public:
    const TraceEvent &operator*() const { return (*T)[I]; }
    const_iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator==(const const_iterator &O) const { return I == O.I; }

  private:
    friend class Trace;
    const_iterator(const Trace *T, size_t I) : T(T), I(I) {}
    const Trace *T;
    size_t I;
  };

  Trace() = default;
  /// Leaves \p O empty.
  Trace(Trace &&O) noexcept { swap(O); }
  Trace &operator=(Trace &&O) noexcept {
    Trace(std::move(O)).swap(*this);
    return *this;
  }

  /// Records a copy of \p Event, with its arguments and message copied
  /// into storage this trace owns.
  void append(const TraceEvent &Event);

  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const TraceEvent &operator[](size_t I) const {
    return Chunks[I >> ChunkShift][I & (ChunkSize - 1)];
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, Size}; }

  /// All events of kind \p Kind.
  std::vector<const TraceEvent *> eventsOfKind(EventKind Kind) const;

  /// All heap-access events (field and element reads/writes).
  std::vector<const TraceEvent *> accesses() const;

  /// True if any thread faulted during the execution.
  bool hasFault() const;

  /// The fault messages, in order.
  std::vector<std::string> faultMessages() const;

  void clear() { *this = Trace(); }

private:
  void swap(Trace &O) noexcept;

  /// Uninitialized chunk storage: events are placed by copy on append.
  struct FreeChunk {
    void operator()(TraceEvent *P) const;
  };

  static constexpr size_t ChunkShift = 10;
  static constexpr size_t ChunkSize = size_t(1) << ChunkShift;

  using Chunk = std::unique_ptr<TraceEvent[], FreeChunk>;

  std::vector<Chunk> Chunks;
  size_t Size = 0;
  /// Owned copies of borrowed payloads; list nodes never move.
  std::forward_list<std::vector<Value>> ArgLists;
  std::forward_list<std::string> Messages;
};

/// An observer that appends every event to a Trace.
class TraceRecorder : public ExecutionObserver {
public:
  explicit TraceRecorder(Trace &Out) : Out(Out) {}
  void onEvent(const TraceEvent &Event) override { Out.append(Event); }

private:
  Trace &Out;
};

/// Renders one event as a single human-readable line.
std::string printEvent(const TraceEvent &Event);

/// Renders the whole trace, one line per event.
std::string printTrace(const Trace &T);

} // namespace narada

#endif // NARADA_TRACE_TRACE_H
