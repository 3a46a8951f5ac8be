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
#include <string>
#include <vector>

namespace narada {

/// A complete recorded execution trace.  The trace owns copies of the
/// borrowed ClientCall arguments and fault messages, in list nodes that
/// never move, so moving or growing the trace keeps every event's pointers
/// valid; the names its events point to still belong to the IRModule that
/// ran (see TraceEvent.h).
class Trace {
public:
  using const_iterator = std::vector<TraceEvent>::const_iterator;

  Trace() = default;
  /// Move-only: a copy's events would point into the original's payloads.
  Trace(const Trace &) = delete;
  Trace &operator=(const Trace &) = delete;
  Trace(Trace &&) = default;
  Trace &operator=(Trace &&) = default;

  /// Records a copy of \p Event, with its arguments and message copied
  /// into storage this trace owns.
  void append(const TraceEvent &Event);

  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  const TraceEvent &operator[](size_t I) const { return Events[I]; }
  const_iterator begin() const { return Events.begin(); }
  const_iterator end() const { return Events.end(); }

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
  std::vector<TraceEvent> Events;
  /// Owned copies of borrowed payloads.
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
