//===- tests/EventNames.h - Names for hand-built trace events ---*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// A TraceEvent borrows its class, field and method names from the IRModule
// that ran (trace/TraceEvent.h).  Hand-built events have no module, so
// EventNames owns their names, and their fault messages, for as long as
// the events are used.
//
//===----------------------------------------------------------------------===//

#ifndef NARADA_TESTS_EVENTNAMES_H
#define NARADA_TESTS_EVENTNAMES_H

#include <set>
#include <string>

namespace narada {

class EventNames {
public:
  /// A string equal to \p Name, at an address stable for this object's
  /// lifetime.
  const std::string *operator()(const std::string &Name) {
    return &*Names.insert(Name).first;
  }

private:
  std::set<std::string> Names;
};

} // namespace narada

#endif // NARADA_TESTS_EVENTNAMES_H
