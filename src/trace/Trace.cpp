//===- trace/Trace.cpp - Recorded traces --------------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "support/StringUtils.h"

#include <charconv>

using namespace narada;

ExecutionObserver::~ExecutionObserver() = default;

const char *narada::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::Alloc:
    return "alloc";
  case EventKind::ReadField:
    return "read";
  case EventKind::WriteField:
    return "write";
  case EventKind::ReadElem:
    return "read_elem";
  case EventKind::WriteElem:
    return "write_elem";
  case EventKind::Lock:
    return "lock";
  case EventKind::Unlock:
    return "unlock";
  case EventKind::ClientCall:
    return "client_call";
  case EventKind::ClientCallEnd:
    return "client_call_end";
  case EventKind::ThreadStart:
    return "thread_start";
  case EventKind::ThreadEnd:
    return "thread_end";
  case EventKind::Fault:
    return "fault";
  }
  narada_unreachable("unknown event kind");
}

std::string ProgramPoint::label() const {
  if (!Func)
    return "<unknown>";
  return formatString("%s:%u", Func->name().c_str(), Pc);
}

LabelMatcher::LabelMatcher(std::string_view Label) {
  // "name:pc" with the pc in %u form: all digits, no leading zero.
  size_t Colon = Label.rfind(':');
  if (Colon == std::string_view::npos || Colon == 0)
    return;
  const char *First = Label.data() + Colon + 1;
  const char *Last = Label.data() + Label.size();
  auto [End, Err] = std::from_chars(First, Last, Pc);
  Valid = Err == std::errc() && End == Last &&
          (*First != '0' || End == First + 1);
  FuncName = Label.substr(0, Colon);
}

void Trace::append(const TraceEvent &Event) {
  TraceEvent &Slot = Events.emplace_back(Event);
  if (Event.NumArgs)
    Slot.Args = ArgLists.emplace_front(Event.Args, Event.Args + Event.NumArgs)
                    .data();
  if (Event.Message)
    Slot.Message = &Messages.emplace_front(*Event.Message);
}

std::vector<const TraceEvent *> Trace::eventsOfKind(EventKind Kind) const {
  std::vector<const TraceEvent *> Out;
  for (const TraceEvent &E : *this)
    if (E.Kind == Kind)
      Out.push_back(&E);
  return Out;
}

std::vector<const TraceEvent *> Trace::accesses() const {
  std::vector<const TraceEvent *> Out;
  for (const TraceEvent &E : *this)
    if (E.isAccess())
      Out.push_back(&E);
  return Out;
}

bool Trace::hasFault() const {
  for (const TraceEvent &E : *this)
    if (E.Kind == EventKind::Fault)
      return true;
  return false;
}

std::vector<std::string> Trace::faultMessages() const {
  std::vector<std::string> Out;
  for (const TraceEvent &E : *this)
    if (E.Kind == EventKind::Fault)
      Out.push_back(E.Message ? *E.Message : std::string());
  return Out;
}

namespace {

/// A borrowed string for printing; an absent one prints empty.
const char *orEmpty(const std::string *S) { return S ? S->c_str() : ""; }

} // namespace

std::string narada::printEvent(const TraceEvent &E) {
  std::string Out = formatString("%6llu t%u %-15s",
                                 static_cast<unsigned long long>(E.Label),
                                 E.Thread, eventKindName(E.Kind));
  switch (E.Kind) {
  case EventKind::Alloc:
    Out += formatString(" @%u : %s", E.Obj, orEmpty(E.ClassName));
    break;
  case EventKind::ReadField:
  case EventKind::WriteField:
    Out += formatString(" @%u.%s = %s  [%s]", E.Obj, orEmpty(E.Member),
                        E.Val.str().c_str(), E.staticLabel().c_str());
    break;
  case EventKind::ReadElem:
  case EventKind::WriteElem:
    Out += formatString(" @%u[%u] = %s  [%s]", E.Obj, E.FieldIndex,
                        E.Val.str().c_str(), E.staticLabel().c_str());
    break;
  case EventKind::Lock:
  case EventKind::Unlock:
    Out += formatString(" @%u  [%s]", E.Obj, E.staticLabel().c_str());
    break;
  case EventKind::ClientCall: {
    std::vector<std::string> Args;
    for (const Value &V : E.args())
      Args.push_back(V.str());
    Out += formatString(" @%u.%s(%s)", E.Receiver, orEmpty(E.Member),
                        join(Args, ", ").c_str());
    break;
  }
  case EventKind::ClientCallEnd:
    Out += formatString(" -> %s", E.Val.str().c_str());
    break;
  case EventKind::ThreadStart:
  case EventKind::ThreadEnd:
    break;
  case EventKind::Fault:
    Out += " ";
    Out += orEmpty(E.Message);
    break;
  }
  return Out;
}

std::string narada::printTrace(const Trace &T) {
  std::string Out;
  for (const TraceEvent &E : T) {
    Out += printEvent(E);
    Out += '\n';
  }
  return Out;
}
