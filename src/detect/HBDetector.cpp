//===- detect/HBDetector.cpp - Happens-before race detection -------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/HBDetector.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace narada;

HBDetector::~HBDetector() {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Metrics.counter("detect.vc_joins").inc(S.JoinCount);
  Metrics.counter("detect.vc_compares").inc(S.CompareCount);
  Metrics.counter("detect.vc_allocs").inc(S.AllocCount);
  Metrics.counter("detect.hb_reports").inc(S.InstanceCount);
}

VectorClock &HBDetector::clockOf(ThreadId T) {
  if (T >= S.ThreadClocks.size())
    S.ThreadClocks.resize(T + 1);
  VectorClock &C = S.ThreadClocks[T];
  if (C.empty()) {
    ++S.AllocCount;
    C.set(T, 1);
  }
  return C;
}

size_t HBDetector::ReportKeyHash::operator()(const ReportKey &K) const {
  uint64_t H = 0;
  auto Mix = [&H](uint64_t V) {
    H = (H ^ V) * 0x9e3779b97f4a7c15ULL;
    H ^= H >> 29;
  };
  Mix(reinterpret_cast<uintptr_t>(K.Prior.Func));
  Mix(reinterpret_cast<uintptr_t>(K.Current.Func));
  Mix(uint64_t(K.Prior.Pc) << 32 | K.Current.Pc);
  Mix(uint64_t(K.PriorThread) << 32 | K.Thread);
  Mix(uint64_t(K.Slot) << 3 | K.IsElem << 2 | K.PriorIsWrite << 1 |
      K.IsWrite);
  return H;
}

void HBDetector::report(const TraceEvent &Event, ProgramPoint Prior,
                        ThreadId PriorThread, bool PriorIsWrite) {
  ++S.InstanceCount;
  bool IsElem = Event.isElemAccess();
  if (!S.Reported
           .insert({Prior, Event.point(), IsElem ? 0 : Event.FieldIndex,
                    PriorThread, Event.Thread, IsElem, PriorIsWrite,
                    Event.isWrite()})
           .second)
    return;
  S.Records.push_back(
      CompactRace::between(Prior, PriorThread, PriorIsWrite, Event));
}

void HBDetector::VarState::setRead(const SharedRead &R) {
  auto It = std::lower_bound(
      ReadMap.begin(), ReadMap.end(), R.Thread,
      [](const SharedRead &E, ThreadId T) { return E.Thread < T; });
  if (It != ReadMap.end() && It->Thread == R.Thread)
    *It = R;
  else
    ReadMap.insert(It, R);
}

void HBDetector::handleRead(const TraceEvent &Event) {
  VarState &V = S.Vars.at(Event);
  VectorClock &C = clockOf(Event.Thread);

  // write-read race: the last write must happen-before this read.
  if (V.Write.isSet()) {
    ++S.CompareCount;
    if (!V.Write.leq(C))
      report(Event, V.WritePoint, V.Write.Thread, /*PriorIsWrite=*/true);
  }

  uint64_t Now = C.get(Event.Thread);
  if (!V.ReadShared) {
    // Same-epoch fast path, or exclusive-read ownership transfer.
    if (V.Read.isSet() && V.Read.Thread != Event.Thread) {
      ++S.CompareCount;
      if (!V.Read.leq(C)) {
        // Two concurrent readers: inflate to the read map.
        V.ReadShared = true;
        V.setRead({V.Read.Thread, V.Read.Clock, V.ReadPoint});
        V.setRead({Event.Thread, Now, Event.point()});
        return;
      }
    }
    V.Read = Epoch{Event.Thread, Now};
    V.ReadPoint = Event.point();
    return;
  }
  V.setRead({Event.Thread, Now, Event.point()});
}

void HBDetector::handleWrite(const TraceEvent &Event) {
  VarState &V = S.Vars.at(Event);
  VectorClock &C = clockOf(Event.Thread);

  // write-write race.
  if (V.Write.isSet()) {
    ++S.CompareCount;
    if (!V.Write.leq(C))
      report(Event, V.WritePoint, V.Write.Thread, /*PriorIsWrite=*/true);
  }

  // read-write races.
  if (!V.ReadShared) {
    if (V.Read.isSet()) {
      ++S.CompareCount;
      if (!V.Read.leq(C))
        report(Event, V.ReadPoint, V.Read.Thread, /*PriorIsWrite=*/false);
    }
  } else {
    for (const SharedRead &Read : V.ReadMap) {
      ++S.CompareCount;
      if (!Epoch{Read.Thread, Read.Clock}.leq(C))
        report(Event, Read.Point, Read.Thread, /*PriorIsWrite=*/false);
    }
    V.ReadShared = false;
    V.ReadMap.clear();
  }
  V.Read = Epoch{};

  V.Write = Epoch{Event.Thread, C.get(Event.Thread)};
  V.WritePoint = Event.point();
}

void HBDetector::onEvent(const TraceEvent &Event) {
  switch (Event.Kind) {
  case EventKind::ThreadStart: {
    // Both clocks live in ThreadClocks: size it before taking references.
    if (Event.ParentThread != NoThread &&
        Event.ParentThread >= S.ThreadClocks.size())
      S.ThreadClocks.resize(Event.ParentThread + 1);
    VectorClock &Child = clockOf(Event.Thread);
    if (Event.ParentThread != NoThread) {
      VectorClock &Parent = clockOf(Event.ParentThread);
      Child.joinWith(Parent);
      ++S.JoinCount;
      Child.set(Event.Thread, Child.get(Event.Thread) + 1);
      Parent.tick(Event.ParentThread);
    }
    return;
  }
  case EventKind::Lock: {
    // acquire: C_t := C_t ⊔ L_m.
    if (Event.Obj < S.LockClocks.size() && !S.LockClocks[Event.Obj].empty()) {
      clockOf(Event.Thread).joinWith(S.LockClocks[Event.Obj]);
      ++S.JoinCount;
    }
    return;
  }
  case EventKind::Unlock: {
    // release: L_m := C_t; C_t.tick().
    VectorClock &C = clockOf(Event.Thread);
    if (Event.Obj >= S.LockClocks.size())
      S.LockClocks.resize(Event.Obj + 1);
    VectorClock &L = S.LockClocks[Event.Obj];
    if (L.empty())
      ++S.AllocCount;
    L = C;
    C.tick(Event.Thread);
    return;
  }
  case EventKind::ReadField:
  case EventKind::ReadElem:
    handleRead(Event);
    return;
  case EventKind::WriteField:
  case EventKind::WriteElem:
    handleWrite(Event);
    return;
  default:
    return;
  }
}
