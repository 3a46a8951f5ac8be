//===- detect/HBDetector.cpp - Happens-before race detection -------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/HBDetector.h"

#include "obs/Metrics.h"

using namespace narada;

HBDetector::~HBDetector() {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Metrics.counter("detect.vc_joins").inc(JoinCount);
  Metrics.counter("detect.vc_compares").inc(CompareCount);
  Metrics.counter("detect.vc_allocs").inc(AllocCount);
  Metrics.counter("detect.hb_reports").inc(InstanceCount);
}

VectorClock &HBDetector::clockOf(ThreadId T) {
  auto It = ThreadClocks.find(T);
  if (It != ThreadClocks.end())
    return It->second;
  ++AllocCount;
  VectorClock &C = ThreadClocks[T];
  C.set(T, 1);
  return C;
}

void HBDetector::report(const TraceEvent &Event, ProgramPoint Prior,
                        ThreadId PriorThread, bool PriorIsWrite) {
  ++InstanceCount;
  bool IsElem = Event.isElemAccess();
  if (!Reported
           .emplace(Prior, Event.point(), IsElem,
                    IsElem ? 0 : Event.FieldIndex, PriorThread, Event.Thread,
                    PriorIsWrite, Event.isWrite())
           .second)
    return;
  RaceReport R;
  R.Detector = "hb";
  R.ClassName = Event.ClassName;
  R.Field = Event.isElemAccess() ? "[]" : Event.Field;
  R.Obj = Event.Obj;
  R.IsElem = Event.isElemAccess();
  R.ElemIndex = Event.isElemAccess() ? Event.FieldIndex : 0;
  R.FirstLabel = Prior.label();
  R.SecondLabel = Event.staticLabel();
  R.FirstThread = PriorThread;
  R.SecondThread = Event.Thread;
  R.FirstIsWrite = PriorIsWrite;
  R.SecondIsWrite = Event.isWrite();
  Races.push_back(std::move(R));
}

void HBDetector::handleRead(const TraceEvent &Event) {
  VarKey Key{Event.Obj, Event.isElemAccess(), Event.FieldIndex};
  VarState &S = Vars[Key];
  VectorClock &C = clockOf(Event.Thread);

  // write-read race: the last write must happen-before this read.
  if (S.Write.isSet()) {
    ++CompareCount;
    if (!S.Write.leq(C))
      report(Event, S.WritePoint, S.Write.Thread, /*PriorIsWrite=*/true);
  }

  uint64_t Now = C.get(Event.Thread);
  if (!S.ReadShared) {
    // Same-epoch fast path, or exclusive-read ownership transfer.
    if (S.Read.isSet() && S.Read.Thread != Event.Thread) {
      ++CompareCount;
      if (!S.Read.leq(C)) {
        // Two concurrent readers: inflate to the read map.
        S.ReadShared = true;
        S.ReadMap[S.Read.Thread] = {S.Read.Clock, S.ReadPoint};
        S.ReadMap[Event.Thread] = {Now, Event.point()};
        return;
      }
    }
    S.Read = Epoch{Event.Thread, Now};
    S.ReadPoint = Event.point();
    return;
  }
  S.ReadMap[Event.Thread] = {Now, Event.point()};
}

void HBDetector::handleWrite(const TraceEvent &Event) {
  VarKey Key{Event.Obj, Event.isElemAccess(), Event.FieldIndex};
  VarState &S = Vars[Key];
  VectorClock &C = clockOf(Event.Thread);

  // write-write race.
  if (S.Write.isSet()) {
    ++CompareCount;
    if (!S.Write.leq(C))
      report(Event, S.WritePoint, S.Write.Thread, /*PriorIsWrite=*/true);
  }

  // read-write races.
  if (!S.ReadShared) {
    if (S.Read.isSet()) {
      ++CompareCount;
      if (!S.Read.leq(C))
        report(Event, S.ReadPoint, S.Read.Thread, /*PriorIsWrite=*/false);
    }
  } else {
    for (const auto &[Thread, Read] : S.ReadMap) {
      ++CompareCount;
      if (!Epoch{Thread, Read.Clock}.leq(C))
        report(Event, Read.Point, Thread, /*PriorIsWrite=*/false);
    }
    S.ReadShared = false;
    S.ReadMap.clear();
  }
  S.Read = Epoch{};

  S.Write = Epoch{Event.Thread, C.get(Event.Thread)};
  S.WritePoint = Event.point();
}

void HBDetector::onEvent(const TraceEvent &Event) {
  switch (Event.Kind) {
  case EventKind::ThreadStart: {
    VectorClock &Child = clockOf(Event.Thread);
    if (Event.ParentThread != NoThread) {
      VectorClock &Parent = clockOf(Event.ParentThread);
      Child.joinWith(Parent);
      ++JoinCount;
      Child.set(Event.Thread, Child.get(Event.Thread) + 1);
      Parent.tick(Event.ParentThread);
    }
    return;
  }
  case EventKind::Lock: {
    // acquire: C_t := C_t ⊔ L_m.
    auto It = LockClocks.find(Event.Obj);
    if (It != LockClocks.end()) {
      clockOf(Event.Thread).joinWith(It->second);
      ++JoinCount;
    }
    return;
  }
  case EventKind::Unlock: {
    // release: L_m := C_t; C_t.tick().
    VectorClock &C = clockOf(Event.Thread);
    auto [It, Inserted] = LockClocks.try_emplace(Event.Obj);
    if (Inserted)
      ++AllocCount;
    It->second = C;
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
