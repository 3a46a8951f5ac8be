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
  Metrics.counter("detect.vc_joins").inc(JoinCount);
  Metrics.counter("detect.vc_compares").inc(CompareCount);
  Metrics.counter("detect.vc_allocs").inc(AllocCount);
  Metrics.counter("detect.hb_reports").inc(InstanceCount);
}

VectorClock &HBDetector::clockOf(ThreadId T) {
  if (T >= ThreadClocks.size())
    ThreadClocks.resize(T + 1);
  VectorClock &C = ThreadClocks[T];
  if (C.empty()) {
    ++AllocCount;
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
  ++InstanceCount;
  bool IsElem = Event.isElemAccess();
  if (!Reported
           .insert({Prior, Event.point(), IsElem ? 0 : Event.FieldIndex,
                    PriorThread, Event.Thread, IsElem, PriorIsWrite,
                    Event.isWrite()})
           .second)
    return;
  Records.push_back(
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
  VarState &S = Vars.at(Event);
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
        S.setRead({S.Read.Thread, S.Read.Clock, S.ReadPoint});
        S.setRead({Event.Thread, Now, Event.point()});
        return;
      }
    }
    S.Read = Epoch{Event.Thread, Now};
    S.ReadPoint = Event.point();
    return;
  }
  S.setRead({Event.Thread, Now, Event.point()});
}

void HBDetector::handleWrite(const TraceEvent &Event) {
  VarState &S = Vars.at(Event);
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
    for (const SharedRead &Read : S.ReadMap) {
      ++CompareCount;
      if (!Epoch{Read.Thread, Read.Clock}.leq(C))
        report(Event, Read.Point, Read.Thread, /*PriorIsWrite=*/false);
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
    // Both clocks live in ThreadClocks: size it before taking references.
    if (Event.ParentThread != NoThread &&
        Event.ParentThread >= ThreadClocks.size())
      ThreadClocks.resize(Event.ParentThread + 1);
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
    if (Event.Obj < LockClocks.size() && !LockClocks[Event.Obj].empty()) {
      clockOf(Event.Thread).joinWith(LockClocks[Event.Obj]);
      ++JoinCount;
    }
    return;
  }
  case EventKind::Unlock: {
    // release: L_m := C_t; C_t.tick().
    VectorClock &C = clockOf(Event.Thread);
    if (Event.Obj >= LockClocks.size())
      LockClocks.resize(Event.Obj + 1);
    VectorClock &L = LockClocks[Event.Obj];
    if (L.empty())
      ++AllocCount;
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
