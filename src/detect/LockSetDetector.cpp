//===- detect/LockSetDetector.cpp - Eraser lockset detection -------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/LockSetDetector.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace narada;

LockSetDetector::~LockSetDetector() {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  Metrics.counter("detect.lockset_intersections").inc(IntersectionCount);
  Metrics.counter("detect.lockset_reports").inc(Races.size());
}

std::vector<ObjectId> &LockSetDetector::heldBy(ThreadId T) {
  if (T >= Held.size())
    Held.resize(T + 1);
  return Held[T];
}

void LockSetDetector::handleAccess(const TraceEvent &Event) {
  VarState &S = Vars.at(Event);
  const std::vector<ObjectId> &Locks = heldBy(Event.Thread);
  bool IsWrite = Event.isWrite();

  switch (S.Phase) {
  case VarPhase::Virgin:
    S.Phase = VarPhase::Exclusive;
    S.Owner = Event.Thread;
    break;
  case VarPhase::Exclusive:
    if (Event.Thread != S.Owner)
      S.Phase = IsWrite ? VarPhase::SharedModified : VarPhase::Shared;
    break;
  case VarPhase::Shared:
    if (IsWrite)
      S.Phase = VarPhase::SharedModified;
    break;
  case VarPhase::SharedModified:
    break;
  }

  // Refine the candidate lockset only once the variable has left the
  // Exclusive state.  This is Eraser's initialization exemption: a single
  // thread may legitimately initialize without locks (constructors!), so
  // C(v) is first materialized from the locks held at the access that
  // makes the variable shared, and intersected thereafter.
  if (S.Phase == VarPhase::Shared || S.Phase == VarPhase::SharedModified) {
    if (!S.CandidatesInitialized) {
      S.Candidates = Locks;
      S.CandidatesInitialized = true;
    } else {
      ++IntersectionCount;
      std::erase_if(S.Candidates, [&](ObjectId Lock) {
        return !std::binary_search(Locks.begin(), Locks.end(), Lock);
      });
    }
  }

  if (S.Phase == VarPhase::SharedModified && S.Candidates.empty() &&
      S.CandidatesInitialized && !S.Reported) {
    RaceReport R;
    R.Detector = "lockset";
    R.ClassName = *Event.ClassName;
    R.Field = Event.isElemAccess() ? "[]" : *Event.Member;
    R.Obj = Event.Obj;
    R.IsElem = Event.isElemAccess();
    R.ElemIndex = Event.isElemAccess() ? Event.FieldIndex : 0;
    // The first access leaves the variable Exclusive, so a prior access
    // always exists here.
    R.FirstLabel = S.LastPoint.label();
    R.SecondLabel = Event.staticLabel();
    R.FirstThread = S.LastThread;
    R.SecondThread = Event.Thread;
    R.FirstIsWrite = S.LastIsWrite;
    R.SecondIsWrite = IsWrite;
    Races.push_back(std::move(R));
    S.Reported = true; // One report per variable, like Eraser.
  }

  S.LastPoint = Event.point();
  S.LastThread = Event.Thread;
  S.LastIsWrite = IsWrite;
}

void LockSetDetector::onEvent(const TraceEvent &Event) {
  switch (Event.Kind) {
  case EventKind::Lock: {
    std::vector<ObjectId> &Locks = heldBy(Event.Thread);
    auto It = std::lower_bound(Locks.begin(), Locks.end(), Event.Obj);
    if (It == Locks.end() || *It != Event.Obj)
      Locks.insert(It, Event.Obj);
    return;
  }
  case EventKind::Unlock: {
    std::vector<ObjectId> &Locks = heldBy(Event.Thread);
    auto It = std::lower_bound(Locks.begin(), Locks.end(), Event.Obj);
    if (It != Locks.end() && *It == Event.Obj)
      Locks.erase(It);
    return;
  }
  case EventKind::ReadField:
  case EventKind::ReadElem:
  case EventKind::WriteField:
  case EventKind::WriteElem:
    handleAccess(Event);
    return;
  default:
    return;
  }
}
