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
  Metrics.counter("detect.lockset_intersections").inc(S.IntersectionCount);
  Metrics.counter("detect.lockset_reports").inc(S.Records.size());
}

std::vector<ObjectId> &LockSetDetector::heldBy(ThreadId T) {
  if (T >= S.Held.size())
    S.Held.resize(T + 1);
  return S.Held[T];
}

void LockSetDetector::handleAccess(const TraceEvent &Event) {
  VarState &V = S.Vars.at(Event);
  const std::vector<ObjectId> &Locks = heldBy(Event.Thread);
  bool IsWrite = Event.isWrite();

  switch (V.Phase) {
  case VarPhase::Virgin:
    V.Phase = VarPhase::Exclusive;
    V.Owner = Event.Thread;
    break;
  case VarPhase::Exclusive:
    if (Event.Thread != V.Owner)
      V.Phase = IsWrite ? VarPhase::SharedModified : VarPhase::Shared;
    break;
  case VarPhase::Shared:
    if (IsWrite)
      V.Phase = VarPhase::SharedModified;
    break;
  case VarPhase::SharedModified:
    break;
  }

  // Refine the candidate lockset only once the variable has left the
  // Exclusive state.  This is Eraser's initialization exemption: a single
  // thread may legitimately initialize without locks (constructors!), so
  // C(v) is first materialized from the locks held at the access that
  // makes the variable shared, and intersected thereafter.
  if (V.Phase == VarPhase::Shared || V.Phase == VarPhase::SharedModified) {
    if (!V.CandidatesInitialized) {
      V.Candidates = Locks;
      V.CandidatesInitialized = true;
    } else {
      ++S.IntersectionCount;
      std::erase_if(V.Candidates, [&](ObjectId Lock) {
        return !std::binary_search(Locks.begin(), Locks.end(), Lock);
      });
    }
  }

  if (V.Phase == VarPhase::SharedModified && V.Candidates.empty() &&
      V.CandidatesInitialized && !V.Reported) {
    // The first access leaves the variable Exclusive, so a prior access
    // always exists here.
    S.Records.push_back(
        CompactRace::between(V.LastPoint, V.LastThread, V.LastIsWrite, Event));
    V.Reported = true; // One report per variable, like Eraser.
  }

  V.LastPoint = Event.point();
  V.LastThread = Event.Thread;
  V.LastIsWrite = IsWrite;
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
