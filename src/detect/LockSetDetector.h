//===- detect/LockSetDetector.h - Eraser lockset detection ------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An Eraser-style lockset detector (Savage et al., TOCS'97) running as an
/// execution observer.  The paper points out that Narada *generates* tests
/// using the same discipline Eraser *checks*: a race needs two accesses
/// whose lock sets do not intersect.  Each shared variable goes through the
/// Virgin -> Exclusive -> Shared -> SharedModified state machine; its
/// candidate lockset is refined at every access, and an empty candidate set
/// in the SharedModified state is reported as a (potential) race.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_LOCKSETDETECTOR_H
#define NARADA_DETECT_LOCKSETDETECTOR_H

#include "detect/RaceReport.h"
#include "detect/ShadowTable.h"
#include "trace/TraceEvent.h"

#include <vector>

namespace narada {

/// Eraser-style lockset detector.
class LockSetDetector final : public ExecutionObserver {
public:
  ~LockSetDetector();

  void onEvent(const TraceEvent &Event) override;

  const std::vector<RaceReport> &races() const { return Races; }

private:
  enum class VarPhase {
    Virgin,         ///< Never accessed.
    Exclusive,      ///< Accessed by one thread only.
    Shared,         ///< Read-shared among threads.
    SharedModified, ///< Written by multiple threads / read-write shared.
  };

  struct VarState {
    VarPhase Phase = VarPhase::Virgin;
    ThreadId Owner = NoThread;
    std::vector<ObjectId> Candidates; ///< Sorted.
    bool CandidatesInitialized = false;
    ProgramPoint LastPoint;
    ThreadId LastThread = NoThread;
    bool LastIsWrite = false;
    bool Reported = false;
  };

  std::vector<ObjectId> &heldBy(ThreadId T);
  void handleAccess(const TraceEvent &Event);

  /// Held locks, sorted, indexed by thread id.
  std::vector<std::vector<ObjectId>> Held;
  ShadowTable<VarState> Vars;
  std::vector<RaceReport> Races;
  /// Lockset refinements performed, flushed to the metrics registry once on
  /// destruction to keep the per-access path free of atomics.
  uint64_t IntersectionCount = 0;
};

} // namespace narada

#endif // NARADA_DETECT_LOCKSETDETECTOR_H
