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
/// Like HBDetector, the detector's knowledge is one copyable State: a
/// copy reports nothing, and a detector built from it flushes the counts
/// of the whole stream.
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

public:
  /// The detector's state after a prefix of the event stream.
  struct State {
    /// Held locks, sorted, indexed by thread id.
    std::vector<std::vector<ObjectId>> Held;
    ShadowTable<VarState> Vars;
    std::vector<CompactRace> Records;
    /// Lockset refinements performed, flushed to the metrics registry
    /// once on destruction to keep the per-access path free of atomics.
    uint64_t IntersectionCount = 0;
  };

  LockSetDetector() = default;
  /// Continues the stream \p From was copied from.
  explicit LockSetDetector(State From) : S(std::move(From)) {}
  LockSetDetector(const LockSetDetector &) = delete;
  LockSetDetector &operator=(const LockSetDetector &) = delete;
  /// Flushes the counts of the whole stream.
  ~LockSetDetector();

  void onEvent(const TraceEvent &Event) override;

  const State &state() const { return S; }

  /// One race per reported variable, in report order.
  const std::vector<CompactRace> &records() const { return S.Records; }

  /// records() rendered as reports.
  std::vector<RaceReport> races() const {
    return renderRaces(S.Records, "lockset");
  }

private:
  std::vector<ObjectId> &heldBy(ThreadId T);
  void handleAccess(const TraceEvent &Event);

  State S;
};

} // namespace narada

#endif // NARADA_DETECT_LOCKSETDETECTOR_H
