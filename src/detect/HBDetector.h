//===- detect/HBDetector.h - Happens-before race detection ------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FastTrack-style happens-before race detector running as an execution
/// observer.  Writes are tracked as epochs (the common same-thread case) and
/// reads adaptively as an epoch or a full read map, following FastTrack's
/// design.  Synchronization edges: monitor release->acquire and thread
/// spawn.  Precise: every report is a real race of the observed execution.
///
/// records() keeps the first dynamic instance of each distinct race, in
/// first-seen order, so memory is bounded by distinct races; the
/// detect.hb_reports counter still counts every dynamic instance.
/// races() renders the records as reports when asked.
///
/// Everything the detector knows after a prefix of events is one copyable
/// State, counts included.  A copy reports nothing; a detector built from
/// it continues the stream and flushes the counts of the whole stream
/// when it is destroyed.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_HBDETECTOR_H
#define NARADA_DETECT_HBDETECTOR_H

#include "detect/RaceReport.h"
#include "detect/ShadowTable.h"
#include "detect/VectorClock.h"
#include "trace/TraceEvent.h"

#include <unordered_set>
#include <vector>

namespace narada {

/// Happens-before (FastTrack-style) detector.
class HBDetector final : public ExecutionObserver {
  /// One reader's entry in the inflated read map.
  struct SharedRead {
    ThreadId Thread = NoThread;
    uint64_t Clock = 0;
    ProgramPoint Point;
  };

  /// Per-variable detector state (FastTrack's W/R state).
  struct VarState {
    Epoch Write;
    ProgramPoint WritePoint;

    // Read state: epoch while one thread reads, inflated to a read map
    // (sorted by thread) when a second thread reads concurrently.
    Epoch Read;
    ProgramPoint ReadPoint;
    bool ReadShared = false;
    std::vector<SharedRead> ReadMap;

    /// Sets R.Thread's read-map entry.
    void setRead(const SharedRead &R);
  };

  /// A distinct race: both points, IsElem and field slot (0 for elements),
  /// both threads, both write flags.  A point fixes class and field
  /// (MiniJava has no subclassing); the slot keeps hand-built streams
  /// without points apart.
  struct ReportKey {
    ProgramPoint Prior, Current;
    unsigned Slot;
    ThreadId PriorThread, Thread;
    bool IsElem, PriorIsWrite, IsWrite;
    bool operator==(const ReportKey &) const = default;
  };
  struct ReportKeyHash {
    size_t operator()(const ReportKey &K) const;
  };

public:
  /// The detector's state after a prefix of the event stream.
  struct State {
    /// Indexed by thread id; an empty clock was never materialized.
    std::vector<VectorClock> ThreadClocks;
    /// Indexed by lock object id; empty until the lock's first release.
    std::vector<VectorClock> LockClocks;
    ShadowTable<VarState> Vars;
    std::vector<CompactRace> Records;
    std::unordered_set<ReportKey, ReportKeyHash> Reported;
    /// Dynamic race instances, deduplicated or not.
    uint64_t InstanceCount = 0;
    /// Joins performed, flushed to the metrics registry once on
    /// destruction to keep the per-event path free of atomics.
    uint64_t JoinCount = 0;
    /// Epoch-vs-clock leq evaluations — the detector's dominant
    /// comparison cost, and the number FastTrack's epoch optimization
    /// keeps small.
    uint64_t CompareCount = 0;
    /// Vector clocks materialized (thread clocks plus lock clocks).
    uint64_t AllocCount = 0;
  };

  HBDetector() = default;
  /// Continues the stream \p From was copied from.
  explicit HBDetector(State From) : S(std::move(From)) {}
  HBDetector(const HBDetector &) = delete;
  HBDetector &operator=(const HBDetector &) = delete;
  /// Flushes the counts of the whole stream.
  ~HBDetector();

  void onEvent(const TraceEvent &Event) override;

  const State &state() const { return S; }

  /// The distinct races seen so far, in first-seen order.
  const std::vector<CompactRace> &records() const { return S.Records; }

  /// records() rendered as reports.
  std::vector<RaceReport> races() const {
    return renderRaces(S.Records, "hb");
  }

private:
  VectorClock &clockOf(ThreadId T);
  void handleRead(const TraceEvent &Event);
  void handleWrite(const TraceEvent &Event);
  void report(const TraceEvent &Event, ProgramPoint Prior,
              ThreadId PriorThread, bool PriorIsWrite);

  State S;
};

} // namespace narada

#endif // NARADA_DETECT_HBDETECTOR_H
