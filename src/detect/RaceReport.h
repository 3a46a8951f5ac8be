//===- detect/RaceReport.h - Race reports -----------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The report format shared by all detectors: which field of which object
/// raced, at which pair of static program points, from which threads.
/// Detectors keep each race as a CompactRace, which holds points and name
/// pointers, and render a RaceReport only when one is asked for.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_RACEREPORT_H
#define NARADA_DETECT_RACEREPORT_H

#include "runtime/Heap.h"
#include "runtime/Value.h"
#include "support/RaceKey.h"
#include "trace/TraceEvent.h"

#include <string>
#include <vector>

namespace narada {

/// One reported race.
struct RaceReport {
  std::string Detector;       ///< "hb" (FastTrack-style) or "lockset".
  std::string ClassName;      ///< Dynamic class of the raced object.
  std::string Field;          ///< Field name, "[]" for array elements.
  ObjectId Obj = NoObject;
  bool IsElem = false;
  unsigned ElemIndex = 0;

  std::string FirstLabel;     ///< Static label of the earlier access.
  std::string SecondLabel;    ///< Static label of the later access.
  /// Verdict name of the static pre-analysis for this label pair
  /// ("MayRace"/"Unknown"/"MustGuarded"); empty when the run was
  /// dynamic-only.  Annotated after detection from the classified pairs —
  /// see staticVerdictsByRaceKey() — so reports distinguish
  /// static-predicted from dynamic-only races.
  std::string StaticVerdict;
  ThreadId FirstThread = 0;
  ThreadId SecondThread = 0;
  bool FirstIsWrite = false;
  bool SecondIsWrite = false;

  /// Identity for deduplication across runs: the raced field plus the
  /// unordered static label pair (object ids differ run to run).  The
  /// components are escaped (support/RaceKey.h) so names containing the
  /// separator characters cannot collide; on ordinary identifiers the
  /// escaped key is byte-identical to the historical concatenation.
  std::string key() const {
    return makeRaceKey(ClassName, Field, FirstLabel, SecondLabel);
  }

  std::string str() const {
    return Detector + " race on " + ClassName + "." + Field + ": " +
           FirstLabel + (FirstIsWrite ? " (write)" : " (read)") + " vs " +
           SecondLabel + (SecondIsWrite ? " (write)" : " (read)");
  }
};

/// One race as a detector keeps it: what a RaceReport says, with the
/// class and field names borrowed from the module (see TraceEvent) and
/// the labels left as program points.
struct CompactRace {
  ProgramPoint First;  ///< The earlier access.
  ProgramPoint Second; ///< The later access.
  const std::string *ClassName = nullptr; ///< Dynamic class of Obj.
  const std::string *Field = nullptr;     ///< Null for array elements.
  ObjectId Obj = NoObject;
  unsigned Slot = 0; ///< Field slot, or element index for elements.
  ThreadId FirstThread = 0;
  ThreadId SecondThread = 0;
  bool IsElem = false;
  bool FirstIsWrite = false;
  bool SecondIsWrite = false;

  /// The record of a race between an earlier access at \p Prior by
  /// \p PriorThread and the access \p Current.
  static CompactRace between(ProgramPoint Prior, ThreadId PriorThread,
                            bool PriorIsWrite, const TraceEvent &Current) {
    CompactRace R;
    R.First = Prior;
    R.Second = Current.point();
    R.ClassName = Current.ClassName;
    R.IsElem = Current.isElemAccess();
    R.Field = R.IsElem ? nullptr : Current.Member;
    R.Obj = Current.Obj;
    R.Slot = Current.FieldIndex;
    R.FirstThread = PriorThread;
    R.SecondThread = Current.Thread;
    R.FirstIsWrite = PriorIsWrite;
    R.SecondIsWrite = Current.isWrite();
    return R;
  }

  /// The report of this race by detector \p Detector.
  RaceReport render(const char *Detector) const {
    RaceReport R;
    R.Detector = Detector;
    R.ClassName = *ClassName;
    R.Field = IsElem ? "[]" : *Field;
    R.Obj = Obj;
    R.IsElem = IsElem;
    R.ElemIndex = IsElem ? Slot : 0;
    R.FirstLabel = First.label();
    R.SecondLabel = Second.label();
    R.FirstThread = FirstThread;
    R.SecondThread = SecondThread;
    R.FirstIsWrite = FirstIsWrite;
    R.SecondIsWrite = SecondIsWrite;
    return R;
  }
};

/// The reports of \p Records by detector \p Detector, in order.
inline std::vector<RaceReport>
renderRaces(const std::vector<CompactRace> &Records, const char *Detector) {
  std::vector<RaceReport> Reports;
  Reports.reserve(Records.size());
  for (const CompactRace &R : Records)
    Reports.push_back(R.render(Detector));
  return Reports;
}

} // namespace narada

#endif // NARADA_DETECT_RACEREPORT_H
