//===- synth/RacyPair.h - Candidate racy access pairs -----------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A racy pair names two library accesses that can form a data race when
/// invoked from two threads with the right object sharing (§3.3): the same
/// field of one shared object, at least one write, at least one side
/// unprotected, and lock sets that the sharing plan keeps disjoint.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_RACYPAIR_H
#define NARADA_SYNTH_RACYPAIR_H

#include "analysis/AccessAnalysis.h"
#include "staticrace/Verdict.h"

#include <optional>
#include <string>

namespace narada {

/// One side of a racy pair: the method a thread must invoke and where the
/// shared object sits among that invocation's parameters.
struct RacySide {
  std::string ClassName;   ///< Class owning the invoked method.
  std::string Method;      ///< Method the thread invokes.
  std::string AccessLabel; ///< Static label of the racy access.
  AccessPath BasePath;     ///< Path from the invocation to the shared object.
  bool IsWrite = false;
};

/// A candidate racy access pair.
struct RacyPair {
  RacySide First;
  RacySide Second;
  std::string Field;          ///< Raced-on field name ("[]" for elements).
  std::string FieldClassName; ///< Dynamic class declaring the field.

  /// Verdict of the static pre-analysis (docs/STATIC.md), set when pair
  /// generation ran with a module summary.  MustRace when the must-race
  /// certificate holds (certifyRecordPair): the pair classifies MayRace and
  /// is provably lock-free at directly reachable sites, so dynamic
  /// confirmation is expected, not hoped for.
  std::optional<staticrace::PairVerdict> Verdict;

  /// Stable identity for deduplication and reporting.
  std::string key() const;

  /// One-line human-readable description.
  std::string str() const;
};

} // namespace narada

#endif // NARADA_SYNTH_RACYPAIR_H
