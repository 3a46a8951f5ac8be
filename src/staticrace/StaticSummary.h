//===- staticrace/StaticSummary.h - Per-method static summaries -*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summary domain of the static race pre-analysis (docs/STATIC.md): for
/// every library method, the set of heap accesses it may perform — each with
/// the must-lockset held at the access and the controllability of the
/// accessed object's path — merged compositionally across calls.  The
/// summaries mirror the dynamic stage-1 facts of analysis/AccessAnalysis
/// (C/NC controllability, L/U protection, entry-rooted access paths) so the
/// PairClassifier can relate a static access instance to a dynamic
/// AccessRecord by (method symbol, static label).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_STATICRACE_STATICSUMMARY_H
#define NARADA_STATICRACE_STATICSUMMARY_H

#include "analysis/AccessPath.h"
#include "staticrace/Verdict.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace narada {
namespace staticrace {

/// Whether the base object of a static access is reachable from the
/// enclosing invocation's parameters — the static analogue of the dynamic
/// C/NC flag.  Param carries an entry-rooted path; NotParam is *provably*
/// library-internal (allocated below the entry); Unknown is everything the
/// abstraction lost.
enum class Controllability {
  Param,    ///< Reached from the receiver/an argument via BasePath.
  NotParam, ///< Freshly allocated below the entry method.
  Unknown,  ///< The analysis could not track the base.
};

const char *controllabilityName(Controllability C);

/// One heap access a method may perform (directly or through callees),
/// abstracted to the entry method's frame.
struct StaticAccess {
  /// "Class.method:pc" of the accessing instruction — the innermost site,
  /// matching TraceEvent::staticLabel() and AccessRecord::Label.
  std::string Label;
  std::string FieldClassName; ///< Static class declaring the field.
  std::string Field;          ///< Field name, "[]" for array elements.
  bool IsWrite = false;
  bool IsElem = false;

  Controllability Ctrl = Controllability::Unknown;
  /// Entry-rooted path of the base object; set iff Ctrl == Param.
  std::optional<AccessPath> BasePath;

  /// Monitors provably held on *every* path reaching the access, as
  /// entry-rooted paths with re-entrancy counts.  A lower bound: extra
  /// monitors may be held at run time, never fewer.
  std::map<AccessPath, unsigned> MustLocks;
  /// Count of must-held monitors whose identity the analysis lost (the
  /// locked value was not path-trackable).  Zero means MustLocks is the
  /// complete identity-resolved must-lockset.
  unsigned UnknownLocks = 0;

  /// Stable identity for deduplication within one method summary.
  std::string fingerprint() const;
  /// "label field W base {locks}" one-liner for tests and triage output.
  std::string str() const;
};

/// Everything the pre-analysis knows about one method.
struct MethodSummary {
  std::string Symbol; ///< "Class.method" (methodSymbol()).
  /// Accesses the method may perform, own and inherited from callees
  /// (callee instances keep their own Label, rebased to this frame).
  std::vector<StaticAccess> Accesses;
  /// Fields this method may store to, transitively ("[]" for elements;
  /// "*" when the method spawns a thread and anything may change).
  std::set<std::string> StoredFields;
  /// True when the access list may be missing instances: a size cap was
  /// hit, monitor operations did not balance, recursion exceeded the
  /// inlining depth, or an incomplete callee was inlined.  A classifier
  /// must not derive a MustGuarded verdict from an incomplete summary.
  bool Incomplete = false;
};

/// Summaries for every method of a module, keyed by method symbol.
struct ModuleSummary {
  std::map<std::string, MethodSummary> Methods;

  const MethodSummary *find(const std::string &Symbol) const {
    auto It = Methods.find(Symbol);
    return It == Methods.end() ? nullptr : &It->second;
  }
};

} // namespace staticrace
} // namespace narada

#endif // NARADA_STATICRACE_STATICSUMMARY_H
