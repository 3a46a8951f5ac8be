//===- analysis/AccessAnalysis.h - Narada stage 1 ---------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential-trace analysis of §3.1–§3.2.  For every client→library
/// invocation in a seed-test trace it computes, per dynamic heap access:
///
///  - *controllability* (the paper's C/NC flags in H): whether the accessed
///    object was part of the client-visible world at invocation entry —
///    reachable from the receiver or an argument, the set the bootstrap
///    function R initializes as controllable;
///  - *unprotected* (the U component of A): controllable and accessed while
///    no monitor on the base object is held;
///  - *writeable* (the W component of A): a field write whose target object
///    and written value are both controllable;
///  - the access summary D: the client-rooted paths (src operator) for the
///    base object, the written value, and every monitor held at the access.
///
/// It additionally extracts the two databases the context deriver queries:
/// writeable assignments ("method m sets I0.f to I1") including constructor
/// assignments, and return summaries ("method m returns an object whose
/// field f is its argument I1" — the Fig. 9 return rule with Ir).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_ANALYSIS_ACCESSANALYSIS_H
#define NARADA_ANALYSIS_ACCESSANALYSIS_H

#include "analysis/AccessPath.h"
#include "analysis/HeapMirror.h"
#include "lang/Sema.h"
#include "trace/Trace.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace narada {

/// One (deduplicated) heap access observed inside a library invocation.
struct AccessRecord {
  std::string ClassName; ///< Static class of the invoked library method.
  std::string Method;    ///< The client-invoked method containing the access.

  /// Static label ("Class.method:pc") of the access itself (possibly in a
  /// nested callee).  Materialized as a string so records stay valid after
  /// the module they were computed against is gone.
  std::string Label;

  bool IsWrite = false;
  bool IsElem = false;          ///< Array element access.
  std::string Field;            ///< Field name, or "[]" for elements.
  std::string FieldClassName;   ///< Dynamic class of the base object.

  /// Path of the base object from the invocation's parameters; empty
  /// optional when the base is not controllable.
  std::optional<AccessPath> BasePath;

  bool Unprotected = false; ///< Controllable base, no lock on it held.
  bool Writeable = false;   ///< Write with controllable base and value.
  bool InConstructor = false; ///< Access occurs inside an 'init' body.

  /// Client-rooted paths of every monitor held at the access; monitors on
  /// library-internal objects (no client path) are std::nullopt.
  std::vector<std::optional<AccessPath>> HeldLockPaths;

  /// "Class.method:pc" of the access.
  const std::string &staticLabel() const { return Label; }
  /// A stable identity used for deduplication across invocations.
  std::string dedupKey() const;
};

/// A writeable assignment usable to set library state from a client:
/// invoking \p Method on an instance of \p ClassName assigns the object at
/// \p Rhs (a parameter or a parameter's field path) into \p Lhs.
struct WriteableAssign {
  std::string ClassName;
  std::string Method;
  AccessPath Lhs; ///< Receiver-rooted path being assigned (e.g. I0.x).
  AccessPath Rhs; ///< Parameter-rooted source (e.g. I1 or I1.w).
  bool IsConstructor = false;

  std::string str() const;
};

/// A return summary: invoking \p Method yields an object whose \p RetPath
/// (rooted at Ir) is the caller-supplied \p Rhs.  With an empty RetPath the
/// method returns a client-visible object itself (a getter), which lets a
/// test *obtain* internal state; with a non-empty RetPath the method is a
/// factory wiring its argument into the returned object.
struct ReturnSummary {
  std::string ClassName;
  std::string Method;
  AccessPath RetPath; ///< Rooted at Ir (Root == ReturnRoot).
  AccessPath Rhs;     ///< Parameter- or receiver-rooted source.

  std::string str() const;
};

/// Everything stage 1 learns from one or more seed traces.
struct AnalysisResult {
  std::vector<AccessRecord> Accesses;
  std::vector<WriteableAssign> Setters;
  std::vector<ReturnSummary> Returns;

  /// Merges \p Other into this result, deduplicating.
  void merge(const AnalysisResult &Other);
};

/// Runs stage 1 over a recorded sequential trace.
AnalysisResult analyzeTrace(const Trace &T, const ProgramInfo &Info);

} // namespace narada

#endif // NARADA_ANALYSIS_ACCESSANALYSIS_H
