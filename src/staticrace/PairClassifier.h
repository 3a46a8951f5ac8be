//===- staticrace/PairClassifier.h - Candidate pair verdicts ----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classifies a candidate access pair against the static summaries.  The
/// collision rule mirrors locksCollideUnderSharing() in synth/PairGenerator:
/// the staged context makes the two base objects one shared instance S and
/// shares nothing else, so two monitors coincide exactly when both are
/// reached *through* S — lock = base + suffix with the same suffix on both
/// sides.
///
///  - MustGuarded: every static instance of both labels (under their entry
///    methods) holds a through-base monitor with one common suffix, and
///    both summaries are complete → the accesses are always serialized
///    under the staged sharing.
///  - MayRace: all instances have fully resolved locksets and *no* instance
///    combination can produce a colliding monitor → priority candidate.
///  - Unknown: anything the abstraction lost.
///
/// See docs/STATIC.md for the soundness argument.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_STATICRACE_PAIRCLASSIFIER_H
#define NARADA_STATICRACE_PAIRCLASSIFIER_H

#include "staticrace/StaticSummary.h"

#include <string>

namespace narada {

struct AccessRecord;

namespace staticrace {

/// Classifies the unordered pair of access sites (\p SymA, \p LabelA) and
/// (\p SymB, \p LabelB), where Sym names the *entry* method ("Class.method")
/// and Label the innermost access site ("Class.method:pc").
PairVerdict classifyLabelPair(const ModuleSummary &S, const std::string &SymA,
                              const std::string &LabelA,
                              const std::string &SymB,
                              const std::string &LabelB);

/// The must-race certification fragment (completeness counterpart to the
/// MustGuarded soundness direction, after RacerD's true-positives
/// theorem).  Returns classifyLabelPair()'s verdict, upgraded to MustRace
/// when the certificate holds:
///
///  - the base verdict is MayRace (complete summaries, controllable
///    bases, fully resolved and non-colliding locksets), and
///  - at least one instance across the pair is a write, and
///  - every instance of both labels sits directly in its entry method's
///    body (Label = "Sym:pc"), so invoking the entry method on the staged
///    shared object reaches the access, and
///  - every instance of both labels holds *no* monitor at all (empty
///    must-lockset, zero unknown locks): nothing whatsoever can serialize
///    the two accesses under any interleaving.
///
/// Under the staged two-thread harness the accesses are then both
/// reachable and permanently unordered — the race must be schedulable.
/// Never upgrades MustGuarded or Unknown, so certification can never
/// contradict the MustGuarded direction.
PairVerdict certifyLabelPair(const ModuleSummary &S, const std::string &SymA,
                             const std::string &LabelA,
                             const std::string &SymB,
                             const std::string &LabelB);

/// certifyLabelPair() at a pair of dynamic access records' (entry method,
/// label) coordinates: the one call that gives a generated pair its
/// verdict.
PairVerdict certifyRecordPair(const ModuleSummary &S, const AccessRecord &A,
                              const AccessRecord &B);

/// Renders the deterministic --static-only triage listing: every candidate
/// pair of statically controllable access sites, grouped by field and
/// classified, for modules with no seed tests at all.  \p FocusClass
/// restricts entry methods to one class (empty = all).  The output is a
/// pure function of the summary (stable sort orders throughout).
std::string renderStaticTriage(const ModuleSummary &S,
                               const std::string &FocusClass);

} // namespace staticrace
} // namespace narada

#endif // NARADA_STATICRACE_PAIRCLASSIFIER_H
