//===- synth/PairGenerator.h - Narada stage 2a ------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds candidate racy pairs from the stage-1 access records (§3.3):
///
///  - an unprotected access can race with a concurrent execution of itself
///    from a second thread, and with any other (un)protected access to the
///    same field;
///  - both base objects must be drivable to one shared instance, i.e. both
///    sides carry a client-rooted base path;
///  - the pair is kept only if the sharing that makes the bases coincide
///    does NOT also force a common monitor: two lock objects coincide
///    exactly when both are reached through the shared object by the same
///    suffix.  This check is how "the receivers must be distinct or the lock
///    on them serializes the accesses" falls out (paper §3.3's discussion of
///    a/a' and Eraser's empty-intersection criterion).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_PAIRGENERATOR_H
#define NARADA_SYNTH_PAIRGENERATOR_H

#include "synth/RacyPair.h"

#include <map>
#include <vector>

namespace narada {

namespace staticrace {
struct ModuleSummary;
}

/// Options for pair generation.
struct PairGenOptions {
  /// Restrict to accesses whose invoked method belongs to this class
  /// (empty = all classes).  Matches the paper's per-class evaluation.
  std::string FocusClass;

  /// Static module summary; when set every generated pair carries a
  /// staticrace::PairVerdict.  The verdicts annotate and never filter:
  /// the generated pair set is the same with or without a summary.
  const staticrace::ModuleSummary *Static = nullptr;
  /// With Static: stable-sort the generated pairs MayRace < Unknown <
  /// MustGuarded (original order within a rank).  Every pair is still
  /// synthesized, so ranking only sets the order of the synthesized tests;
  /// race sets with and without it are identical on C1–C9.  Runs before
  /// the parallel synthesis stage, hence byte-identical across --jobs.
  bool StaticRank = false;
};

/// Whether the sharing required by (\p A, \p B) forces two held monitors to
/// be one object.  Exposed for testing.
bool locksCollideUnderSharing(const AccessRecord &A, const AccessRecord &B);

/// Whether an access record enters pair generation, or why not.
enum class Admission { Admitted, OtherClass, InConstructor, Uncontrollable };

/// Why two admitted accesses to one field do or do not form a pair.
enum class PairCheck { Forms, ReadRead, Unanchored, LocksCollide };

/// The candidate-pair rule, per access: \p R enters pair generation when
/// its invoked method belongs to the focus class, it does not happen inside
/// a constructor (paper §4), and its base is client-rooted.
Admission admitAccess(const AccessRecord &R, const PairGenOptions &Options);

/// The field an admitted access is paired within ("FieldClass.field").
std::string pairFieldOf(const AccessRecord &R);

/// The candidate-pair rule, per pair, for admitted accesses \p A and \p B
/// with one pairFieldOf: the pair anchored on A forms iff one side writes,
/// A is unprotected, and the sharing does not force a common monitor.
PairCheck checkCandidatePair(const AccessRecord &A, const AccessRecord &B);

/// The candidate pair anchored on \p A; its key() identifies it.
RacyPair makeCandidatePair(const AccessRecord &A, const AccessRecord &B);

/// Generates all candidate racy pairs from \p Analysis.
std::vector<RacyPair> generatePairs(const AnalysisResult &Analysis,
                                    const PairGenOptions &Options = {});

/// Maps RaceReport::key()-formatted race keys ("Class.field{A~B}") to the
/// static verdict name of the classified pairs that predicted them, so
/// detection output can carry the static verdict without detect/ depending
/// on the static analysis.  When several pairs share a label pair the most
/// race-like verdict wins (MayRace over Unknown over MustGuarded).
std::map<std::string, std::string>
staticVerdictsByRaceKey(const std::vector<RacyPair> &Pairs);

} // namespace narada

#endif // NARADA_SYNTH_PAIRGENERATOR_H
