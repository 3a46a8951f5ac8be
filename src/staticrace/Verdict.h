//===- staticrace/Verdict.h - Static pair verdicts --------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three-way verdict the static pre-analysis attaches to a candidate
/// access pair.  Kept in its own header so synth/RacyPair.h can carry a
/// verdict without pulling in the whole summary domain.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_STATICRACE_VERDICT_H
#define NARADA_STATICRACE_VERDICT_H

namespace narada {
namespace staticrace {

/// Classification of a candidate pair against the static summaries.
enum class PairVerdict {
  /// Every execution of both access sites (under these entry methods)
  /// holds a monitor that the staged sharing forces to be one object:
  /// the pair can never manifest.  No generated pair gets this verdict,
  /// since each is anchored on an access the seed trace saw unprotected.
  MustGuarded,
  /// Both sides' must-locksets are fully resolved and no held monitor can
  /// coincide under the sharing: the pair is a priority candidate.
  MayRace,
  /// The analysis could not decide (untracked base, unknown-identity
  /// lock, incomplete summary).
  Unknown,
  /// Completeness counterpart to MustGuarded (certifyLabelPair): the pair
  /// is MayRace *and* both sites are performed directly by their entry
  /// methods with provably empty locksets and at least one write — under
  /// the staged sharing, nothing can serialize the accesses, so the race
  /// must be schedulable.  Only the certifier produces this verdict;
  /// classifyLabelPair never does.
  MustRace,
};

/// Stable spelling: "MustGuarded", "MayRace", "Unknown", "MustRace".
const char *verdictName(PairVerdict V);

} // namespace staticrace
} // namespace narada

#endif // NARADA_STATICRACE_VERDICT_H
