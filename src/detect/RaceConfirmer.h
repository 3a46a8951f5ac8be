//===- detect/RaceConfirmer.h - RaceFuzzer-style confirmation ---*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An active scheduling policy in the spirit of RaceFuzzer (Sen, PLDI'08),
/// the detector the paper feeds Narada's tests to.  Given a candidate racy
/// pair of static program points, the policy pauses the first thread that
/// is *about to* perform one of the accesses and keeps the rest of the
/// program running; when a second thread arrives at the complementary
/// access on the same memory location, the race is *reproduced* and the two
/// accesses are executed back to back, in a chosen order.  Running the pair
/// in both orders and comparing the resulting program states classifies the
/// race as harmful or benign.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_RACECONFIRMER_H
#define NARADA_DETECT_RACECONFIRMER_H

#include "detect/RaceReport.h"
#include "runtime/Scheduler.h"
#include "support/RNG.h"
#include "trace/TraceEvent.h"

#include <optional>
#include <string>

namespace narada {

/// The active scheduler.  One instance drives one execution.
class RaceConfirmPolicy : public SchedulingPolicy {
public:
  /// \p LabelA / \p LabelB are the static labels ("Class.method:pc") of the
  /// two accesses.  \p SecondFirst chooses which access runs first once the
  /// race is reproduced (false: the paused side runs first).
  RaceConfirmPolicy(const std::string &LabelA, const std::string &LabelB,
                    uint64_t Seed, bool SecondFirst = false)
      : MatchA(LabelA), MatchB(LabelB), SameLabel(LabelA == LabelB),
        Rand(Seed), SecondFirst(SecondFirst) {}

  ThreadId pick(const std::vector<ThreadId> &Runnable, VM &M) override;

  /// True once both threads were simultaneously at the candidate accesses
  /// on the same location.
  bool confirmed() const { return Confirmed.has_value(); }

  /// The reproduced race (valid when confirmed()).
  const RaceReport &confirmedRace() const { return *Confirmed; }

private:
  /// The pending access of thread \p T if it sits at either candidate
  /// label, plus whether that is label A.
  std::optional<std::pair<PendingAccess, bool>> matchAt(ThreadId T, VM &M);

  /// A random runnable thread other than \p Skip, which \p Runnable holds
  /// next to at least one other thread.  Draws the RNG exactly as indexing
  /// a copy of \p Runnable without \p Skip would.
  ThreadId pickOther(const std::vector<ThreadId> &Runnable, ThreadId Skip);

  LabelMatcher MatchA;
  LabelMatcher MatchB;
  bool SameLabel;
  RNG Rand;
  bool SecondFirst;

  ThreadId Paused = NoThread;
  PendingAccess PausedAccess;
  bool PausedIsA = false;
  unsigned PausedFor = 0;
  static constexpr unsigned PauseBudget = 4000;

  std::optional<RaceReport> Confirmed;
  ThreadId FireNext = NoThread; ///< Second racer, scheduled right after.
};

} // namespace narada

#endif // NARADA_DETECT_RACECONFIRMER_H
