//===- detect/RaceConfirmer.cpp - RaceFuzzer-style confirmation ----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/RaceConfirmer.h"

#include "obs/Metrics.h"
#include "support/Error.h"

#include <algorithm>

using namespace narada;

std::optional<std::pair<PendingAccess, bool>>
RaceConfirmPolicy::matchAt(ThreadId T, VM &M) {
  // Match the runnable (so live, non-empty) thread's current point before
  // decoding its instruction: this runs for every runnable thread per step.
  const Frame &Top = M.thread(T).Stack.back();
  bool IsA = MatchA.matches(Top.Func, Top.Pc);
  if (!IsA && !MatchB.matches(Top.Func, Top.Pc))
    return std::nullopt;
  std::optional<PendingAccess> Access = M.peekAccess(T);
  if (!Access)
    return std::nullopt;
  return std::make_pair(std::move(*Access), IsA);
}

ThreadId RaceConfirmPolicy::pickOther(const std::vector<ThreadId> &Runnable,
                                      ThreadId Skip) {
  uint64_t K = Rand.nextBelow(Runnable.size() - 1);
  for (ThreadId T : Runnable)
    if (T != Skip && K-- == 0)
      return T;
  narada_unreachable("Skip is not among the runnable threads");
}

ThreadId RaceConfirmPolicy::pick(const std::vector<ThreadId> &Runnable,
                                 VM &M) {
  // After a confirmation, fire the second racer immediately so the two
  // accesses are adjacent in the chosen order.
  if (FireNext != NoThread) {
    ThreadId Next = FireNext;
    FireNext = NoThread;
    if (std::find(Runnable.begin(), Runnable.end(), Next) != Runnable.end())
      return Next;
    return Runnable[Rand.nextBelow(Runnable.size())];
  }

  bool PausedRunnable =
      Paused != NoThread &&
      std::find(Runnable.begin(), Runnable.end(), Paused) != Runnable.end();

  if (Paused != NoThread && PausedRunnable) {
    // Look for a partner at the complementary access on the same location.
    for (ThreadId T : Runnable) {
      if (T == Paused)
        continue;
      std::optional<std::pair<PendingAccess, bool>> Match = matchAt(T, M);
      if (!Match)
        continue;
      // For distinct labels the partner must sit at the *other* access; for
      // a same-label pair (the "concurrent access at the same label from a
      // different thread" case) any second thread at the label qualifies.
      if (!SameLabel && Match->second == PausedIsA)
        continue;
      const PendingAccess &Other = Match->first;
      if (Other.Obj != PausedAccess.Obj ||
          Other.IsElem != PausedAccess.IsElem ||
          (Other.IsElem && Other.ElemIndex != PausedAccess.ElemIndex))
        continue;
      if (!Other.IsWrite && !PausedAccess.IsWrite)
        continue;

      // Reproduced: both threads are at the racy accesses simultaneously.
      RaceReport R;
      R.Detector = "confirm";
      if (M.heap().isValid(PausedAccess.Obj) &&
          M.heap().object(PausedAccess.Obj).Class)
        R.ClassName = M.heap().object(PausedAccess.Obj).Class->Name;
      R.Field = PausedAccess.IsElem ? "[]" : *PausedAccess.Field;
      R.Obj = PausedAccess.Obj;
      R.IsElem = PausedAccess.IsElem;
      R.ElemIndex = PausedAccess.ElemIndex;
      R.FirstLabel = PausedAccess.point().label();
      R.SecondLabel = Other.point().label();
      R.FirstThread = Paused;
      R.SecondThread = T;
      R.FirstIsWrite = PausedAccess.IsWrite;
      R.SecondIsWrite = Other.IsWrite;
      Confirmed = std::move(R);
      obs::MetricsRegistry::global().counter("confirm.races_paired").inc();

      ThreadId First = SecondFirst ? T : Paused;
      ThreadId Second = SecondFirst ? Paused : T;
      Paused = NoThread;
      FireNext = Second;
      return First;
    }

    if (++PausedFor > PauseBudget) {
      // Give up: the partner never arrived (the context may not share the
      // object).  Release the paused thread.
      obs::MetricsRegistry::global().counter("confirm.pause_timeouts").inc();
      ThreadId Released = Paused;
      Paused = NoThread;
      PausedFor = 0;
      return Released;
    }

    // Keep the paused thread parked; run anyone else.
    if (Runnable.size() == 1) {
      ThreadId Released = Paused;
      Paused = NoThread;
      return Released;
    }
    return pickOther(Runnable, Paused);
  }

  Paused = NoThread;

  // No pause active: park the first thread that reaches a candidate access
  // (unless a confirmation already happened — then just run randomly).
  if (!Confirmed) {
    for (ThreadId T : Runnable) {
      std::optional<std::pair<PendingAccess, bool>> Match = matchAt(T, M);
      if (!Match)
        continue;
      if (Runnable.size() == 1)
        break; // Cannot park the only runnable thread.
      obs::MetricsRegistry::global().counter("confirm.threads_paused").inc();
      Paused = T;
      PausedAccess = Match->first;
      PausedIsA = Match->second;
      PausedFor = 0;
      return pickOther(Runnable, T);
    }
  }

  return Runnable[Rand.nextBelow(Runnable.size())];
}
