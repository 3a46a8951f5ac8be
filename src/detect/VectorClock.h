//===- detect/VectorClock.h - Vector clocks ---------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector clocks and epochs for happens-before race detection, in the style
/// of FastTrack (Flanagan & Freund, PLDI'09) — the detector family the
/// paper's RaceFuzzer integration relies on for precise race checking.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_VECTORCLOCK_H
#define NARADA_DETECT_VECTORCLOCK_H

#include "runtime/Heap.h"

#include <cstdint>
#include <vector>

namespace narada {

/// A grow-on-demand vector clock indexed by thread id.
class VectorClock {
public:
  /// True for a clock no component was ever set in.
  bool empty() const { return Clocks.empty(); }

  /// The component for thread \p T (0 when never set).
  uint64_t get(ThreadId T) const {
    return T < Clocks.size() ? Clocks[T] : 0;
  }

  void set(ThreadId T, uint64_t Val) {
    if (T >= Clocks.size())
      Clocks.resize(T + 1, 0);
    Clocks[T] = Val;
  }

  /// Advances this thread's own component.
  void tick(ThreadId T) { set(T, get(T) + 1); }

  /// Pointwise maximum with \p Other.
  void joinWith(const VectorClock &Other) {
    if (Other.Clocks.size() > Clocks.size())
      Clocks.resize(Other.Clocks.size(), 0);
    for (size_t I = 0; I < Other.Clocks.size(); ++I)
      if (Other.Clocks[I] > Clocks[I])
        Clocks[I] = Other.Clocks[I];
  }

  /// True when this clock is pointwise <= \p Other (this happens-before or
  /// equals Other's view).
  bool leq(const VectorClock &Other) const {
    for (size_t I = 0; I < Clocks.size(); ++I)
      if (Clocks[I] > Other.get(static_cast<ThreadId>(I)))
        return false;
    return true;
  }

private:
  std::vector<uint64_t> Clocks;
};

/// A FastTrack epoch: one (thread, clock) pair — the compact representation
/// for variables accessed by one thread at a time.
struct Epoch {
  ThreadId Thread = NoThread;
  uint64_t Clock = 0;

  bool isSet() const { return Thread != NoThread; }

  /// epoch ⊑ C  iff  Clock <= C[Thread].
  bool leq(const VectorClock &C) const {
    return !isSet() || Clock <= C.get(Thread);
  }
};

} // namespace narada

#endif // NARADA_DETECT_VECTORCLOCK_H
