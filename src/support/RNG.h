//===- support/RNG.h - Deterministic random number generator ---*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic PRNG (SplitMix64).  Scheduler interleavings,
/// the ConTeGe baseline and the RaceFuzzer-style confirmation runs must be
/// reproducible from a seed, so std::random_device is never used.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_RNG_H
#define NARADA_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>

namespace narada {

/// SplitMix64 pseudo-random generator.  Deterministic for a given seed.
class RNG {
public:
  explicit RNG(uint64_t Seed) : State(Seed) {}

  /// Returns the next 64 random bits.
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Returns a value uniformly distributed in [0, Bound).  \p Bound must be
  /// nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow(0) is meaningless");
    // Modulo bias is negligible for the small bounds used here (thread
    // counts, method counts) and determinism matters more than uniformity.
    uint64_t X = next();
    // A scheduler draws over 1-4 runnable threads on almost every step:
    // those bounds take a mask or a division by a constant (a multiply)
    // instead of a 64-bit divide, with the same result as X % Bound.
    switch (Bound) {
    case 1:
      return 0;
    case 2:
      return X & 1;
    case 3:
      return X % 3;
    case 4:
      return X & 3;
    default:
      return X % Bound;
    }
  }

  /// Returns true with probability Numerator/Denominator.
  bool chance(uint64_t Numerator, uint64_t Denominator) {
    assert(Denominator != 0 && "zero denominator");
    return nextBelow(Denominator) < Numerator;
  }

  /// Forks an independent stream; useful for giving each synthesized test its
  /// own generator without correlating the streams.
  RNG fork() { return RNG(next() ^ 0xd1b54a32d192ed03ULL); }

private:
  uint64_t State;
};

} // namespace narada

#endif // NARADA_SUPPORT_RNG_H
