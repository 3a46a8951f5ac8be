//===- support/Digest.h - Content digests -----------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one digest primitive in the tree: 64-bit FNV-1a over byte strings
/// and 8-byte words.  It keys the serve daemon's detection memo
/// (serve/Engine's stage key), names each run's final source in reports
/// and the race database (`source_digest`), and, through digestValue
/// (runtime/Value.h), hashes heaps (Heap::stateHash) and the values seen
/// at racy accesses during confirmation.  Digests are cache keys, not
/// security boundaries — a collision costs a stale-but-plausible cache hit
/// on adversarial input, which the daemon does not defend against (its
/// clients are trusted CI fleets; see docs/SERVING.md).
///
/// Fnv1aOffset (1469598103934665603) is not FNV-1a's offset basis
/// (14695981039346656037, Fnv1aBasis): it lacks the basis's last digit.
/// It stays, because the race database's `source_digest` and
/// tests/golden/final_module_digests.golden were recorded with it.  The
/// heap and observed-value hashes start from Fnv1aBasis.
///
/// The functions are fixed forever: memo keys are persisted in the
/// daemon's on-disk cache file, so changing them requires bumping the
/// cache schema version (serve/CacheFile.h) to force a cold fallback.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_DIGEST_H
#define NARADA_SUPPORT_DIGEST_H

#include <cstdint>
#include <string>
#include <string_view>

namespace narada {
namespace digest {

inline constexpr uint64_t Fnv1aOffset = 1469598103934665603ull;
inline constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t Fnv1aPrime = 1099511628211ull;

/// Extends digest \p H with the bytes of \p Data.
inline uint64_t update(uint64_t H, std::string_view Data) {
  for (unsigned char C : Data) {
    H ^= C;
    H *= Fnv1aPrime;
  }
  return H;
}

/// Extends digest \p H with an already-computed digest \p D (8 bytes,
/// little-endian), so composed digests don't degenerate into plain
/// concatenation of the underlying texts.
inline uint64_t updateU64(uint64_t H, uint64_t D) {
  for (int I = 0; I < 8; ++I) {
    H ^= static_cast<unsigned char>(D >> (8 * I));
    H *= Fnv1aPrime;
  }
  return H;
}

/// 64-bit FNV-1a of \p Data.
inline uint64_t of(std::string_view Data) {
  return update(Fnv1aOffset, Data);
}

/// Fixed-width lower-case hex rendering for logs and cache records.
inline std::string hex(uint64_t D) {
  static const char *Digits = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[static_cast<size_t>(I)] = Digits[D & 0xf];
    D >>= 4;
  }
  return Out;
}

} // namespace digest
} // namespace narada

#endif // NARADA_SUPPORT_DIGEST_H
