//===- serve/CacheFile.h - On-disk daemon cache persistence -----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of the daemon's one durable cache (docs/SERVING.md):
/// the detection-stage memo.  The file is a sequence of support/Wire.h
/// frames — the same length-prefixed record format every other Narada
/// wire surface uses — starting with a versioned header:
///
///   frame 0:  magic=narada.serve_cache  version=4
///   frame N:  kind=detect_memo  one detect-stage memo entry
///
/// Older versions (which also held static summaries or derivation memo
/// scopes) fail the load by version, so the daemon starts cold once.
///
/// Loading is all-or-nothing per file: any anomaly (bad magic, other
/// version, truncated frame, malformed entry) fails the load and the
/// daemon starts cold — a cache is a speedup, never a correctness input,
/// so the only safe reaction to corruption is to ignore the file.
/// Writing goes through a temp file + rename so a crash mid-save leaves
/// the previous cache intact.  Every entry carries its frame, encoded
/// once when the entry is stored (or kept as read when it is loaded), so
/// a save writes the header plus the kept frames and encodes nothing; the
/// serve layer saves only after a request that changed the memo.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SERVE_CACHEFILE_H
#define NARADA_SERVE_CACHEFILE_H

#include "detect/Detection.h"
#include "support/Error.h"

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace narada {
namespace serve {

/// Everything the cache file holds, in load/store form.  Each entry keeps
/// the frame it is saved as: encoded once when the entry is stored, or
/// kept as read when it is loaded.  So a save encodes nothing.
struct CacheSnapshot {
  /// One detect-stage memo entry: the per-test detection results a prior
  /// identical run produced.
  struct DetectEntry {
    /// Encodes the entry's frame.
    DetectEntry(uint64_t Key, std::vector<TestDetectionResult> Results);
    /// Keeps \p Frame, the payload the entry was decoded from.
    DetectEntry(std::vector<TestDetectionResult> Results, std::string Frame);
    std::vector<TestDetectionResult> Results;
    std::string Frame; ///< The `detect_memo` frame's payload.
  };
  /// Detect-stage memo, keyed by detect stage key (detectStageKey).
  /// Bounded (the serve layer evicts FIFO via DetectOrder), and persisted
  /// so a daemon restart keeps replay-free detection hits warm.
  std::map<uint64_t, DetectEntry> DetectMemo;
  /// Insertion order of DetectMemo keys — the FIFO eviction queue.  Saved
  /// and restored so eviction behaves identically across a restart.
  std::deque<uint64_t> DetectOrder;
};

/// Writes \p Snapshot to \p Path atomically (temp file + rename): the
/// header, then the memo entries' kept frames in FIFO order.  Returns
/// false (with a warning on stderr) when the file cannot be written; the
/// daemon keeps serving from memory.
bool saveCacheFile(const std::string &Path, const CacheSnapshot &Snapshot);

/// Loads \p Path.  Errors on any corruption or version mismatch — the
/// caller logs and starts cold.  A missing file is also an error (callers
/// that treat "no file yet" as a normal cold start should stat first or
/// just ignore the error).
Result<CacheSnapshot> loadCacheFile(const std::string &Path);

} // namespace serve
} // namespace narada

#endif // NARADA_SERVE_CACHEFILE_H
