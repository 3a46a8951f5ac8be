//===- serve/Caches.h - The daemon's persistent cache layer -----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of `narada-cli serve` (docs/SERVING.md): one cache, the
/// detection-stage memo, which survives in memory across requests and,
/// via serve/CacheFile, on disk across restarts (written by save() only
/// when a request changed it).  It maps the engine's stage digest (final
/// source, detect options, job list) to the whole detectRacesInTests
/// result vector, FIFO-capped at MaxDetectEntries.
///
/// Every other stage (front end, seed analysis, static summaries, pair
/// generation, context derivation, synthesis) runs afresh on each
/// request, exactly as the CLI runs it: they cost a few milliseconds,
/// while detection is where a request spends its time.
///
/// Correctness rests on every memoized result being exactly what the cold
/// detection stage would produce for the same key; the serve tests and
/// the CI daemon-smoke job gate warm-equals-cold byte identity.
///
/// Counters (config-dependent, see tools/report-diff.py):
/// serve.cache.detect.{hits,misses}.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SERVE_CACHES_H
#define NARADA_SERVE_CACHES_H

#include "serve/CacheFile.h"
#include "serve/Engine.h"

#include <cstddef>
#include <string>

namespace narada {
namespace serve {

/// The daemon's detection memo plus the engine hooks that reach it.
/// Single-threaded by design: the daemon serves requests sequentially
/// (the parallelism lives inside a request's pipeline).
class ServeCaches {
public:
  /// \p CacheFilePath: where to persist the memo ("" = in-memory only).
  /// An existing file is loaded eagerly; corruption or a version mismatch
  /// logs a warning and starts cold (never an error).
  explicit ServeCaches(std::string CacheFilePath);

  ServeCaches(const ServeCaches &) = delete;
  ServeCaches &operator=(const ServeCaches &) = delete;

  /// The hooks to pass to the engine: LookupDetect/StoreDetect over the
  /// memo.  Built once; valid for this object's lifetime.
  const EngineHooks &hooks() const { return Hooks; }

  /// Persists the memo to the cache file when it changed since the last
  /// successful save; no-op (true) when nothing changed or no path was
  /// configured, false on write failure (the daemon keeps serving, and
  /// the next save() retries).
  bool save();

  /// True when construction found and loaded a valid cache file.
  bool loadedFromDisk() const { return LoadedFromDisk; }

  // Introspection for tests and logs.
  size_t detectMemoCount() const { return State.DetectMemo.size(); }

private:
  std::string CacheFilePath;
  bool LoadedFromDisk = false;
  CacheSnapshot State; ///< The memo, in persistable form.
  /// True while State holds a change the cache file lacks: a memo insert
  /// (with its eviction), or a cold start on a configured path.  Cleared
  /// by a successful save().
  bool Changed = false;
  EngineHooks Hooks;

  /// FIFO cap on State.DetectMemo — result vectors for big corpora are
  /// large, and a bounded daemon must not grow without limit.
  static constexpr size_t MaxDetectEntries = 64;
};

} // namespace serve
} // namespace narada

#endif // NARADA_SERVE_CACHES_H
