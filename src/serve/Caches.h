//===- serve/Caches.h - The daemon's persistent cache layer -----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heart of `narada-cli serve` (docs/SERVING.md): content-addressed
/// caches that survive in memory across requests and, via serve/CacheFile,
/// on disk across restarts (written by save() only when a request changed
/// a persisted store).  Three stores, all keyed by source digests so a
/// resubmitted bundle hits and an edited one invalidates exactly what its
/// edit reaches:
///
///  - summary store: per-method StaticSummary entries keyed by (symbol,
///    dependence-cone digest) — the staticrace::SummaryStore behind
///    summarizeModuleIncremental, so editing one method re-analyzes only
///    the methods whose cone contains it (persisted);
///  - seed analysis: per-(source digest, seed name) AnalysisResult — a
///    hit skips executing that seed entirely (in-memory only);
///  - detection stage memo: whole detectRacesInTests result vectors keyed
///    by the engine's stage digest (FIFO-capped, persisted so restarts
///    keep replay-free detection warm).
///
/// Context derivation is not cached: its plans depend on the seed list as
/// well as the source, and it is cheap to recompute.
///
/// Correctness rests on every cached value being exactly what the cold
/// computation would produce for the same keyed inputs; the serve tests
/// and the CI daemon-smoke job gate warm-equals-cold byte identity.
///
/// Counters (config-dependent, see tools/report-diff.py):
/// serve.cache.{summary,analysis,detect}.{hits,misses},
/// serve.cache.summary.invalidated, serve.cone_reanalyzed_methods.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SERVE_CACHES_H
#define NARADA_SERVE_CACHES_H

#include "serve/CacheFile.h"
#include "serve/Engine.h"
#include "synth/Narada.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace narada {
namespace serve {

/// All daemon caches plus the hook plumbing that threads them through the
/// engine.  Single-threaded by design: the daemon serves requests
/// sequentially (the parallelism lives inside a request's pipeline).
class ServeCaches {
public:
  /// \p CacheFilePath: where to persist summaries and detection results
  /// ("" = in-memory only).  An existing file is loaded eagerly;
  /// corruption or a version mismatch logs a warning and starts cold
  /// (never an error).
  explicit ServeCaches(std::string CacheFilePath);

  ServeCaches(const ServeCaches &) = delete;
  ServeCaches &operator=(const ServeCaches &) = delete;

  /// Hook state for one request; must outlive the engine call it is
  /// passed to.  Hooks is wired to this ServeCaches instance.
  struct Request {
    EngineHooks Hooks;
    /// Built lazily when the engine calls PipelineFor (after --gen-seeds
    /// source replacement, so keys cover the true pipeline input).
    std::unique_ptr<PipelineCaches> Pipeline;
  };

  /// Builds the hook set for a request on \p InputName (file path or
  /// corpus id — the invalidation edge for renamed-content detection).
  std::unique_ptr<Request> beginRequest(const std::string &InputName);

  /// Persists the durable stores to the cache file when they changed
  /// since the last successful save; no-op (true) when nothing changed or
  /// no path was configured, false on write failure (the daemon keeps
  /// serving, and the next save() retries).
  bool save();

  /// True when construction found and loaded a valid cache file.
  bool loadedFromDisk() const { return LoadedFromDisk; }

  // Introspection for tests and logs.
  size_t summaryCount() const { return State.Summaries.size(); }
  size_t detectMemoCount() const { return State.DetectMemo.size(); }

private:
  /// staticrace::SummaryStore over State.Summaries, counting digest
  /// replacements as serve.cache.summary.invalidated and marking every
  /// store as a change.
  class SummaryStoreImpl;

  /// Records that \p InputName now resolves to \p Digest, dropping the
  /// previous digest's seed-analysis scope when the content changed under
  /// the same name.
  void touchInput(const std::string &InputName, uint64_t Digest);

  std::string CacheFilePath;
  bool LoadedFromDisk = false;
  CacheSnapshot State; ///< The durable stores, in persistable form.
  /// True while State holds a change the cache file lacks: a new or
  /// replaced summary, a detect-memo insert (with its eviction), or a
  /// cold start on a configured path.  Cleared by a successful save().
  bool Changed = false;

  /// Seed-name -> analysis scopes keyed by source digest (volatile).
  std::map<uint64_t, std::map<std::string, AnalysisResult>> SeedAnalysis;
  /// Input name (file path / corpus id) -> last seen source digest; the
  /// invalidation edge that lets an edited module drop its stale scope.
  std::map<std::string, uint64_t> InputDigests;

  /// FIFO cap on State.DetectMemo — result vectors for big corpora are
  /// large, and a bounded daemon must not grow without limit.
  static constexpr size_t MaxDetectEntries = 64;
};

} // namespace serve
} // namespace narada

#endif // NARADA_SERVE_CACHES_H
