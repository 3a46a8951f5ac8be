//===- staticrace/LocksetAnalysis.h - Must-lockset abstract interp *- C++ -*-=//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flow-sensitive abstract interpretation over the lowered IR that
/// computes the per-method summaries of StaticSummary.h without executing
/// anything:
///
///  - register domain: Bottom < {Path(entry-rooted access path), Fresh}
///    < Unknown; loads extend paths, stores invalidate, joins meet;
///  - lock domain: a must-held multiset of entry-rooted monitor paths plus
///    a count of unknown-identity monitors; joins intersect (take minimum
///    counts), so a monitor survives a join only when held on both edges —
///    exactly the shape a lock imbalance across branches produces;
///  - call digests: callee summaries are rebased through the actual
///    argument values at each call site over a bounded number of rounds,
///    adding the caller's own must-locks, while accesses keep their
///    innermost static label so they line up with dynamic AccessRecords.
///
/// Soundness contract (held by tests/staticrace_test.cpp and the CI
/// prefilter sweep): a reported must-lock is held on *every* concrete
/// execution reaching the access, and a summary without Incomplete lists
/// *every* access the method can perform.  See docs/STATIC.md.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_STATICRACE_LOCKSETANALYSIS_H
#define NARADA_STATICRACE_LOCKSETANALYSIS_H

#include "staticrace/StaticSummary.h"

#include <cstdint>
#include <map>
#include <string>

namespace narada {

class IRModule;
class IRFunction;

namespace staticrace {

/// Maximum access-path depth tracked; deeper paths abstract to Unknown.
/// This and the other bounds of the abstraction (LocksetAnalysis.cpp)
/// comfortably cover the C1–C9 corpus.
constexpr unsigned MaxPathDepth = 8;

/// Summarizes every Kind::Method function of \p M.  Bumps the
/// "staticrace.methods_summarized" counter.
ModuleSummary summarizeModule(const IRModule &M);

/// Summarizes one function in isolation (no call composition beyond
/// built-ins); exposed for unit tests over hand-built IR.
MethodSummary summarizeFunctionIntra(const IRFunction &F);

//===----------------------------------------------------------------------===//
// Incremental summarization (serve/SummaryCache)
//===----------------------------------------------------------------------===//
//
// A method's summary is a pure function of its *dependence cone* — its own
// body plus the bodies of every transitively callable method — and the
// abstraction bounds.  methodConeDigests() hashes exactly that input (printed
// IR per body, FNV-1a over the sorted cone), so equal digests imply equal
// summaries and an edit to one method invalidates precisely the methods
// whose cone contains it.

/// One cached per-method summary.  Exact records that the producing run
/// reached the true least fixpoint module-wide (composition converged and
/// no method hit MaxAccessesPerMethod); only Exact entries may seed an
/// incremental run — a capped or non-converged summary depends on
/// insertion order, not just on the cone.
struct CachedSummary {
  MethodSummary Summary;
  bool Exact = false;
};

/// Abstract persistent store keyed by (method symbol, cone digest).
/// Implementations live in serve/; the analysis only reads and writes.
class SummaryStore {
public:
  virtual ~SummaryStore() = default;
  /// Returns the entry for \p Symbol at exactly \p ConeDigest, or null.
  /// The pointer stays valid until the next store() call.
  virtual const CachedSummary *lookup(const std::string &Symbol,
                                      uint64_t ConeDigest) const = 0;
  virtual void store(const std::string &Symbol, uint64_t ConeDigest,
                     CachedSummary Entry) = 0;
};

/// What an incremental run did, for cache counters and tests.
struct IncrementalStats {
  size_t Methods = 0;    ///< Methods in the module.
  size_t Hits = 0;       ///< Pinned straight from the store.
  size_t Reanalyzed = 0; ///< Analyzed and composed this run.
  bool FullRecompute = false; ///< Pins were abandoned (cap/non-convergence).
};

/// Per-method dependence-cone digests for every Kind::Method function of
/// \p M, folding in the abstraction bounds (a bound change invalidates
/// everything).
std::map<std::string, uint64_t> methodConeDigests(const IRModule &M);

/// summarizeModule with a memo: methods whose cone digest hits an Exact
/// store entry are pinned to the cached summary and only the remaining
/// methods re-run analysis and composition (consuming pinned finals).
/// Falls back to a full recompute — still through this call, still byte-
/// identical to summarizeModule — when the restricted composition hits the
/// access cap or fails to converge.  When the run was Exact, stores back
/// the summaries it computed: the reanalyzed methods, or every method
/// after a full recompute, so a warm run on an unchanged module stores
/// nothing.  Bumps "staticrace.methods_summarized" by the number of
/// methods actually reanalyzed.
ModuleSummary summarizeModuleIncremental(const IRModule &M,
                                         SummaryStore &Store,
                                         IncrementalStats *Stats = nullptr);

} // namespace staticrace
} // namespace narada

#endif // NARADA_STATICRACE_LOCKSETANALYSIS_H
