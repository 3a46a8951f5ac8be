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
/// static-verdicts job): a reported must-lock is held on *every* concrete
/// execution reaching the access, and a summary without Incomplete lists
/// *every* access the method can perform.  See docs/STATIC.md.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_STATICRACE_LOCKSETANALYSIS_H
#define NARADA_STATICRACE_LOCKSETANALYSIS_H

#include "staticrace/StaticSummary.h"

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

} // namespace staticrace
} // namespace narada

#endif // NARADA_STATICRACE_LOCKSETANALYSIS_H
