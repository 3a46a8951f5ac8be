//===- gen/SeedGen.h - Method-sequence seed test generator ------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits one sequential MiniJava seed test at a time: receiver
/// construction, typed value pools, and a weighted method-call chain over
/// the ApiModel — the RamFuzz "method invocation chain" restated for the
/// Narada pipeline's seed-suite input format.  Every emitted program is
/// well-typed by construction (arguments are drawn only from pools of the
/// parameter's exact type, with 'null' as the last resort for reference
/// slots), straight-line, and spawn-free, so it satisfies SeedNormalizer's
/// contract verbatim.
///
/// Determinism contract: generation consumes exactly one caller-provided
/// RNG and iterates only ordered containers, so a fixed (model, options,
/// weights, seed) quadruple reproduces the test source byte for byte — the
/// property the engine's split-seed discipline (candidateSeed) builds on.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_GEN_SEEDGEN_H
#define NARADA_GEN_SEEDGEN_H

#include "gen/ApiModel.h"
#include "support/RNG.h"

#include <map>
#include <string>

namespace narada {
namespace gen {

/// Per-method steering weights, keyed by "Class.method" (methodSymbol
/// format).  Methods absent from the map weigh 1; the engine raises the
/// weight of methods participating in statically suspicious, not-yet-
/// covered pairs (see GenEngine.h).
using MethodWeights = std::map<std::string, unsigned>;

/// Generates one seed test named \p TestName.  Returns the complete test
/// source ("test name {...}").  Receivers are drawn from \p FocusClass
/// (empty: uniformly from every constructible modeled class).  \p R is the
/// candidate's private RNG stream.
std::string generateSeedTest(const ApiModel &Model,
                             const std::string &FocusClass,
                             const MethodWeights &Weights,
                             const std::string &TestName, RNG &R);

/// Generates the API-sweep variant: constructs every constructible class,
/// then calls every method of every class in declaration order — the focus
/// class twice, so its second pass observes the state the first pass built
/// (hand-written seed suites have exactly this construct-populate-exercise
/// shape, which random chains reach only by luck).  Reference arguments
/// alternate between freshly constructed and pooled objects, so transfer
/// methods see both empty and populated peers.  \p R only varies argument
/// choices; the call skeleton is fixed by the model.
std::string generateSweepSeedTest(const ApiModel &Model,
                                  const std::string &FocusClass,
                                  const std::string &TestName, RNG &R);

} // namespace gen
} // namespace narada

#endif // NARADA_GEN_SEEDGEN_H
