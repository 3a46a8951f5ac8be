//===- synth/SeedNormalizer.h - Seed test normalization ---------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rewrites a sequential seed test into the *normalized* form the test
/// synthesizer consumes: straight-line statements where every method call
/// and allocation has only variable references or literals as its receiver
/// and arguments.  Nested calls are hoisted into fresh temporaries.  In this
/// form, "suspend the seed execution before the invocation of interest and
/// collect the objects passed to it" (Algorithm 1's collectObjects) becomes
/// a purely syntactic operation: inline the statement prefix and read off
/// the operand variable names.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_SEEDNORMALIZER_H
#define NARADA_SYNTH_SEEDNORMALIZER_H

#include "lang/AST.h"
#include "lang/Sema.h"
#include "support/Error.h"

#include <memory>

namespace narada {

/// Normalizes \p Seed.  The test must be straight-line (no control flow or
/// spawn) and must have passed Sema so expressions carry types.  Returns a
/// fresh TestDecl with the same name.
Result<std::unique_ptr<TestDecl>> normalizeSeed(const TestDecl &Seed,
                                                const ProgramInfo &Info);

} // namespace narada

#endif // NARADA_SYNTH_SEEDNORMALIZER_H
