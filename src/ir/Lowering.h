//===- ir/Lowering.h - AST to IR lowering -----------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a type-checked MiniJava Program to an IRModule:
///   - 'synchronized' methods are desugared into a body-wide monitor region
///     on 'this' (Fig. 7 models these as explicit lock/unlock trace events);
///   - 'spawn' blocks are extracted into closure functions whose parameters
///     are the captured locals;
///   - short-circuit '&&'/'||' become branches;
///   - every Invoke is statically resolved (MiniJava has no inheritance).
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_IR_LOWERING_H
#define NARADA_IR_LOWERING_H

#include "ir/IR.h"
#include "lang/AST.h"
#include "lang/Sema.h"
#include "support/Error.h"

#include <memory>

namespace narada {

/// Lowers the checked program \p Prog (with symbol tables \p Info) to IR.
/// The program must have passed Sema.
Result<std::shared_ptr<IRModule>> lower(const Program &Prog,
                                        std::shared_ptr<ProgramInfo> Info);

/// Lowers one additional test, checked against the module's symbol tables
/// (analyzeTests), into an existing module: links its invokes against the
/// module's methods and verifies it and its spawn closures
/// (verifyFunction) before adding them, so on error \p M is unchanged.
/// The test's name must be fresh within the module.  compileTestsInto
/// (runtime/Execution.h) adds the tests of a source text this way.
Result<const IRFunction *> lowerTestInto(IRModule &M, const TestDecl &Test);

} // namespace narada

#endif // NARADA_IR_LOWERING_H
