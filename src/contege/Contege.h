//===- contege/Contege.h - Random concurrent test generation ----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ConTeGe-style baseline (Pradel & Gross, PLDI'12), the system the paper
/// compares against in §5.  ConTeGe generates *random* concurrent tests: a
/// sequential prefix that builds objects and drives the class under test to
/// some state, then two suffixes of random calls executed by two threads
/// against the same instance.  Its oracle is a thread-safety violation:
/// the concurrent execution crashes or deadlocks while every linearization
/// of the two suffixes runs cleanly.
///
/// The contrast the paper draws — and this module reproduces — is search
/// strategy: ConTeGe samples the (method pair × object sharing) space
/// blindly, so it needs thousands of tests where Narada's analysis-directed
/// synthesis needs tens, and it only notices races whose interleavings
/// *crash*; silent lost-update races are invisible to its oracle.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_CONTEGE_CONTEGE_H
#define NARADA_CONTEGE_CONTEGE_H

#include "runtime/Execution.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace narada {

/// Generation and execution parameters.
struct ContegeOptions {
  uint64_t Seed = 1;
  unsigned MaxTests = 200;        ///< Tests to generate and run.
  unsigned SchedulesPerTest = 6;  ///< Interleavings tried per test.
  bool StopAtFirstViolation = false;
};

/// What the baseline found.
struct ContegeResult {
  unsigned TestsGenerated = 0;
  unsigned ViolationsFound = 0;       ///< Crash/deadlock thread-safety
                                      ///< violations (the ConTeGe oracle).
  unsigned TestsToFirstViolation = 0; ///< 0 when none found.
  unsigned SilentRacyTests = 0;       ///< Tests with HB races but no crash.
  std::vector<std::string> ViolatingTests; ///< Source of violating tests.
  double Seconds = 0.0;
};

/// Runs the baseline against class \p CutClass of \p LibrarySource.
Result<ContegeResult> runContege(std::string_view LibrarySource,
                                 const std::string &CutClass,
                                 const ContegeOptions &Options = {});

} // namespace narada

#endif // NARADA_CONTEGE_CONTEGE_H
