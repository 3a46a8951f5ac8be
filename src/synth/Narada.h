//===- synth/Narada.h - End-to-end test synthesis pipeline ------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Narada pipeline (Fig. 6): Access Analyzer -> Pair Generator ->
/// Context Deriver -> Test Synthesizer.  Input: a MiniJava library plus a
/// sequential seed test suite.  Output: a compiled program extended with
/// synthesized multithreaded tests, each a printable client program whose
/// execution is conducive to manifesting a library race.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_NARADA_H
#define NARADA_SYNTH_NARADA_H

#include "runtime/Execution.h"
#include "staticrace/StaticSummary.h"
#include "support/ProcessPool.h"
#include "synth/PairGenerator.h"
#include "synth/RacyPair.h"
#include "synth/TestSynthesizer.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace narada {

/// Pipeline options.
struct NaradaOptions {
  /// Restrict pair generation to methods of one class (the paper evaluates
  /// one class at a time); empty analyzes everything.
  std::string FocusClass;
  /// Ablation switch: with context derivation disabled every test uses
  /// fresh unconstrained instances, i.e. no object sharing is staged.
  bool EnableContextDerivation = true;
  /// When set, the context deriver chooses uniformly among the applicable
  /// setter/factory derivations instead of the first one — the paper's §4
  /// "randomly selects one of the possible methods".
  std::optional<uint64_t> DerivationSeed;
  /// Worker threads for the per-pair synthesis stage (and, in the CLI, the
  /// per-test detection/confirmation stages): 1 = serial on the calling
  /// thread, 0 = one worker per hardware thread.  Output is byte-identical
  /// for every value — see synth/ParallelDriver.h.
  unsigned Jobs = 1;
  /// Run the static race pre-analysis (src/staticrace/) over the lowered
  /// module and give every generated pair its verdict (docs/STATIC.md),
  /// which detect output shows as a "[static: ...]" annotation.  The
  /// verdicts filter and reorder nothing.
  bool StaticVerdicts = false;
  /// StaticVerdicts, plus a stable sort of the candidate pairs
  /// most-racy-first (MayRace < Unknown < MustGuarded) before synthesis;
  /// byte-identical across --jobs because ranking happens before the
  /// parallel stage.
  bool StaticRank = false;
  /// Out-of-process worker isolation (--isolate): run per-pair derivation
  /// and synthesis units in crash-contained worker subprocesses.  Clean
  /// runs stay byte-identical to in-process mode; a hard fault (SIGSEGV,
  /// abort, OOM kill, hang) costs exactly the faulting unit, which lands
  /// in Skipped as a worker_crash record.
  pool::IsolateOptions Isolate;
};

/// Metadata for one synthesized multithreaded test.
struct SynthesizedTestInfo {
  std::string Name;
  std::string SourceText; ///< The printed client program (cf. Fig. 3).
  RacyPair Representative;
  std::vector<std::string> CoveredPairKeys; ///< All pairs this test targets.
  bool ContextComplete = true; ///< False when the prefix fallback was used.
  std::string SharedClassName;
  std::string Field; ///< The raced-on field.
  /// Candidate racy access label pairs, consumed by the RaceFuzzer-style
  /// confirmation scheduler.
  std::vector<std::pair<std::string, std::string>> CandidateLabels;
};

/// Why a racy pair did not get its own synthesized test.  Stable ids (see
/// skipReasonId) key the "synth.pairs_skipped.<reason>" counters so run
/// reports aggregate skip causes instead of carrying free-form strings.
enum class SkipReason {
  NoSeedProvider,     ///< No seed test builds an instance of a needed class.
  NoSeedCallSite,     ///< No seed invocation to template a required call on.
  DerivationMismatch, ///< The derived plan could not be realized on the
                      ///< seed material (parameter/normalization mismatch).
  InternalFault,      ///< The pair's derivation/synthesis task crashed
                      ///< (exception captured by the containment barrier);
                      ///< the rest of the run proceeded without it.
  WorkerCrash,        ///< Under --isolate: the unit hard-faulted its worker
                      ///< subprocess (signal, watchdog timeout, OOM, or
                      ///< protocol breakdown) and was quarantined with the
                      ///< crash classification in Message.
  Other,              ///< Anything else (kept for forward compatibility).
};

/// The stable snake_case id of \p Reason ("no_seed_provider", ...).
const char *skipReasonId(SkipReason Reason);

/// One pair that was not synthesized: which, why, and the detail message.
struct SkippedPair {
  std::string PairKey;
  SkipReason Reason = SkipReason::Other;
  std::string Message; ///< Human-readable detail.

  /// "pair-key: reason-id: message" for logs and diagnostics.
  std::string str() const;
};

/// Per-stage wall times of one runNarada call, accumulated by the obs
/// spans that time the run (support/Timer is the single clock source).
struct NaradaStageTimes {
  double FrontendSeconds = 0.0;  ///< Library + seed compilation passes.
  double AnalysisSeconds = 0.0;  ///< Seed execution + trace analysis.
  double StaticRaceSeconds = 0.0; ///< Static pre-analysis (when enabled).
  double PairGenSeconds = 0.0;   ///< Candidate racy-pair generation.
  double SynthesisSeconds = 0.0; ///< Context derivation + test emission.
  double RecompileSeconds = 0.0; ///< Final library+tests compilation.

  double totalSeconds() const {
    return FrontendSeconds + AnalysisSeconds + StaticRaceSeconds +
           PairGenSeconds + SynthesisSeconds + RecompileSeconds;
  }
};

/// Everything the pipeline produces.
struct NaradaResult {
  /// The final compiled program: library + normalized seeds + synthesized
  /// tests, ready to run under the detectors.
  CompiledProgram Program;
  AnalysisResult Analysis;
  std::vector<RacyPair> Pairs;
  std::vector<SynthesizedTestInfo> Tests;
  /// Pairs that could not be synthesized, with structured reasons.
  std::vector<SkippedPair> Skipped;
  /// The exact source text Program was compiled from (normalized library +
  /// seeds + synthesized tests) — what an isolated detect worker recompiles
  /// to reach an identical module.
  std::string FinalSource;
  NaradaStageTimes Stages;
};

/// What the synthesis stage consumes: the pipeline's front half, built
/// deterministically from (source, seeds, options).
struct NaradaFrontHalf {
  /// The library plus its normalized seeds, and the source it was
  /// compiled from.
  CompiledProgram Program;
  std::string NormalizedSource;
  AnalysisResult Analysis;
  /// Static per-method summaries; null unless StaticVerdicts/StaticRank.
  std::shared_ptr<const staticrace::ModuleSummary> Static;
  std::vector<RacyPair> Pairs;
  SeedRegistry Registry;
  /// Frontend, analysis, static and pairgen times; the rest stay zero.
  NaradaStageTimes Stages;
};

/// Stages 1-2a of runNarada plus the seed registry: compiles the library
/// and normalizes the seeds, runs and analyzes the seeds, summarizes the
/// module when StaticVerdicts or StaticRank asks, generates the
/// candidate pairs and
/// builds the seed registry.  Each stage runs in its span (frontend,
/// analyze, staticrace, pairgen) under the caller's innermost span; the
/// registry is built outside them.
/// runNarada and the --isolate synthesis worker (synth/SynthWorker.h) both
/// start here, so the worker's pair table matches the supervisor's index
/// for index.
Result<NaradaFrontHalf>
runNaradaFrontHalf(std::string_view LibrarySource,
                   const std::vector<std::string> &SeedNames,
                   const NaradaOptions &Options);

/// Runs the full pipeline on \p LibrarySource using the tests named in
/// \p SeedNames as the sequential seed suite.
Result<NaradaResult> runNarada(std::string_view LibrarySource,
                               const std::vector<std::string> &SeedNames,
                               const NaradaOptions &Options = {});

} // namespace narada

#endif // NARADA_SYNTH_NARADA_H
