//===- synth/ParallelDriver.h - Parallel pair-level executor ----*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the post-PairGenerator stages — context derivation (the Q queries
/// of Fig. 10) and test synthesis (Algorithm 1) — as per-pair units on a
/// UnitExecutor (obs/UnitExecutor.h), then commits the results in
/// canonical pair order so the output is byte-identical to a serial run:
///
///   phase A (units): derive every pair's SharingPlan + shape key.
///       Randomized setter selection stays reproducible because each pair
///       gets a private RNG split from DerivationSeed by pair *index*, not
///       a shared sequential stream.
///   phase B (units): synthesize and print one test per first-of-shape
///       pair, under a placeholder name (final names depend on commit
///       order).
///   commit (serial):   walk pairs in canonical order, dedup by shape,
///       splice in final dense names, and classify failures and faults —
///       exactly the serial loop's semantics, driven by planCommit()
///       below.
///
/// The executor decides whether units run inline, on worker threads or in
/// --isolate worker processes (synth/SynthWorker.h); the phases, the
/// per-pair slot and the commit walk are the same code in every mode.
/// In-process units build their own ContextDeriver/TestSynthesizer views
/// and share nothing but the read-only databases; per-worker obs::Spans
/// ("pipeline.synth.worker<K>.derive") keep the phase tree honest across
/// threads.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_PARALLELDRIVER_H
#define NARADA_SYNTH_PARALLELDRIVER_H

#include "synth/Narada.h"
#include "synth/TestSynthesizer.h"

#include <functional>
#include <string>
#include <vector>

namespace narada {

/// What the commit walk decided for one canonical pair index.
struct CommitDecision {
  enum class Kind {
    NewTest,  ///< First successful synthesis of its shape: a new test.
    Join,     ///< Its shape already has a test: covered by that test.
    FailSkip, ///< Synthesis failed (its shape has no test yet).
  };
  Kind K = Kind::FailSkip;
  size_t TestIndex = 0; ///< Index into the emitted tests (NewTest/Join).
};

/// The deterministic commit step: walks \p Shapes in canonical order and
/// replays the serial loop's bookkeeping — dedup onto the first success of
/// each shape, and re-attempt shapes whose earlier pairs all failed.
/// \p SynthesisSucceeds is consulted lazily, exactly for the pairs the
/// serial loop would have attempted.  Pure apart from that callback, and
/// independent of how phases A/B were scheduled — this is what makes the
/// parallel run's output order-identical to the serial run's (exercised
/// directly by tests/property_test.cpp on randomized shape sets).
std::vector<CommitDecision>
planCommit(const std::vector<std::string> &Shapes,
           const std::function<bool(size_t)> &SynthesisSucceeds);

/// Splits the user-visible derivation seed into an independent stream
/// seed for pair \p PairIndex (SplitMix over base xor index).
uint64_t pairDerivationSeed(uint64_t Base, size_t PairIndex);

/// The shape key deduplicating pairs onto one test — shared between the
/// in-process driver and the isolated worker so both commit identically.
std::string synthShapeKey(const RacyPair &Pair, const SharingPlan &Plan);

/// Synthesized tests are renamed at commit time (names are dense in
/// canonical order, which workers cannot know); this stand-in never
/// reaches output.
inline constexpr const char *SynthPlaceholderName = "narada_uncommitted";

/// Derives pair \p PairIndex's sharing plan exactly as the synthesis
/// stage does: per-pair seed split, derivation, and the
/// EnableContextDerivation=false ablation.  Span-free so in-process and
/// isolated callers each wrap it in their own "derive" span.
SharingPlan deriveSynthPlan(const ContextDeriver &Deriver,
                            const RacyPair &Pair, size_t PairIndex,
                            const NaradaOptions &Options);

/// One synthesis attempt, as the commit walk consumes it: the test printed
/// under SynthPlaceholderName, or the synthesizer's error.
struct SynthAttempt {
  bool Ok = false;
  std::string Source;      ///< Placeholder-named test source (Ok).
  bool Complete = false;   ///< The plan's context is complete (Ok).
  std::string SharedClass; ///< The plan's shared class (Ok).
  Error Err;               ///< The synthesizer's error (!Ok).
};

/// Synthesizes pair \p Pair under \p Plan and prints the test under
/// SynthPlaceholderName.  Span-free, like deriveSynthPlan; shared by the
/// in-process stage and the isolated worker.
SynthAttempt attemptSynthesis(TestSynthesizer &Synth, const RacyPair &Pair,
                              const SharingPlan &Plan);

/// Everything the synthesis stage produces; spliced into NaradaResult.
struct SynthStageOutput {
  std::vector<SynthesizedTestInfo> Tests;
  std::vector<SkippedPair> Skipped;
  /// All synthesized test sources, newline-joined, for the final
  /// recompile pass.
  std::string SynthesizedSource;
};

/// What an isolated (--isolate) synthesis stage needs to re-dispatch its
/// units into worker subprocesses: the worker rebuilds the pipeline state
/// from the same inputs (deterministically), so only the original source
/// and seed names travel, not the derived structures.
struct SynthIsolateContext {
  pool::IsolateOptions Isolate;
  std::string LibrarySource;
  std::vector<std::string> SeedNames;
};

/// Runs stages 2b+3 over \p Pairs with Options.Jobs workers (1 = inline on
/// the calling thread, 0 = one per hardware thread).  The output is
/// byte-identical for every job count given the same inputs and
/// DerivationSeed.  With \p Iso non-null and enabled, units run in
/// crash-contained worker subprocesses instead of threads (clean runs
/// byte-identical to in-process; hard faults become worker_crash skips).
SynthStageOutput runSynthesisStage(const AnalysisResult &Analysis,
                                   const ProgramInfo &Info,
                                   const SeedRegistry &Registry,
                                   const std::vector<RacyPair> &Pairs,
                                   const NaradaOptions &Options,
                                   const SynthIsolateContext *Iso = nullptr);

} // namespace narada

#endif // NARADA_SYNTH_PARALLELDRIVER_H
