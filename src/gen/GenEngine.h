//===- gen/GenEngine.h - Generative seed-corpus engine ----------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthesizes a sequential seed suite for a MiniJava library with zero
/// hand-written tests, so the Narada pipeline's input stops being the
/// paper's central practical limitation (§6: no seed touching a racy pair
/// means no racy test).  docs/GENERATION.md describes the design; in
/// outline each round is
///
///   emit    (serial)  : Budget candidates from split RNGs
///                       (candidateSeed(Seed, Round, Index), the
///                       pairDerivationSeed discipline),
///   validate(parallel): run each candidate sequentially on a fixed step
///                       budget, after the serial part of the round added
///                       it to the library compiled once per call
///                       (compileTestsInto); discard candidates that do not
///                       compile, fault, deadlock or diverge (step-limited),
///   commit  (serial)  : keep a candidate iff its stage-1 analysis adds a
///                       new candidate-pair key or new setter/return
///                       summary to the corpus built so far,
///   steer             : raise the selection weight of entry methods that
///                       participate in statically suspicious
///                       (non-MustGuarded, controllable, write-sharing)
///                       access pairs not yet covered by a generated pair,
///
/// followed by one greedy backward reduction pass that drops seeds whose
/// removal leaves the covered pair/setter/return sets identical.  Emission
/// is serial and validation commits in candidate order, so the resulting
/// corpus is byte-identical for every --jobs value; the fault probes
/// "gen.emit" and "gen.run" turn injected faults into per-candidate
/// quarantine records instead of lost corpora.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_GEN_GENENGINE_H
#define NARADA_GEN_GENENGINE_H

#include "support/Error.h"

#include <set>
#include <string>
#include <vector>

namespace narada {
namespace gen {

/// Knobs for one corpus generation.
struct GenOptions {
  /// Class under test; steering targets and receiver bias use it.  Empty
  /// generates against every modeled class (unsteered receiver choice).
  std::string FocusClass;
  /// Base seed; the only source of randomness (split per candidate).
  uint64_t Seed = 1;
  /// Generation rounds (steering updates between rounds).
  unsigned Rounds = 2;
  /// Candidates emitted per round.
  unsigned Budget = 16;
  /// Worker threads for the validation runs (0 = hardware concurrency).
  unsigned Jobs = 1;
  /// Run the corpus reducer after the last round.
  bool Reduce = true;
};

/// One kept generated seed test.
struct GenSeed {
  std::string Name;   ///< Test name ("gen_r<round>_c<index>").
  std::string Source; ///< Complete "test name {...}" source text.
};

/// A candidate lost to an injected or real fault, for the run report.
struct GenQuarantine {
  unsigned Round = 0;
  unsigned Candidate = 0; ///< Global candidate index (Round*Budget+i).
  std::string Stage;      ///< "emit" or "run".
  std::string Message;
};

/// The generated corpus plus everything the caller reports about it.
struct GenResult {
  /// Kept seeds after reduction, in generation order.
  std::vector<GenSeed> Seeds;
  /// Library source (hand-written tests stripped) + kept seeds: feed this
  /// to runNarada in place of the original source.
  std::string CorpusSource;
  /// Names of the kept seeds, in order (runNarada's SeedNames input).
  std::vector<std::string> SeedNames;
  /// RacyPair keys covered by the kept corpus ("gen.pairs_covered").
  std::set<std::string> PairKeys;
  /// Candidates that faulted during emit/validate.
  std::vector<GenQuarantine> Quarantined;
  /// Statically suspicious target pairs and how many generation covered.
  unsigned StaticTargets = 0;
  unsigned StaticTargetsCovered = 0;
};

/// The per-candidate seed split: SplitMix64 over the base seed and the
/// candidate's (round, index) coordinates, mirroring pairDerivationSeed so
/// candidate streams are independent of emission order and job count.
uint64_t candidateSeed(uint64_t Base, unsigned Round, unsigned Index);

/// Generates a seed corpus for \p LibrarySource (any hand-written tests in
/// it are stripped first — the zero-seed contract).  Fails only on a
/// library that does not compile; lost candidates degrade to quarantine
/// records.  Bumps the gen.* counters under an outer "pipeline.gen" span.
Result<GenResult> generateSeedCorpus(const std::string &LibrarySource,
                                     const GenOptions &Options);

} // namespace gen
} // namespace narada

#endif // NARADA_GEN_GENENGINE_H
