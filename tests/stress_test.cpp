//===- tests/stress_test.cpp - Parallel-driver stress loop ---------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Hammers the parallel executor: 50 back-to-back pipeline + confirmation
// runs at the maximum job count, asserting after every run that no pair's
// commit (to a test or to a SkippedPair entry) was lost, duplicated or
// reordered relative to the serial baseline.  Built into its own binary
// and labelled `stress` in ctest so the quick suite skips it
// (`ctest -L stress` runs it); under -DNARADA_TSAN=ON this is the test
// that puts ThreadSanitizer to work on parallelFor and the metrics
// registry.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "support/Parallel.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace narada;

namespace {

constexpr unsigned StressRounds = 50;

NaradaResult runPipeline(const CorpusEntry &Entry, unsigned Jobs) {
  NaradaOptions Options;
  Options.FocusClass = Entry.ClassName;
  Options.Jobs = Jobs;
  Result<NaradaResult> R = runNarada(Entry.Source, Entry.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : NaradaResult{};
}

/// Every pair's commit, in commit order: the test that covers it or its
/// skip record.  A pair a racy merge loses, commits twice or commits out
/// of order changes this log.
std::vector<std::string> commitLog(const NaradaResult &R) {
  std::vector<std::string> Out;
  for (const SynthesizedTestInfo &T : R.Tests)
    for (const std::string &Key : T.CoveredPairKeys)
      Out.push_back(T.Name + " <- " + Key);
  for (const SkippedPair &S : R.Skipped)
    Out.push_back("skip " + S.str());
  return Out;
}

} // namespace

// C5 has the most pairs in the corpus, and each is committed exactly once:
// to the test that covers it or to a SkippedPair entry.
TEST(StressTest, FiftyParallelRunsLoseNoPairs) {
  const CorpusEntry &E = *findCorpusEntry("C5");
  const unsigned MaxJobs = resolveJobs(0);

  NaradaResult Baseline = runPipeline(E, 1);
  std::vector<std::string> Expected = commitLog(Baseline);
  ASSERT_FALSE(Baseline.Pairs.empty());
  ASSERT_EQ(Expected.size(), Baseline.Pairs.size())
      << "every pair is committed exactly once";

  for (unsigned Round = 0; Round < StressRounds; ++Round) {
    NaradaResult R = runPipeline(E, MaxJobs);
    ASSERT_EQ(R.Skipped.size(), Baseline.Skipped.size()) << "round " << Round;
    ASSERT_EQ(commitLog(R), Expected) << "round " << Round;
  }
}

// Concurrent schedule explorations for different tests: repeated parallel
// confirmation sweeps must keep returning the serial sweep's verdicts.
TEST(StressTest, ParallelConfirmationSweepsAreStable) {
  const CorpusEntry &E = *findCorpusEntry("C1");
  NaradaResult R = runPipeline(E, resolveJobs(0));
  ASSERT_FALSE(R.Tests.empty());

  std::vector<TestDetectJob> Jobs;
  for (const SynthesizedTestInfo &T : R.Tests)
    Jobs.push_back({T.Name, T.CandidateLabels});

  DetectOptions Options;
  Options.RandomRuns = 2;
  Options.ConfirmAttempts = 1;

  Result<std::vector<TestDetectionResult>> Serial =
      detectRacesInTests(*R.Program.Module, Jobs, Options, 1);
  ASSERT_TRUE(Serial.hasValue()) << Serial.error().str();

  for (unsigned Round = 0; Round < 4; ++Round) {
    Result<std::vector<TestDetectionResult>> Parallel =
        detectRacesInTests(*R.Program.Module, Jobs, Options, resolveJobs(0));
    ASSERT_TRUE(Parallel.hasValue()) << Parallel.error().str();
    ASSERT_EQ(Parallel->size(), Serial->size());
    for (size_t I = 0; I < Serial->size(); ++I) {
      EXPECT_EQ((*Parallel)[I].Detected.size(), (*Serial)[I].Detected.size())
          << Jobs[I].TestName;
      EXPECT_EQ((*Parallel)[I].reproducedCount(),
                (*Serial)[I].reproducedCount())
          << Jobs[I].TestName;
      EXPECT_EQ((*Parallel)[I].harmfulCount(), (*Serial)[I].harmfulCount())
          << Jobs[I].TestName;
    }
  }
}

// The fan-out itself: many tiny calls back to back, every task exactly once.
TEST(StressTest, ParallelForRunsEveryTaskExactlyOnce) {
  const unsigned Workers = resolveJobs(0);
  for (unsigned Round = 0; Round < 200; ++Round) {
    std::vector<std::atomic<unsigned>> Hits(97);
    auto Failures = parallelFor(Hits.size(), Workers, [&](size_t I, unsigned) {
      Hits[I].fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_TRUE(Failures.empty()) << "round " << Round;
    for (size_t I = 0; I < Hits.size(); ++I)
      ASSERT_EQ(Hits[I].load(), 1u) << "round " << Round << " task " << I;
  }
}
