//===- tests/fault_injection_test.cpp - Fault containment sweep ----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The robustness contract, exercised end to end: a fault injected at any
// registered probe site (support/FaultInjection.h) is *contained* — the
// process never aborts, the injected pair degrades to an internal_fault
// skip (synthesis) or the injected test to a quarantined result
// (detection), and the run stays byte-identical between --jobs 1 and
// --jobs 4.  Plus the watchdog protocol on real step-limited programs:
// retry with an escalating budget, then quarantine — never silently clean.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "gen/GenEngine.h"
#include "obs/Metrics.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "synth/Narada.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

using namespace narada;

namespace {

/// Every test leaves the process disarmed, whatever its assertions did.
class FaultInjectionTest : public ::testing::Test {
protected:
  void TearDown() override { fault::disarm(); }
};
using ScopedUnitTest = FaultInjectionTest;
using ArmFromSpecTest = FaultInjectionTest;
using ProbeTest = FaultInjectionTest;
using ParallelForTest = FaultInjectionTest;

NaradaResult runClass(const CorpusEntry &Entry, unsigned Jobs) {
  NaradaOptions Options;
  Options.FocusClass = Entry.ClassName;
  Options.Jobs = Jobs;
  Result<NaradaResult> R = runNarada(Entry.Source, Entry.SeedNames, Options);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : NaradaResult{};
}

/// Byte-identity of everything a caller can observe (mirrors
/// parallel_determinism_test, including the skip list where injected
/// faults land).
void expectIdenticalResults(const NaradaResult &A, const NaradaResult &B) {
  ASSERT_EQ(A.Tests.size(), B.Tests.size());
  for (size_t I = 0; I < A.Tests.size(); ++I) {
    EXPECT_EQ(A.Tests[I].Name, B.Tests[I].Name) << "test " << I;
    EXPECT_EQ(A.Tests[I].SourceText, B.Tests[I].SourceText)
        << A.Tests[I].Name;
    EXPECT_EQ(A.Tests[I].CoveredPairKeys, B.Tests[I].CoveredPairKeys)
        << A.Tests[I].Name;
  }
  ASSERT_EQ(A.Skipped.size(), B.Skipped.size());
  for (size_t I = 0; I < A.Skipped.size(); ++I)
    EXPECT_EQ(A.Skipped[I].str(), B.Skipped[I].str()) << "skip " << I;
}

uint64_t counterNow(const char *Name) {
  return obs::MetricsRegistry::global().snapshot().counter(Name);
}

CompiledProgram compileOk(std::string_view Source) {
  Result<CompiledProgram> R = compileProgram(Source);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
  return R ? R.take() : CompiledProgram{};
}

} // namespace

//===----------------------------------------------------------------------===//
// ScopedUnit
//===----------------------------------------------------------------------===//

TEST_F(ScopedUnitTest, NestsAndRestores) {
  EXPECT_FALSE(fault::currentUnit().has_value());
  {
    fault::ScopedUnit Outer(3);
    EXPECT_EQ(fault::currentUnit(), std::optional<uint64_t>(3));
    {
      fault::ScopedUnit Inner(7);
      EXPECT_EQ(fault::currentUnit(), std::optional<uint64_t>(7));
    }
    EXPECT_EQ(fault::currentUnit(), std::optional<uint64_t>(3));
  }
  EXPECT_FALSE(fault::currentUnit().has_value());
}

TEST_F(ScopedUnitTest, IsPerThread) {
  fault::ScopedUnit Unit(1);
  std::atomic<unsigned> Unscoped{0};
  auto Failures = parallelFor(8, 2, [&](size_t, unsigned) {
    if (!fault::currentUnit())
      Unscoped.fetch_add(1);
  });
  EXPECT_TRUE(Failures.empty());
  // Worker threads never inherit the submitting thread's unit.
  EXPECT_EQ(Unscoped.load(), 8u);
  EXPECT_EQ(fault::currentUnit(), std::optional<uint64_t>(1));
}

//===----------------------------------------------------------------------===//
// armFromSpec
//===----------------------------------------------------------------------===//

TEST_F(ArmFromSpecTest, ParsesSiteUnitAndModes) {
  EXPECT_TRUE(fault::armFromSpec("synth.derive:12"));
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::armFromSpec("detect.test:0:throw"));
  EXPECT_TRUE(fault::armFromSpec("detect.random.steps:3:timeout"));
}

TEST_F(ArmFromSpecTest, RejectsMalformedSpecsAndKeepsState) {
  fault::disarm();
  std::string Why;
  for (const char *Bad :
       {"", "nocolon", ":5", "site:", "site:abc", "site:1:explode",
        "site:12x", "site:1:"}) {
    EXPECT_FALSE(fault::armFromSpec(Bad, &Why)) << Bad;
    EXPECT_FALSE(Why.empty()) << Bad;
    EXPECT_FALSE(fault::armed()) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// probe / timeoutProbe semantics
//===----------------------------------------------------------------------===//

TEST_F(ProbeTest, FiresOnlyForMatchingSiteUnitAndMode) {
  fault::disarm();
  EXPECT_NO_THROW(fault::probe("unit.test.site"));
  EXPECT_FALSE(fault::timeoutProbe("unit.test.timeout"));

  fault::arm("unit.test.site", 5);
  // Unarmed unit, wrong unit, no unit scope: all no-ops.
  EXPECT_NO_THROW(fault::probe("unit.test.site"));
  {
    fault::ScopedUnit Unit(4);
    EXPECT_NO_THROW(fault::probe("unit.test.site"));
    EXPECT_NO_THROW(fault::probe("unit.test.other"));
    // A throw-armed site never triggers the timeout path.
    EXPECT_FALSE(fault::timeoutProbe("unit.test.site"));
  }
  {
    fault::ScopedUnit Unit(5);
    EXPECT_THROW(fault::probe("unit.test.site"), fault::InjectedFault);
  }

  fault::arm("unit.test.timeout", 2, fault::Mode::Timeout);
  {
    fault::ScopedUnit Unit(2);
    EXPECT_TRUE(fault::timeoutProbe("unit.test.timeout"));
    // A timeout-armed site never throws.
    EXPECT_NO_THROW(fault::probe("unit.test.timeout"));
  }
}

TEST_F(ProbeTest, RegistryTracksSitesHitsAndMinUnit) {
  fault::disarm();
  fault::resetRegistry();
  fault::probe("unit.reg.throwsite");
  {
    fault::ScopedUnit Unit(9);
    fault::probe("unit.reg.throwsite");
  }
  {
    fault::ScopedUnit Unit(4);
    fault::probe("unit.reg.throwsite");
    (void)fault::timeoutProbe("unit.reg.timeoutsite");
  }

  std::vector<std::string> Throws = fault::throwSites();
  EXPECT_NE(std::find(Throws.begin(), Throws.end(), "unit.reg.throwsite"),
            Throws.end());
  std::vector<std::string> Timeouts = fault::timeoutSites();
  EXPECT_NE(std::find(Timeouts.begin(), Timeouts.end(),
                      "unit.reg.timeoutsite"),
            Timeouts.end());
  EXPECT_EQ(fault::hitCount("unit.reg.throwsite"), 3u);
  EXPECT_EQ(fault::minUnitOf("unit.reg.throwsite"),
            std::optional<uint64_t>(4));
  // The unscoped hit contributes no unit; an unreached site has neither.
  EXPECT_EQ(fault::hitCount("unit.reg.nowhere"), 0u);
  EXPECT_FALSE(fault::minUnitOf("unit.reg.nowhere").has_value());

  fault::resetRegistry();
  EXPECT_EQ(fault::hitCount("unit.reg.throwsite"), 0u);
}

TEST_F(ProbeTest, InjectedFaultIsAStdException) {
  fault::arm("unit.test.what", 0);
  fault::ScopedUnit Unit(0);
  try {
    fault::probe("unit.test.what");
    FAIL() << "probe did not fire";
  } catch (const std::exception &E) {
    EXPECT_NE(std::string(E.what()).find("injected fault"),
              std::string::npos);
    EXPECT_NE(std::string(E.what()).find("unit.test.what"),
              std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// parallelFor: serial cases and the exception barrier
//===----------------------------------------------------------------------===//

TEST_F(ParallelForTest, SerialCallsRunOnTheCallingThreadInIndexOrder) {
  const std::thread::id Caller = std::this_thread::get_id();
  // One worker, and one item at any worker count.
  for (auto [N, Workers] : {std::pair<size_t, unsigned>{5, 1}, {1, 4}}) {
    std::vector<size_t> Order;
    unsigned OffCaller = 0;
    auto Failures = parallelFor(N, Workers, [&](size_t I, unsigned W) {
      if (std::this_thread::get_id() != Caller)
        ++OffCaller;
      EXPECT_EQ(W, 0u);
      Order.push_back(I);
    });
    EXPECT_TRUE(Failures.empty());
    EXPECT_EQ(OffCaller, 0u) << N << " items, " << Workers << " workers";
    std::vector<size_t> Expected(N);
    std::iota(Expected.begin(), Expected.end(), size_t{0});
    EXPECT_EQ(Order, Expected);
  }
}

TEST_F(ParallelForTest, CapturesThrowsAndCompletesOtherItems) {
  constexpr size_t N = 100;
  std::atomic<unsigned> Completed{0};
  std::vector<ItemFailure> Failures =
      parallelFor(N, 4, [&](size_t I, unsigned) {
        if (I % 10 == 3)
          throw std::runtime_error("boom " + std::to_string(I));
        Completed.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(Completed.load(), N - 10);
  ASSERT_EQ(Failures.size(), 10u);
  for (size_t K = 0; K < Failures.size(); ++K) {
    // Sorted by item index so callers handle them deterministically.
    EXPECT_EQ(Failures[K].Item, K * 10 + 3);
    EXPECT_EQ(describeException(Failures[K].Error),
              "boom " + std::to_string(K * 10 + 3));
  }

  // A failing call leaves nothing behind: the next call runs clean.
  std::atomic<unsigned> Second{0};
  auto NoFailures = parallelFor(50, 4, [&](size_t, unsigned) {
    Second.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_TRUE(NoFailures.empty());
  EXPECT_EQ(Second.load(), 50u);
}

TEST_F(ParallelForTest, NonExceptionThrowsAreContainedToo) {
  for (unsigned Workers : {1u, 2u}) {
    auto Failures = parallelFor(4, Workers, [&](size_t I, unsigned) {
      if (I == 2)
        throw 42; // Not a std::exception.
    });
    ASSERT_EQ(Failures.size(), 1u) << Workers << " workers";
    EXPECT_EQ(Failures[0].Item, 2u);
    EXPECT_EQ(describeException(Failures[0].Error), "unknown exception type");
  }
}

//===----------------------------------------------------------------------===//
// Synthesis-stage sweep: every synth probe site, C1 and C5, jobs 1 and 4
//===----------------------------------------------------------------------===//

namespace {

class SynthFaultSweepTest : public ::testing::TestWithParam<std::string> {
protected:
  void TearDown() override { fault::disarm(); }
  const CorpusEntry &entry() { return *findCorpusEntry(GetParam()); }
};

/// Conservation law: every candidate pair is accounted for exactly once,
/// either covered by a test or recorded as a skip.
void expectPairsConserved(const NaradaResult &R) {
  std::multiset<std::string> Seen;
  for (const SynthesizedTestInfo &T : R.Tests)
    Seen.insert(T.CoveredPairKeys.begin(), T.CoveredPairKeys.end());
  for (const SkippedPair &S : R.Skipped)
    Seen.insert(S.PairKey);
  std::multiset<std::string> All;
  for (const RacyPair &P : R.Pairs)
    All.insert(P.key());
  EXPECT_EQ(Seen, All);
}

} // namespace

TEST_P(SynthFaultSweepTest, EverySiteDegradesToInternalFaultSkip) {
  const CorpusEntry &E = entry();

  fault::disarm();
  fault::resetRegistry();
  NaradaResult Clean = runClass(E, 1);
  ASSERT_FALSE(Clean.Pairs.empty());
  expectPairsConserved(Clean);
  for (const SkippedPair &S : Clean.Skipped)
    EXPECT_NE(S.Reason, SkipReason::InternalFault) << S.str();

  // The synthesis stage's containment boundaries.  Asserting on the fixed
  // list (not just throwSites()) guards against a refactor silently
  // dropping a probe: a site that disappears fails the minUnitOf check.
  for (const char *Site :
       {"synth.pair_task", "synth.derive", "synth.synthesize"}) {
    SCOPED_TRACE(Site);
    std::optional<uint64_t> Unit = fault::minUnitOf(Site);
    ASSERT_TRUE(Unit.has_value())
        << "probe site was never reached under a unit scope on a clean run";
    const std::string InjectedKey = Clean.Pairs[*Unit].key();

    uint64_t FaultSkipsBefore =
        counterNow("synth.pairs_skipped.internal_fault");
    fault::arm(Site, *Unit);
    NaradaResult Serial = runClass(E, 1);
    NaradaResult Parallel = runClass(E, 4);
    fault::disarm();

    // The process survived (we are here), the two runs agree bytewise, and
    // nothing was lost: every pair is still covered or skipped.
    expectIdenticalResults(Serial, Parallel);
    expectPairsConserved(Serial);
    ASSERT_EQ(Serial.Pairs.size(), Clean.Pairs.size());

    // Exactly the injected pair shows up as an internal_fault skip, with
    // the injection message preserved for diagnosis.
    unsigned FaultSkips = 0;
    for (const SkippedPair &S : Serial.Skipped) {
      if (S.Reason != SkipReason::InternalFault)
        continue;
      ++FaultSkips;
      EXPECT_EQ(S.PairKey, InjectedKey);
      EXPECT_NE(S.Message.find("injected fault"), std::string::npos)
          << S.str();
      EXPECT_NE(S.Message.find(Site), std::string::npos) << S.str();
    }
    EXPECT_EQ(FaultSkips, 1u);
    // Both runs counted their skip in the obs registry.
    EXPECT_EQ(counterNow("synth.pairs_skipped.internal_fault"),
              FaultSkipsBefore + 2);
  }

  // No sticky state: a clean rerun after the sweep matches the baseline.
  expectIdenticalResults(Clean, runClass(E, 4));
}

INSTANTIATE_TEST_SUITE_P(Classes, SynthFaultSweepTest,
                         ::testing::Values("C1", "C5"),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===//
// Detection-stage sweep: every detect probe site, jobs 1 and 4
//===----------------------------------------------------------------------===//

namespace {

/// Everything detectRacesInTests reports for one test.
void expectSameDetection(const TestDetectionResult &A,
                         const TestDetectionResult &B) {
  ASSERT_EQ(A.Detected.size(), B.Detected.size());
  for (size_t I = 0; I < A.Detected.size(); ++I)
    EXPECT_EQ(A.Detected[I].key(), B.Detected[I].key());
  ASSERT_EQ(A.Races.size(), B.Races.size());
  for (size_t I = 0; I < A.Races.size(); ++I) {
    EXPECT_EQ(A.Races[I].Reproduced, B.Races[I].Reproduced);
    EXPECT_EQ(A.Races[I].Harmful, B.Races[I].Harmful);
    EXPECT_EQ(A.Races[I].HashFirstOrder, B.Races[I].HashFirstOrder);
    EXPECT_EQ(A.Races[I].HashSecondOrder, B.Races[I].HashSecondOrder);
  }
  EXPECT_EQ(A.SawFault, B.SawFault);
  EXPECT_EQ(A.SawDeadlock, B.SawDeadlock);
  EXPECT_EQ(A.SawStepLimit, B.SawStepLimit);
  EXPECT_EQ(A.Quarantined, B.Quarantined);
  EXPECT_EQ(A.QuarantineReason, B.QuarantineReason);
}

class DetectFaultSweepTest : public ::testing::Test {
protected:
  void SetUp() override {
    fault::disarm();
    Narada = runClass(*findCorpusEntry("C1"), 1);
    ASSERT_FALSE(Narada.Tests.empty());
    // The first handful of tests exercise every probe site; a bounded job
    // list keeps the sweep's dozen detection passes fast.
    size_t Take = std::min<size_t>(Narada.Tests.size(), 6);
    for (size_t I = 0; I < Take; ++I)
      Jobs.push_back(
          {Narada.Tests[I].Name, Narada.Tests[I].CandidateLabels});
    Options.RandomRuns = 2;
    Options.ConfirmAttempts = 1;
  }
  void TearDown() override { fault::disarm(); }

  std::vector<TestDetectionResult> detect(unsigned JobCount) {
    Result<std::vector<TestDetectionResult>> R = detectRacesInTests(
        *Narada.Program.Module, Jobs, Options, JobCount);
    EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().str());
    return R ? R.take() : std::vector<TestDetectionResult>{};
  }

  NaradaResult Narada;
  std::vector<TestDetectJob> Jobs;
  DetectOptions Options;
};

} // namespace

TEST_F(DetectFaultSweepTest, ThrowSitesQuarantineOnlyTheInjectedTest) {
  fault::resetRegistry();
  std::vector<TestDetectionResult> Clean = detect(1);
  ASSERT_EQ(Clean.size(), Jobs.size());
  for (const TestDetectionResult &R : Clean)
    EXPECT_FALSE(R.Quarantined) << R.QuarantineReason;

  for (const char *Site : {"detect.test", "detect.random_run",
                           "detect.confirm", "runtime.run_test"}) {
    SCOPED_TRACE(Site);
    std::optional<uint64_t> Unit = fault::minUnitOf(Site);
    ASSERT_TRUE(Unit.has_value())
        << "probe site was never reached under a unit scope on a clean run";
    ASSERT_LT(*Unit, Jobs.size());

    uint64_t QuarantinedBefore = counterNow("detect.quarantined");
    uint64_t InternalBefore = counterNow("detect.internal_faults");
    fault::arm(Site, *Unit);
    std::vector<TestDetectionResult> Serial = detect(1);
    std::vector<TestDetectionResult> Parallel = detect(4);
    fault::disarm();
    ASSERT_EQ(Serial.size(), Jobs.size());
    ASSERT_EQ(Parallel.size(), Jobs.size());

    for (size_t I = 0; I < Jobs.size(); ++I) {
      SCOPED_TRACE(Jobs[I].TestName);
      // jobs-4 behaves exactly like jobs-1, quarantine included.
      expectSameDetection(Serial[I], Parallel[I]);
      if (I == *Unit) {
        EXPECT_TRUE(Serial[I].Quarantined);
        EXPECT_NE(Serial[I].QuarantineReason.find("injected fault"),
                  std::string::npos)
            << Serial[I].QuarantineReason;
      } else {
        // Fault containment: every other test's results are untouched.
        expectSameDetection(Serial[I], Clean[I]);
      }
    }
    // Both runs counted the quarantine and its internal-fault cause.
    EXPECT_EQ(counterNow("detect.quarantined"), QuarantinedBefore + 2);
    EXPECT_EQ(counterNow("detect.internal_faults"), InternalBefore + 2);
  }

  // No sticky state after the sweep.
  std::vector<TestDetectionResult> Again = detect(1);
  for (size_t I = 0; I < Jobs.size(); ++I)
    expectSameDetection(Again[I], Clean[I]);
}

TEST_F(DetectFaultSweepTest, TimeoutSitesRetryThenQuarantine) {
  fault::resetRegistry();
  std::vector<TestDetectionResult> Clean = detect(1);
  ASSERT_EQ(Clean.size(), Jobs.size());

  for (const char *Site : {"detect.random.steps", "detect.confirm.steps"}) {
    SCOPED_TRACE(Site);
    std::optional<uint64_t> Unit = fault::minUnitOf(Site);
    ASSERT_TRUE(Unit.has_value())
        << "timeout site was never consulted under a unit scope";
    ASSERT_LT(*Unit, Jobs.size());

    uint64_t RetriesBefore = counterNow("detect.retries");
    uint64_t StepLimitBefore = counterNow("detect.step_limit_runs");
    fault::arm(Site, *Unit, fault::Mode::Timeout);
    std::vector<TestDetectionResult> Serial = detect(1);
    std::vector<TestDetectionResult> Parallel = detect(4);
    fault::disarm();

    for (size_t I = 0; I < Jobs.size(); ++I) {
      SCOPED_TRACE(Jobs[I].TestName);
      expectSameDetection(Serial[I], Parallel[I]);
      if (I == *Unit) {
        // The simulated step-limit exhausts every escalated retry, so the
        // test must be quarantined — a runaway schedule never passes for a
        // clean one.
        EXPECT_TRUE(Serial[I].Quarantined);
        EXPECT_TRUE(Serial[I].SawStepLimit);
        EXPECT_NE(Serial[I].QuarantineReason.find("step budget"),
                  std::string::npos)
            << Serial[I].QuarantineReason;
      } else {
        expectSameDetection(Serial[I], Clean[I]);
      }
    }
    // The escalation protocol ran: StepLimitRetries retries per run, and
    // every attempt was counted as a step-limited run.
    EXPECT_GE(counterNow("detect.retries"),
              RetriesBefore + 2 * Options.StepLimitRetries);
    EXPECT_GT(counterNow("detect.step_limit_runs"), StepLimitBefore);
  }
}

//===----------------------------------------------------------------------===//
// Real watchdog budgets (no injection): retry escalation and quarantine
//===----------------------------------------------------------------------===//

namespace {

/// Single-threaded bounded loop: deterministic step count under every
/// scheduling policy, sized to exhaust a 100-step budget but finish well
/// inside 100 * 4^3.
constexpr const char *BoundedLoop =
    "class W { field sum: int;\n"
    "  method work(n: int) {\n"
    "    var i: int = 0;\n"
    "    while (i < n) { this.sum = this.sum + 1; i = i + 1; }\n"
    "  } }\n"
    "test t { var w: W = new W; w.work(60); }\n";

} // namespace

TEST(WatchdogTest, StepLimitRetriesWithEscalatedBudgetThenSucceeds) {
  CompiledProgram P = compileOk(BoundedLoop);

  // Calibration guards: the loop must blow a 100-step budget and complete
  // within the fully escalated one, or the assertions below test nothing.
  RoundRobinPolicy Policy;
  Result<TestRun> Low = runTest(*P.Module, "t", Policy, 1, nullptr, 100);
  ASSERT_TRUE(Low.hasValue());
  ASSERT_TRUE(Low->Result.HitStepLimit);
  Result<TestRun> High = runTest(*P.Module, "t", Policy, 1, nullptr, 6400);
  ASSERT_TRUE(High.hasValue());
  ASSERT_FALSE(High->Result.HitStepLimit);

  DetectOptions Options;
  Options.RandomRuns = 1;
  Options.ConfirmAttempts = 1;
  Options.MaxSteps = 100;
  Options.StepLimitRetries = 3;
  uint64_t RetriesBefore = counterNow("detect.retries");

  Result<TestDetectionResult> R = detectRacesInTest(*P.Module, "t", Options);
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  // Some attempt hit the ceiling (latched), but an escalated retry
  // completed the run: not quarantined, not silently clean either.
  EXPECT_TRUE(R->SawStepLimit);
  EXPECT_FALSE(R->Quarantined) << R->QuarantineReason;
  EXPECT_GT(counterNow("detect.retries"), RetriesBefore);
}

TEST(WatchdogTest, ExhaustedStepBudgetQuarantinesNeverSilentlyClean) {
  CompiledProgram P = compileOk(BoundedLoop);
  DetectOptions Options;
  Options.RandomRuns = 1;
  Options.ConfirmAttempts = 1;
  Options.MaxSteps = 100;
  Options.StepLimitRetries = 0; // No escalation: the budget stays blown.
  Result<TestDetectionResult> R = detectRacesInTest(*P.Module, "t", Options);
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  EXPECT_TRUE(R->Quarantined);
  EXPECT_TRUE(R->SawStepLimit);
  EXPECT_NE(R->QuarantineReason.find("step budget"), std::string::npos)
      << R->QuarantineReason;
}

TEST(WatchdogTest, WallClockBudgetQuarantinesWithPartialResults) {
  CompiledProgram P = compileOk(BoundedLoop);
  DetectOptions Options;
  Options.RandomRuns = 8;
  Options.WallBudgetSeconds = 1e-9; // Expires by the second run boundary.
  Result<TestDetectionResult> R = detectRacesInTest(*P.Module, "t", Options);
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  EXPECT_TRUE(R->Quarantined);
  EXPECT_NE(R->QuarantineReason.find("wall-clock"), std::string::npos)
      << R->QuarantineReason;
}

TEST(WatchdogTest, WallClockBudgetBoundsSystematicExploration) {
  // Systematic search has no budget of its own in wall-clock time: the
  // per-test budget is checked after every schedule it runs.
  CompiledProgram P = compileOk(BoundedLoop);
  DetectOptions Options;
  Options.Mode = ExplorationMode::Systematic;
  Options.WallBudgetSeconds = 1e-9; // Expires by the first schedule's end.
  Result<TestDetectionResult> R = detectRacesInTest(*P.Module, "t", Options);
  ASSERT_TRUE(R.hasValue()) << R.error().str();
  EXPECT_TRUE(R->Quarantined);
  EXPECT_NE(R->QuarantineReason.find("wall-clock"), std::string::npos)
      << R->QuarantineReason;
}

TEST(WatchdogTest, WallClockBudgetOffByDefault) {
  DetectOptions Options;
  EXPECT_EQ(Options.WallBudgetSeconds, 0.0);
  CompiledProgram P = compileOk(BoundedLoop);
  Options.RandomRuns = 2;
  Result<TestDetectionResult> R = detectRacesInTest(*P.Module, "t", Options);
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(R->Quarantined) << R->QuarantineReason;
}

//===----------------------------------------------------------------------===//
// Seed-generation probe sites
//===----------------------------------------------------------------------===//

namespace {

class GenFaultSweepTest : public FaultInjectionTest {};

Result<gen::GenResult> genCorpus(const CorpusEntry &Entry, unsigned Jobs) {
  gen::GenOptions Options;
  Options.FocusClass = Entry.ClassName;
  Options.Jobs = Jobs;
  return gen::generateSeedCorpus(Entry.Source, Options);
}

} // namespace

// A fault injected while emitting or validating one candidate costs
// exactly that candidate: the run completes, the loss is recorded as a
// quarantine entry naming the stage, and the surviving corpus is still
// byte-identical between jobs 1 and 4.
TEST_F(GenFaultSweepTest, EmitAndRunSitesDegradeToQuarantine) {
  const CorpusEntry *Entry = findCorpusEntry("C9");
  ASSERT_NE(Entry, nullptr);

  fault::disarm();
  fault::resetRegistry();
  Result<gen::GenResult> Clean = genCorpus(*Entry, 1);
  ASSERT_TRUE(Clean.hasValue()) << Clean.error().str();
  EXPECT_TRUE(Clean->Quarantined.empty());
  EXPECT_FALSE(Clean->Seeds.empty());

  struct SiteCase {
    const char *Site;
    const char *Stage;
  };
  for (SiteCase Case : {SiteCase{"gen.emit", "emit"},
                        SiteCase{"gen.run", "run"}}) {
    SCOPED_TRACE(Case.Site);
    std::optional<uint64_t> Unit = fault::minUnitOf(Case.Site);
    ASSERT_TRUE(Unit.has_value())
        << "probe site was never reached under a unit scope on a clean run";

    uint64_t QuarantinedBefore = counterNow("gen.quarantined");
    fault::arm(Case.Site, *Unit);
    Result<gen::GenResult> Serial = genCorpus(*Entry, 1);
    Result<gen::GenResult> Parallel = genCorpus(*Entry, 4);
    fault::disarm();
    ASSERT_TRUE(Serial.hasValue()) << Serial.error().str();
    ASSERT_TRUE(Parallel.hasValue()) << Parallel.error().str();

    // Partial, not lost: generation still produced a usable corpus.
    EXPECT_FALSE(Serial->Seeds.empty());
    // Byte-identical degradation at every job count.
    EXPECT_EQ(Serial->CorpusSource, Parallel->CorpusSource);
    EXPECT_EQ(Serial->SeedNames, Parallel->SeedNames);
    EXPECT_EQ(Serial->PairKeys, Parallel->PairKeys);

    // Exactly the injected candidate was quarantined, at the right stage,
    // with the injection message preserved — in both runs.
    for (const Result<gen::GenResult> *Run : {&Serial, &Parallel}) {
      ASSERT_EQ((*Run)->Quarantined.size(), 1u);
      const gen::GenQuarantine &Q = (*Run)->Quarantined.front();
      EXPECT_EQ(Q.Candidate, *Unit);
      EXPECT_EQ(Q.Stage, Case.Stage);
      EXPECT_NE(Q.Message.find("injected fault"), std::string::npos)
          << Q.Message;
      EXPECT_NE(Q.Message.find(Case.Site), std::string::npos) << Q.Message;
    }
    EXPECT_EQ(counterNow("gen.quarantined"), QuarantinedBefore + 2);
  }

  // No sticky state: a clean rerun replays the baseline corpus.
  Result<gen::GenResult> Again = genCorpus(*Entry, 4);
  ASSERT_TRUE(Again.hasValue()) << Again.error().str();
  EXPECT_EQ(Again->CorpusSource, Clean->CorpusSource);
  EXPECT_TRUE(Again->Quarantined.empty());
}
