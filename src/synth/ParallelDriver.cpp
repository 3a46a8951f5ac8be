//===- synth/ParallelDriver.cpp - Parallel pair-level executor -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/ParallelDriver.h"

#include "lang/ASTPrinter.h"
#include "obs/Log.h"
#include "obs/Span.h"
#include "obs/UnitExecutor.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "synth/SynthWorker.h"

#include <cstring>
#include <optional>
#include <unordered_map>

using namespace narada;

namespace {

/// Prefix of every synthesized test name ("narada_000", "narada_001", ...).
constexpr const char *TestNamePrefix = "narada";

/// Maps a synthesizer failure onto a skip category.  The synthesizer's
/// message families are part of its contract (tests assert on them), so
/// prefix matching here is the lightest classification that keeps Error
/// a plain message type.
SkipReason classifySkip(const Error &E) {
  const std::string &Message = E.message();
  if (startsWith(Message, "no provider for") ||
      startsWith(Message, "no seed provides"))
    return SkipReason::NoSeedProvider;
  if (startsWith(Message, "no seed call site") ||
      startsWith(Message, "no seed constructor site"))
    return SkipReason::NoSeedCallSite;
  if (startsWith(Message, "constrained parameter") ||
      Message.find("is not normalized") != std::string::npos)
    return SkipReason::DerivationMismatch;
  return SkipReason::Other;
}

void countSkip(SkipReason Reason) {
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  R.counter("synth.pairs_skipped").inc();
  R.counter(std::string("synth.pairs_skipped.") + skipReasonId(Reason))
      .inc();
}

/// Per-pair state filled by the unit phases, committed serially.
struct PairSlot {
  SharingPlan Plan; ///< In process only; isolated plans stay in the workers.
  std::string Shape;
  std::optional<SynthAttempt> Attempt; ///< Set once the pair was attempted.
  /// Set when this pair's derivation or synthesis unit faulted: the pair is
  /// committed as an internal_fault (or worker_crash) skip and never
  /// re-attempted (the fault is assumed deterministic, like every other
  /// per-pair outcome).
  std::optional<UnitFault> Fault;
};

/// Marks \p Slot faulted.  The shape becomes a per-pair sentinel no real
/// shape can collide with, so a faulted lead never absorbs healthy pairs
/// of its (unknown) shape.
void markFaulted(PairSlot &Slot, size_t PairIndex, UnitFault Fault) {
  Slot.Fault = std::move(Fault);
  Slot.Shape = formatString("<internal-fault>#%zu", PairIndex);
}

} // namespace

uint64_t narada::pairDerivationSeed(uint64_t Base, size_t PairIndex) {
  // One SplitMix64 step decorrelates the per-pair streams even for
  // consecutive indices; the xor constant keeps index 0 off the base seed.
  RNG Mix(Base ^ (0x9e3779b97f4a7c15ULL * (PairIndex + 1)));
  return Mix.next();
}

// The shape key deduplicating pairs onto one test (the paper synthesizes
// 15 tests for C1's 65 pairs): method pair + effective sharing paths +
// shared class.
std::string narada::synthShapeKey(const RacyPair &Pair,
                                  const SharingPlan &Plan) {
  return formatString(
      "%s.%s|%s.%s|%s|%s|%s", Pair.First.ClassName.c_str(),
      Pair.First.Method.c_str(), Pair.Second.ClassName.c_str(),
      Pair.Second.Method.c_str(), Plan.First.EffectivePath.str().c_str(),
      Plan.Second.EffectivePath.str().c_str(),
      Plan.SharedClassName.c_str());
}

SharingPlan narada::deriveSynthPlan(const ContextDeriver &Deriver,
                                    const RacyPair &Pair, size_t PairIndex,
                                    const NaradaOptions &Options) {
  std::optional<uint64_t> PairSeed;
  if (Options.DerivationSeed)
    PairSeed = pairDerivationSeed(*Options.DerivationSeed, PairIndex);
  SharingPlan Plan = Deriver.deriveSharing(Pair, PairSeed);
  if (!Options.EnableContextDerivation) {
    // Ablation: strip all constraints; both sides get fresh instances.
    auto Fresh = [&](SharingPlan::Side &Side, const RacySide &RS) {
      Side.Plan = std::make_unique<ProvidePlan>();
      Side.Plan->K = ProvidePlan::Kind::FromSeed;
      Side.Plan->ClassName = Deriver.rootClassOf(RS);
      Side.EffectivePath = AccessPath(RS.BasePath.Root, {});
    };
    Fresh(Plan.First, Pair.First);
    Fresh(Plan.Second, Pair.Second);
    Plan.Complete = false;
  }
  return Plan;
}

std::vector<CommitDecision>
narada::planCommit(const std::vector<std::string> &Shapes,
                   const std::function<bool(size_t)> &SynthesisSucceeds) {
  std::vector<CommitDecision> Out(Shapes.size());
  std::unordered_map<std::string, size_t> TestByShape;
  size_t TestCount = 0;
  for (size_t I = 0; I < Shapes.size(); ++I) {
    auto Existing = TestByShape.find(Shapes[I]);
    if (Existing != TestByShape.end()) {
      Out[I] = {CommitDecision::Kind::Join, Existing->second};
      continue;
    }
    if (SynthesisSucceeds(I)) {
      Out[I] = {CommitDecision::Kind::NewTest, TestCount};
      TestByShape[Shapes[I]] = TestCount++;
    } else {
      // Not recorded: a later pair of this shape re-attempts, like the
      // serial loop (failures are deterministic, so it fails the same
      // way and yields its own skip entry).
      Out[I] = {CommitDecision::Kind::FailSkip, 0};
    }
  }
  return Out;
}

SynthAttempt narada::attemptSynthesis(TestSynthesizer &Synth,
                                      const RacyPair &Pair,
                                      const SharingPlan &Plan) {
  Result<std::unique_ptr<TestDecl>> Test =
      Synth.synthesize(Pair, Plan, SynthPlaceholderName);
  SynthAttempt Out;
  if (!Test) {
    Out.Err = Test.error();
    return Out;
  }
  Out.Ok = true;
  Out.Source = printTest(**Test);
  Out.Complete = Plan.Complete;
  Out.SharedClass = Plan.SharedClassName;
  return Out;
}

SynthStageOutput
narada::runSynthesisStage(const AnalysisResult &Analysis,
                          const ProgramInfo &Info,
                          const SeedRegistry &Registry,
                          const std::vector<RacyPair> &Pairs,
                          const NaradaOptions &Options,
                          const SynthIsolateContext *Iso) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  const size_t N = Pairs.size();
  // Isolated workers root their spans under the submitting thread's
  // innermost span (normally "pipeline.synth"), as worker threads do.
  const bool Isolated = Iso && Iso->Isolate.Enabled;
  UnitExecutor Exec(Options.Jobs, "pair", Isolated ? &Iso->Isolate : nullptr,
                    Isolated ? synthworker::encodeSetup(
                                   *Iso, Options, obs::Span::currentPath())
                             : std::string());
  Metrics.gauge("synth.jobs").set(static_cast<int64_t>(Exec.workers()));

  std::vector<PairSlot> Slots(N);

  // Phase A: derive every pair's sharing plan and shape key.
  std::vector<std::optional<UnitFault>> DeriveFaults = Exec.run(
      unitIds(N),
      [&](size_t I) {
        fault::probe("synth.pair_task");
        // Derivers and synthesizers are stateless views of the shared
        // read-only databases, so each unit builds its own.
        ContextDeriver Deriver(Analysis, Info);
        {
          obs::Span DeriveSpan("derive");
          Slots[I].Plan = deriveSynthPlan(Deriver, Pairs[I], I, Options);
        }
        Slots[I].Shape = synthShapeKey(Pairs[I], Slots[I].Plan);
      },
      [&](size_t I) {
        return synthworker::encodeUnit("derive", I, Pairs[I].key());
      },
      [&](size_t I, const wire::RecordReader &Reply) {
        Slots[I].Shape = Reply.getOr("shape", "");
      });
  for (size_t I = 0; I < N; ++I) {
    if (DeriveFaults[I])
      markFaulted(Slots[I], I, std::move(*DeriveFaults[I]));
    else if (Slots[I].Shape.empty())
      markFaulted(Slots[I], I,
                  {UnitFault::Kind::Crash, "hard fault: protocol-error: "
                                           "derive reply carried no shape"});
  }

  // Phase B: synthesize each shape's first pair under a placeholder name.
  // Later pairs of a shape only need their own attempt when the first one
  // failed (rare) — the commit walk triggers those on demand, one unit at
  // a time, exactly when the serial loop would have attempted them.
  // Faulted pairs carry sentinel shapes, so each stays a lead of its own
  // and never absorbs healthy pairs.
  auto RunSynthesis = [&](const std::vector<size_t> &Ids) {
    std::vector<std::optional<UnitFault>> Faults = Exec.run(
        Ids,
        [&](size_t I) {
          obs::Span SynthesizeSpan("synthesize");
          TestSynthesizer Synth(Registry, Info);
          Slots[I].Attempt = attemptSynthesis(Synth, Pairs[I], Slots[I].Plan);
        },
        [&](size_t I) {
          return synthworker::encodeUnit("synth", I, Pairs[I].key());
        },
        [&](size_t I, const wire::RecordReader &Reply) {
          Slots[I].Attempt = synthworker::decodeAttempt(Reply);
        });
    for (size_t K = 0; K < Ids.size(); ++K)
      if (Faults[K])
        markFaulted(Slots[Ids[K]], Ids[K], std::move(*Faults[K]));
  };
  std::vector<size_t> Leads;
  {
    std::unordered_map<std::string, size_t> FirstOfShape;
    for (size_t I = 0; I < N; ++I)
      if (!Slots[I].Fault &&
          FirstOfShape.try_emplace(Slots[I].Shape, I).second)
        Leads.push_back(I);
  }
  RunSynthesis(Leads);

  // Commit: replay the serial bookkeeping in canonical pair order.
  std::vector<std::string> Shapes;
  Shapes.reserve(N);
  for (const PairSlot &Slot : Slots)
    Shapes.push_back(Slot.Shape);
  auto SynthesisSucceeds = [&](size_t I) {
    if (!Slots[I].Fault && !Slots[I].Attempt)
      RunSynthesis({I});
    return !Slots[I].Fault && Slots[I].Attempt->Ok;
  };
  std::vector<CommitDecision> Decisions =
      planCommit(Shapes, SynthesisSucceeds);

  SynthStageOutput Out;
  for (size_t I = 0; I < N; ++I) {
    const RacyPair &Pair = Pairs[I];
    PairSlot &Slot = Slots[I];
    if (Slot.Fault) {
      // Contained fault: the pair degrades to a structured skip no matter
      // what the commit plan would have decided (its sentinel shape can
      // only yield FailSkip anyway).
      const bool Crash = Slot.Fault->K == UnitFault::Kind::Crash;
      SkipReason Reason =
          Crash ? SkipReason::WorkerCrash : SkipReason::InternalFault;
      NARADA_LOG_WARN("pair %s %s, contained: %s", Pair.key().c_str(),
                      Crash ? "hard-faulted its worker"
                            : "crashed during synthesis",
                      Slot.Fault->Message.c_str());
      Out.Skipped.push_back({Pair.key(), Reason, Slot.Fault->Message});
      countSkip(Reason);
      continue;
    }
    switch (Decisions[I].K) {
    case CommitDecision::Kind::Join: {
      SynthesizedTestInfo &Test = Out.Tests[Decisions[I].TestIndex];
      Test.CoveredPairKeys.push_back(Pair.key());
      Test.CandidateLabels.emplace_back(Pair.First.AccessLabel,
                                        Pair.Second.AccessLabel);
      Metrics.counter("synth.pairs_deduped").inc();
      break;
    }
    case CommitDecision::Kind::FailSkip: {
      const Error &E = Slot.Attempt->Err;
      SkipReason Reason = classifySkip(E);
      NARADA_LOG_DEBUG("skip %s (%s): %s", Pair.key().c_str(),
                       skipReasonId(Reason), E.str().c_str());
      Out.Skipped.push_back({Pair.key(), Reason, E.str()});
      countSkip(Reason);
      break;
    }
    case CommitDecision::Kind::NewTest: {
      SynthesizedTestInfo TestInfo;
      TestInfo.Name =
          formatString("%s_%03zu", TestNamePrefix, Out.Tests.size());
      // Phase B printed the test under the placeholder; splice in the
      // final dense name the commit order just assigned.
      TestInfo.SourceText = std::move(Slot.Attempt->Source);
      size_t At = TestInfo.SourceText.find(SynthPlaceholderName);
      if (At != std::string::npos)
        TestInfo.SourceText.replace(At, std::strlen(SynthPlaceholderName),
                                    TestInfo.Name);
      TestInfo.Representative = Pair;
      TestInfo.CoveredPairKeys.push_back(Pair.key());
      TestInfo.ContextComplete = Slot.Attempt->Complete;
      TestInfo.SharedClassName = Slot.Attempt->SharedClass;
      TestInfo.Field = Pair.Field;
      TestInfo.CandidateLabels.emplace_back(Pair.First.AccessLabel,
                                            Pair.Second.AccessLabel);
      Out.SynthesizedSource += TestInfo.SourceText + "\n";
      Out.Tests.push_back(std::move(TestInfo));
      Metrics.counter("synth.tests_synthesized").inc();
      if (!Slot.Attempt->Complete)
        Metrics.counter("synth.tests_partial_context").inc();
      break;
    }
    }
  }
  return Out;
}
