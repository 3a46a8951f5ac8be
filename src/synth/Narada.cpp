//===- synth/Narada.cpp - End-to-end test synthesis pipeline -------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/Narada.h"

#include "analysis/AccessAnalysis.h"
#include "lang/ASTPrinter.h"
#include "obs/Log.h"
#include "obs/Span.h"
#include "staticrace/LocksetAnalysis.h"
#include "support/StringUtils.h"
#include "synth/ParallelDriver.h"
#include "synth/SeedNormalizer.h"
#include "synth/TestSynthesizer.h"

using namespace narada;

const char *narada::skipReasonId(SkipReason Reason) {
  switch (Reason) {
  case SkipReason::NoSeedProvider:
    return "no_seed_provider";
  case SkipReason::NoSeedCallSite:
    return "no_seed_call_site";
  case SkipReason::DerivationMismatch:
    return "derivation_mismatch";
  case SkipReason::InternalFault:
    return "internal_fault";
  case SkipReason::WorkerCrash:
    return "worker_crash";
  case SkipReason::Other:
    break;
  }
  return "other";
}

std::string SkippedPair::str() const {
  std::string Out = PairKey + ": " + skipReasonId(Reason);
  if (!Message.empty())
    Out += ": " + Message;
  return Out;
}

namespace {

/// Pass 1: the library plus its normalized seeds \p SeedNames, recompiled
/// so collectObjects is a syntactic prefix inline; their source is
/// appended to \p NormalizedSource.
Result<CompiledProgram>
compileNormalized(std::string_view LibrarySource,
                  const std::vector<std::string> &SeedNames,
                  std::string &NormalizedSource) {
  Result<CompiledProgram> Original = compileProgram(LibrarySource);
  if (!Original)
    return Original;
  for (const auto &Class : Original->Ast->Classes)
    NormalizedSource += printClass(*Class) + "\n";
  for (const std::string &SeedName : SeedNames) {
    const TestDecl *Seed = Original->Ast->findTest(SeedName);
    if (!Seed)
      return Error(formatString("no seed test named '%s'", SeedName.c_str()));
    Result<std::unique_ptr<TestDecl>> Norm =
        normalizeSeed(*Seed, *Original->Info);
    if (!Norm)
      return Norm.error();
    NormalizedSource += printTest(**Norm) + "\n";
  }
  Result<CompiledProgram> Recompiled = compileProgram(NormalizedSource);
  if (!Recompiled)
    return Error("internal: normalized seeds failed to recompile: " +
                 Recompiled.error().str());
  return Recompiled;
}

} // namespace

Result<NaradaFrontHalf>
narada::runNaradaFrontHalf(std::string_view LibrarySource,
                           const std::vector<std::string> &SeedNames,
                           const NaradaOptions &Options) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  NaradaFrontHalf Out;

  Result<CompiledProgram> Normalized = [&] {
    obs::Span FrontendSpan("frontend", &Out.Stages.FrontendSeconds);
    return compileNormalized(LibrarySource, SeedNames, Out.NormalizedSource);
  }();
  if (!Normalized)
    return Normalized.error();
  Out.Program = Normalized.take();

  // Stage 1: execute the sequential seeds and analyze their traces.
  {
    obs::Span AnalyzeSpan("analyze", &Out.Stages.AnalysisSeconds);
    for (const std::string &SeedName : SeedNames) {
      Result<TestRun> Run = runTestSequential(*Out.Program.Module, SeedName);
      if (!Run)
        return Run.error();
      if (Run->Result.Faulted)
        return Error(formatString("seed test '%s' faulted: %s",
                                  SeedName.c_str(),
                                  Run->Result.FaultMessages[0].c_str()));
      Metrics.counter("analysis.seeds_executed").inc();
      Out.Analysis.merge(analyzeTrace(Run->TheTrace, *Out.Program.Info));
    }
  }

  // Optional static pre-analysis: per-method must-lockset summaries over
  // the lowered module (same lowering the detectors run on, so static
  // labels line up with dynamic ones).
  if (Options.StaticVerdicts || Options.StaticRank) {
    obs::Span StaticSpan("staticrace", &Out.Stages.StaticRaceSeconds);
    Out.Static = std::make_shared<const staticrace::ModuleSummary>(
        staticrace::summarizeModule(*Out.Program.Module));
  }

  // Stage 2a: candidate racy pairs.
  {
    obs::Span PairGenSpan("pairgen", &Out.Stages.PairGenSeconds);
    PairGenOptions PairOptions;
    PairOptions.FocusClass = Options.FocusClass;
    PairOptions.Static = Out.Static.get();
    PairOptions.StaticRank = Options.StaticRank;
    Out.Pairs = generatePairs(Out.Analysis, PairOptions);
    Metrics.counter("synth.pairs_generated").inc(Out.Pairs.size());
  }

  std::vector<const TestDecl *> Seeds;
  for (const std::string &SeedName : SeedNames)
    Seeds.push_back(Out.Program.Ast->findTest(SeedName));
  Result<SeedRegistry> Registry =
      SeedRegistry::build(Seeds, *Out.Program.Info);
  if (!Registry)
    return Registry.error();
  Out.Registry = Registry.take();
  return Out;
}

Result<NaradaResult>
narada::runNarada(std::string_view LibrarySource,
                  const std::vector<std::string> &SeedNames,
                  const NaradaOptions &Options) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  obs::Span PipelineSpan("pipeline");
  Metrics.counter("pipeline.runs").inc();

  Result<NaradaFrontHalf> Front =
      runNaradaFrontHalf(LibrarySource, SeedNames, Options);
  if (!Front)
    return Front.error();
  NaradaResult Out;
  Out.Analysis = std::move(Front->Analysis);
  Out.Pairs = std::move(Front->Pairs);
  Out.Stages = Front->Stages;
  NARADA_LOG_INFO("analyze: %zu seeds -> %zu accesses, %zu setters, "
                  "%zu returns",
                  SeedNames.size(), Out.Analysis.Accesses.size(),
                  Out.Analysis.Setters.size(), Out.Analysis.Returns.size());
  if (Front->Static)
    NARADA_LOG_INFO("staticrace: %zu method summaries",
                    Front->Static->Methods.size());
  NARADA_LOG_INFO("pairgen: %zu candidate racy pairs%s%s", Out.Pairs.size(),
                  Options.FocusClass.empty() ? "" : " for class ",
                  Options.FocusClass.c_str());

  // Stage 2b + 3: contexts and tests, fanned across pairs by the parallel
  // driver (Options.Jobs workers; byte-identical output for every count).
  std::string SynthesizedSource;
  {
    obs::Span SynthSpan("synth", &Out.Stages.SynthesisSeconds);
    // Under --isolate the stage re-dispatches each unit to worker
    // subprocesses, which rebuild the front half with runNaradaFrontHalf
    // from the original source + seed names.
    SynthIsolateContext Iso;
    Iso.Isolate = Options.Isolate;
    Iso.LibrarySource = std::string(LibrarySource);
    Iso.SeedNames = SeedNames;
    SynthStageOutput Stage = runSynthesisStage(
        Out.Analysis, *Front->Program.Info, Front->Registry, Out.Pairs,
        Options, Options.Isolate.Enabled ? &Iso : nullptr);
    Out.Tests = std::move(Stage.Tests);
    Out.Skipped = std::move(Stage.Skipped);
    SynthesizedSource = std::move(Stage.SynthesizedSource);
    NARADA_LOG_INFO("synth: %zu tests from %zu pairs (%zu skipped)",
                    Out.Tests.size(), Out.Pairs.size(), Out.Skipped.size());
  }

  // Final pass: compile library + seeds + synthesized tests together.
  {
    obs::Span RecompileSpan("recompile", &Out.Stages.RecompileSeconds);
    Out.FinalSource = Front->NormalizedSource + "\n" + SynthesizedSource;
    Result<CompiledProgram> Final = compileProgram(Out.FinalSource);
    if (!Final)
      return Error("internal: synthesized tests failed to compile: " +
                   Final.error().str() + "\n--- source ---\n" +
                   SynthesizedSource);
    Out.Program = Final.take();
  }
  return Out;
}
