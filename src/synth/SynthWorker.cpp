//===- synth/SynthWorker.cpp - Isolated synthesis worker service ---------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/SynthWorker.h"

#include "obs/Span.h"
#include "support/Bundle.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"
#include "synth/TestSynthesizer.h"

#include <optional>

using namespace narada;
using namespace narada::synthworker;

void synthworker::encodeSynthOptions(wire::RecordWriter &W,
                                     const NaradaOptions &Options) {
  W.add("focus_class", Options.FocusClass);
  W.addBool("enable_context_derivation", Options.EnableContextDerivation);
  W.addBool("static_verdicts", Options.StaticVerdicts);
  W.addBool("static_rank", Options.StaticRank);
  W.addBool("derivation_seed_set", Options.DerivationSeed.has_value());
  if (Options.DerivationSeed)
    W.add("derivation_seed", *Options.DerivationSeed);
}

void synthworker::decodeSynthOptions(const wire::RecordReader &In,
                                     NaradaOptions &Options) {
  Options.FocusClass = In.getOr("focus_class", Options.FocusClass);
  Options.EnableContextDerivation =
      In.getBool("enable_context_derivation", Options.EnableContextDerivation);
  Options.StaticVerdicts =
      In.getBool("static_verdicts", Options.StaticVerdicts);
  Options.StaticRank = In.getBool("static_rank", Options.StaticRank);
  if (In.getBool("derivation_seed_set", false))
    Options.DerivationSeed = In.getU64("derivation_seed");
}

std::string synthworker::encodeSetup(const SynthIsolateContext &Iso,
                                     const NaradaOptions &Options,
                                     const std::string &SpanParent) {
  wire::RecordWriter W;
  W.add("mode", "synth");
  wire::addBundle(W, Iso.LibrarySource, Iso.SeedNames);
  encodeSynthOptions(W, Options);
  W.add("span_parent", SpanParent);
  return W.str();
}

std::string synthworker::encodeUnit(const char *Op, size_t Unit,
                                    const std::string &PairKey) {
  wire::RecordWriter W;
  W.add("op", Op);
  W.add("unit", static_cast<uint64_t>(Unit));
  W.add("pair_key", PairKey);
  return W.str();
}

void synthworker::encodeAttempt(wire::RecordWriter &Reply,
                                const SynthAttempt &Attempt) {
  Reply.addBool("ok", Attempt.Ok);
  if (Attempt.Ok) {
    Reply.add("source", Attempt.Source);
    Reply.addBool("complete", Attempt.Complete);
    Reply.add("shared_class", Attempt.SharedClass);
  } else {
    Reply.add("err_message", Attempt.Err.message());
    Reply.add("err_location", Attempt.Err.location());
  }
}

SynthAttempt synthworker::decodeAttempt(const wire::RecordReader &Reply) {
  SynthAttempt Out;
  Out.Ok = Reply.getBool("ok");
  if (Out.Ok) {
    Out.Source = Reply.getOr("source", "");
    Out.Complete = Reply.getBool("complete");
    Out.SharedClass = Reply.getOr("shared_class", "");
  } else {
    Out.Err = Error(Reply.getOr("err_message", ""),
                    Reply.getOr("err_location", ""));
  }
  return Out;
}

/// Everything Service rebuilds from the setup record.  Heap-allocated and
/// never moved: Deriver/Synth hold references into Front.
struct Service::State {
  NaradaOptions Options;
  std::string SpanParentPath;
  NaradaFrontHalf Front;
  std::optional<ContextDeriver> Deriver;
  std::optional<TestSynthesizer> Synth;
};

Service::Service() : S(std::make_unique<State>()) {}
Service::~Service() = default;

Result<std::unique_ptr<Service>>
Service::create(const wire::RecordReader &Setup) {
  auto Out = std::unique_ptr<Service>(new Service());
  State &S = *Out->S;

  decodeSynthOptions(Setup, S.Options);
  S.SpanParentPath = Setup.getOr("span_parent", "pipeline.synth");

  Result<wire::ModuleBundle> Bundle = wire::readBundle(Setup, "synth setup");
  if (!Bundle)
    return Bundle.error();

  // The supervisor's own front half, rebuilt.  Its spans and metrics are
  // discarded by the worker loop's per-unit registry reset (the supervisor
  // ran these stages itself), so none of this double-counts.
  Result<NaradaFrontHalf> Front =
      runNaradaFrontHalf(Bundle->Source, Bundle->Seeds, S.Options);
  if (!Front)
    return Front.error();
  S.Front = Front.take();

  S.Deriver.emplace(S.Front.Analysis, *S.Front.Program.Info);
  S.Synth.emplace(S.Front.Registry, *S.Front.Program.Info);
  return Out;
}

void Service::runUnit(const wire::RecordReader &Request,
                      wire::RecordWriter &Reply) {
  std::string Op = Request.getOr("op", "");
  uint64_t I = Request.getU64("unit");
  std::string Key = Request.getOr("pair_key", "");
  Reply.add("op", Op);
  Reply.add("unit", I);

  if (I >= S->Front.Pairs.size() || S->Front.Pairs[I].key() != Key) {
    Reply.add("fault",
              formatString("unit %llu (%s) does not match this worker's "
                           "pair table (%zu pairs)",
                           static_cast<unsigned long long>(I), Key.c_str(),
                           S->Front.Pairs.size()));
    return;
  }

  const RacyPair &Pair = S->Front.Pairs[I];
  obs::SpanParent Parent{S->SpanParentPath};
  if (Op == "derive") {
    fault::probe("synth.pair_task");
    SharingPlan Plan;
    {
      obs::Span DeriveSpan("derive", Parent);
      Plan = deriveSynthPlan(*S->Deriver, Pair, I, S->Options);
    }
    Reply.add("shape", synthShapeKey(Pair, Plan));
    return;
  }

  if (Op == "synth") {
    // Derivation is deterministic per pair index, so the synth unit
    // re-derives its plan rather than depending on which worker ran the
    // pair's derive unit.
    SharingPlan Plan = deriveSynthPlan(*S->Deriver, Pair, I, S->Options);
    obs::Span SynthesizeSpan("synthesize", Parent);
    encodeAttempt(Reply, attemptSynthesis(*S->Synth, Pair, Plan));
    return;
  }

  Reply.add("fault", "unknown synth op '" + Op + "'");
}
