//===- synth/SynthWorker.h - Isolated synthesis worker service --*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two halves of the --isolate synthesis stage's wire contract
/// (support/ProcessPool.h):
///
///  - the supervisor side encodes the `setup` payload (library source,
///    seed names, and every option that shapes pair generation or
///    derivation) and per-unit requests;
///  - the worker side (Service, hosted by `narada-cli worker`) rebuilds
///    the front half of the pipeline from that setup with the supervisor's
///    own runNaradaFrontHalf — every stage up to pair generation is
///    deterministic, so the worker's pair table matches the supervisor's
///    index for index, verified per unit via pair_key — and then serves
///    `derive` and `synth` unit requests.
///
/// Unit replies carry either the result records (shape= for derive,
/// encodeAttempt's for synth) or a fault= record for contained soft
/// failures, added by the worker loop when the unit throws.  Hard faults
/// (SIGSEGV, abort, hang, OOM kill) never produce a reply at all — that is
/// the point of running out of process.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SYNTH_SYNTHWORKER_H
#define NARADA_SYNTH_SYNTHWORKER_H

#include "support/Wire.h"
#include "synth/ParallelDriver.h"

#include <memory>
#include <string>

namespace narada {
namespace synthworker {

/// Appends the NaradaOptions fields that shape pair generation and
/// derivation — the option half of the setup record, shared with the
/// daemon's submit codec (serve/Protocol.h) so there is exactly one
/// serialization of these knobs.
void encodeSynthOptions(wire::RecordWriter &W, const NaradaOptions &Options);

/// Inverse of encodeSynthOptions; absent keys keep \p Options' values.
void decodeSynthOptions(const wire::RecordReader &In, NaradaOptions &Options);

/// Encodes the `setup` frame payload for an isolated synthesis stage.
/// \p SpanParent is the supervisor's current span path ("pipeline.synth"),
/// under which the worker roots its per-unit derive/synthesize spans so
/// merged phase trees match the in-process layout.
std::string encodeSetup(const SynthIsolateContext &Iso,
                        const NaradaOptions &Options,
                        const std::string &SpanParent);

/// Encodes one unit request; \p Op is "derive" or "synth".  The pair key
/// rides along so a worker whose rebuilt pair table diverged (it cannot,
/// unless the binary or inputs differ) fails loudly instead of deriving
/// the wrong pair.
std::string encodeUnit(const char *Op, size_t Unit,
                       const std::string &PairKey);

/// Appends a synth unit's result: ok=/source=/complete=/shared_class=, or
/// ok=0/err_message=/err_location= when synthesis failed.
void encodeAttempt(wire::RecordWriter &Reply, const SynthAttempt &Attempt);

/// Inverse of encodeAttempt.
SynthAttempt decodeAttempt(const wire::RecordReader &Reply);

/// Worker-side service: pipeline state rebuilt from a setup record,
/// serving unit requests for the rest of the process's life.
class Service {
public:
  ~Service();

  /// Rebuilds the pipeline front half (runNaradaFrontHalf) from \p Setup.
  static Result<std::unique_ptr<Service>> create(
      const wire::RecordReader &Setup);

  /// Handles one unit request, appending reply records to \p Reply.
  /// Synthesizer errors land in err_* records; exceptions propagate to the
  /// worker loop, which answers them with a fault= record (or, for
  /// std::bad_alloc, a graceful oom crash frame); hard faults never
  /// return.
  void runUnit(const wire::RecordReader &Request, wire::RecordWriter &Reply);

private:
  Service();
  struct State;
  std::unique_ptr<State> S;
};

} // namespace synthworker
} // namespace narada

#endif // NARADA_SYNTH_SYNTHWORKER_H
