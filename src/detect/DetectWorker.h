//===- detect/DetectWorker.h - Isolated detection worker service -*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The --isolate detection stage's wire contract (support/ProcessPool.h):
/// the supervisor ships the final compiled source plus the full
/// DetectOptions in the `setup` frame; each unit frame names one
/// synthesized test (with its synthesizer hint pairs) and is answered
/// with a fully serialized TestDetectionResult.  The worker recompiles
/// the source — compilation is deterministic, so its module matches the
/// supervisor's — and runs the ordinary detectRacesInTest on it, which
/// keeps schedule exploration bit-for-bit identical to in-process mode.
///
/// A detection that throws inside the worker is answered with a fault=
/// record by the worker loop; one that takes the whole worker down
/// (SIGSEGV, OOM kill, hang) is classified by the supervisor.  Either way
/// detectRacesInTests quarantines the test, as for a throw in process.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_DETECT_DETECTWORKER_H
#define NARADA_DETECT_DETECTWORKER_H

#include "detect/Detection.h"
#include "support/ProcessPool.h"
#include "support/Wire.h"

#include <memory>
#include <string>

namespace narada {
namespace detectworker {

/// What an isolated (--isolate) detection stage needs to re-dispatch its
/// tests into worker subprocesses.
struct DetectIsolateContext {
  pool::IsolateOptions Isolate;
  /// The exact source the detection module was compiled from
  /// (NaradaResult::FinalSource) — workers recompile it.
  std::string FinalSource;
  /// Schedule trace file for Mode == Replay (empty = none); workers
  /// reload it themselves, traces do not travel over the wire.
  std::string ReplayPath;
};

/// Appends every DetectOptions field that shapes exploration or
/// classification — the option half of the setup record, shared with the
/// daemon's submit codec (serve/Protocol.h).  ReplayTrace does not travel:
/// workers reload the trace from DetectIsolateContext::ReplayPath.
void encodeDetectOptions(wire::RecordWriter &W, const DetectOptions &Options);

/// Inverse of encodeDetectOptions; absent keys keep the defaults.  Errors
/// on an unknown exploration mode name.
Result<DetectOptions> decodeDetectOptions(const wire::RecordReader &In);

/// Encodes the `setup` frame payload: source, replay path, and every
/// DetectOptions field that shapes exploration or classification.
std::string encodeSetup(const DetectIsolateContext &Iso,
                        const DetectOptions &Options);

/// Encodes one unit request for test \p Job (index \p Unit in the
/// supervisor's job list, which doubles as the fault-injection unit id).
std::string encodeUnit(size_t Unit, const TestDetectJob &Job);

/// Serializes \p Result as reply records on \p Out (detected=/race=
/// carry nested escaped records per race).
void encodeDetectResult(wire::RecordWriter &Out,
                        const TestDetectionResult &Result);

/// Inverse of encodeDetectResult.
TestDetectionResult decodeDetectResult(const wire::RecordReader &In);

/// Worker-side service: the recompiled module plus decoded options,
/// serving one detectRacesInTest call per unit request.
class Service {
public:
  ~Service();

  static Result<std::unique_ptr<Service>> create(
      const wire::RecordReader &Setup);

  /// Handles one unit request: the detection result, or an err= record
  /// for a detection error.  Exceptions propagate to the worker loop (see
  /// above; std::bad_alloc becomes the graceful oom crash frame); hard
  /// faults never return.
  void runUnit(const wire::RecordReader &Request, wire::RecordWriter &Reply);

private:
  Service();
  struct State;
  std::unique_ptr<State> S;
};

} // namespace detectworker
} // namespace narada

#endif // NARADA_DETECT_DETECTWORKER_H
