//===- tools/narada-cli.cpp - Command-line driver -------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The command-line face of the pipeline, in the spirit of the original
// Narada artifact.  The command engine itself — argument grammar, command
// dispatch, output, report emission — lives in src/serve/Engine.h so the
// `narada-cli serve` daemon executes the exact same code per request;
// this file is the thin process shell: main(), the serve/submit
// subcommand dispatch, and the `worker` subprocess entrypoint.
//
//   narada-cli run <file.mj> <test> [--seed N]
//       Execute one test under a seeded random scheduler and report the
//       outcome (faults, deadlock, final-state hash).
//
//   narada-cli trace <file.mj> <test>
//       Execute a test sequentially and print its full event trace.
//
//   narada-cli analyze <file.mj> <seed-test>... [--class C]
//       Run stage 1+2: print unprotected accesses, the setter/factory
//       databases, and the racy pairs.
//
//   narada-cli synthesize <file.mj> <seed-test>... [--class C]
//       Run the full pipeline and print every synthesized racy test.
//
//   narada-cli detect <file.mj> <seed-test>... [--class C]
//       Synthesize, then run the detector stack over every synthesized
//       test and summarize detected/reproduced/harmful/benign races.
//
//   narada-cli contege <file.mj> --class C [--tests N]
//       Run the ConTeGe-style random baseline against class C.
//
//   narada-cli corpus
//       List the built-in C1..C9 benchmark corpus.
//
//   narada-cli serve --socket <path> [--cache <file>] [--racedb <file>]
//       Run the persistent analysis daemon (docs/SERVING.md).
//
//   narada-cli submit --socket <path> <command> [args]
//       Run one command on a serve daemon instead of locally.
//
//   narada-cli triage <ingest|query|diff|gate> ...
//       The durable race database and regression gate (docs/TRIAGE.md).
//
// Corpus shorthand: pass "corpus:C1" instead of a file to load a built-in
// benchmark (its seeds are implied).
//
// Global flags (any command): --report <file.json> writes a structured run
// report; --stats prints a metrics summary to stderr.  See
// docs/OBSERVABILITY.md.
//
//===----------------------------------------------------------------------===//

#include "detect/DetectWorker.h"
#include "obs/MetricsWire.h"
#include "racedb/Triage.h"
#include "obs/Span.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "serve/Engine.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Wire.h"
#include "synth/SynthWorker.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

using namespace narada;

namespace {

/// `narada-cli worker`: the subprocess half of --isolate
/// (support/ProcessPool.h).  Speaks the framed record protocol on
/// stdin/stdout: the first frame is the stage `setup` (mode=synth|detect),
/// answered with `ready`; every further frame is a unit request, run under
/// fault::ScopedUnit(unit) and answered with `result` (carrying fault= when
/// the unit threw), or with a graceful `crash kind=oom` when the unit
/// exhausts memory but the worker catches the bad_alloc in time.  A monitor
/// thread emits `hb` heartbeats so the supervisor can tell a busy worker
/// from a wedged one.  Hard faults (SIGSEGV, abort, runaway loops, OOM kills)
/// simply take the process down — classification is the supervisor's job.
int cmdWorker() {
  std::mutex OutMutex;
  auto Send = [&](const std::string &Payload) {
    std::lock_guard<std::mutex> Lock(OutMutex);
    return wire::writeFrame(1, Payload);
  };

  std::atomic<bool> Running{true};
  std::thread Heartbeat([&] {
    wire::RecordWriter Beat;
    Beat.add("verb", std::string_view("hb"));
    const std::string Frame = Beat.str();
    while (Running.load(std::memory_order_relaxed)) {
      if (!Send(Frame))
        return; // Supervisor gone; the read loop will see EOF too.
      // Sleep ~200ms in short slices so shutdown does not lag the beat.
      for (int I = 0; I < 4 && Running.load(std::memory_order_relaxed); ++I)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  auto StopHeartbeat = [&] {
    Running.store(false, std::memory_order_relaxed);
    Heartbeat.join();
  };

  std::unique_ptr<synthworker::Service> Synth;
  std::unique_ptr<detectworker::Service> Detect;

  std::string Payload;
  for (;;) {
    wire::ReadStatus St = wire::readFrame(0, Payload);
    if (St != wire::ReadStatus::Ok)
      break; // EOF (supervisor closed the pipe) or a garbled frame.
    wire::RecordReader Record(Payload);
    if (Record.getOr("verb", "") == "shutdown")
      break;

    if (!Synth && !Detect) {
      // First frame: the stage setup.
      std::string Mode = Record.getOr("mode", "");
      if (Mode == "synth") {
        Result<std::unique_ptr<synthworker::Service>> Created =
            synthworker::Service::create(Record);
        if (!Created) {
          std::fprintf(stderr, "narada-cli worker: %s\n",
                       Created.error().str().c_str());
          StopHeartbeat();
          return 1;
        }
        Synth = Created.take();
      } else if (Mode == "detect") {
        Result<std::unique_ptr<detectworker::Service>> Created =
            detectworker::Service::create(Record);
        if (!Created) {
          std::fprintf(stderr, "narada-cli worker: %s\n",
                       Created.error().str().c_str());
          StopHeartbeat();
          return 1;
        }
        Detect = Created.take();
      } else {
        std::fprintf(stderr,
                     "narada-cli worker: setup frame has unknown mode "
                     "'%s'\n",
                     Mode.c_str());
        StopHeartbeat();
        return 1;
      }
      wire::RecordWriter Ready;
      Ready.add("verb", std::string_view("ready"));
      if (!Send(Ready.str()))
        break;
      continue;
    }

    // A unit request.  The registry is reset per unit so the reply's
    // metrics delta covers exactly this unit's work; the supervisor merges
    // deltas, which keeps pipeline counters aligned with in-process runs.
    try {
      obs::MetricsRegistry::global().reset();
      wire::RecordWriter Reply;
      Reply.add("verb", std::string_view("result"));
      try {
        fault::ScopedUnit Unit(Record.getU64("unit"));
        if (Synth)
          Synth->runUnit(Record, Reply);
        else
          Detect->runUnit(Record, Reply);
      } catch (const std::bad_alloc &) {
        throw;
      } catch (...) {
        // A soft failure: the supervisor's UnitExecutor (obs/UnitExecutor.h)
        // turns fault= into the unit's internal fault, as for an in-process
        // throw.
        Reply.add("fault", describeException(std::current_exception()));
      }
      obs::appendMetricsDelta(Reply, obs::MetricsRegistry::global().snapshot());
      if (!Send(Reply.str()))
        break;
    } catch (const std::bad_alloc &) {
      // Graceful OOM: the allocator failed (RLIMIT_AS) but this frame
      // barely needs memory.  Report and keep serving — the unit is
      // deterministic, the supervisor will not retry it.
      wire::RecordWriter Crash;
      Crash.add("verb", std::string_view("crash"));
      Crash.add("kind", std::string_view("oom"));
      Crash.add("detail",
                std::string_view("allocation failure (std::bad_alloc)"));
      if (!Send(Crash.str()))
        break;
    }
  }
  StopHeartbeat();
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // The daemon-side subcommands own their argument grammar (--socket is
  // not a pipeline flag), so dispatch before the engine parser runs.
  if (Argc >= 2 && std::string(Argv[1]) == "serve")
    return serve::runServe(Argc, Argv);
  if (Argc >= 2 && std::string(Argv[1]) == "submit")
    return serve::runSubmit(Argc, Argv);
  if (Argc >= 2 && std::string(Argv[1]) == "triage")
    return racedb::runTriage(Argc, Argv);

  std::optional<serve::CliArgs> Args = serve::parseArgs(Argc, Argv);
  if (!Args)
    return serve::usage();
  if (Args->Command == "corpus")
    return serve::cmdCorpus();
  if (Args->Command == "worker")
    return cmdWorker();
  if (Args->Input.empty())
    return serve::usage();

  Result<std::string> Source = serve::loadSource(*Args);
  if (!Source) {
    std::fprintf(stderr, "error: %s\n", Source.error().str().c_str());
    return 1;
  }

  if (!Args->TracePath.empty())
    obs::TraceCollector::global().enable();

  int Rc = serve::runCommandAndReport(*Args, *Source);

  if (!Args->TracePath.empty()) {
    obs::TraceCollector &Trace = obs::TraceCollector::global();
    Trace.disable();
    // Unit scope so the obs.trace.flush injection site is reachable from
    // the fault-containment sweep (probes only fire inside a unit).
    fault::ScopedUnit Unit(0);
    // A failed flush is a diagnostics loss, not a pipeline failure: warn
    // (inside flushToFile) and keep the command's own exit code.
    Trace.flushToFile(Args->TracePath);
  }
  return Rc;
}
