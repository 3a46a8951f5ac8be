//===- serve/Engine.h - Command engine shared by CLI and daemon -*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command engine behind both faces of the tool: `narada-cli <cmd>`
/// (one process, one run) and `narada-cli serve` (a persistent daemon
/// executing the same commands per request).  The CLI's argument grammar,
/// command dispatch, stdout/stderr output, and report emission all live
/// here — narada-cli.cpp is a thin main() and the daemon replays requests
/// through runCommandAndReport(), which is why a warm daemon answer can be
/// byte-compared against a cold CLI run.
///
/// EngineHooks is the daemon's seam: a whole-detection-stage memo.  Every
/// other stage runs afresh on each request, as in the CLI, which passes
/// no hooks and so runs detection afresh too.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SERVE_ENGINE_H
#define NARADA_SERVE_ENGINE_H

#include "detect/Detection.h"
#include "support/Error.h"
#include "support/ProcessPool.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace narada {
namespace serve {

/// Parsed command line (or decoded submit request).
struct CliArgs {
  std::string Command;
  std::string Input;                 ///< File path or "corpus:Cx".
  std::vector<std::string> Names;    ///< Test / seed names.
  std::string FocusClass;
  uint64_t Seed = 1;
  unsigned Tests = 400;
  std::string ReportPath;            ///< --report: JSON run report target.
  std::string TracePath;             ///< --trace: Chrome trace target.
  bool Stats = false;                ///< --stats: summary on stderr.
  unsigned Jobs = 1;                 ///< --jobs: worker threads (0 = all).
  DetectOptions Detect;              ///< Watchdog/budget knobs for detect.
  std::string PolicyName = "random"; ///< --policy: scheduler for `run`.
  std::string ReplayPath;            ///< --replay: witness trace to re-run.
  bool StaticVerdicts = false;       ///< --static-verdicts.
  bool StaticRank = false;           ///< --static-rank.
  bool StaticOnly = false;           ///< --static-only: triage, no seeds.
  bool GenSeeds = false;             ///< --gen-seeds: synthesize the seeds.
  unsigned GenRounds = 2;            ///< --gen-rounds.
  unsigned GenBudget = 16;           ///< --gen-budget (candidates/round).
  pool::IsolateOptions Isolate;      ///< --isolate / --worker-* flags.
};

/// The daemon's cache seam into the engine.
struct EngineHooks {
  /// Whole-detection-stage memo, keyed by a digest of (final source,
  /// detect options, job list).  Lookup returns null on miss; the pointee
  /// must stay valid until the command returns.  Consulted only for
  /// plain detection runs — witness emission, replay, and armed fault
  /// injection bypass the memo entirely.
  std::function<const std::vector<TestDetectionResult> *(uint64_t Key)>
      LookupDetect;
  std::function<void(uint64_t Key, const std::vector<TestDetectionResult> &)>
      StoreDetect;
};

/// Prints the CLI usage text to stderr; returns 2 (the usage exit code).
int usage();

/// Parses a narada-cli command line; nullopt (after printing a complaint)
/// on malformed input.  Seeds Jobs/Isolate from NARADA_JOBS/NARADA_ISOLATE
/// and resolves Argv[0] into Isolate.WorkerExe.
std::optional<CliArgs> parseArgs(int Argc, char **Argv);

/// Loads the program source: either a corpus entry or a file.  When a
/// corpus entry is used, its seeds and focus class become the defaults.
Result<std::string> loadSource(CliArgs &Args);

/// `narada-cli corpus`: lists the built-in benchmark corpus.
int cmdCorpus();

/// Dispatches \p Args.Command over \p Source, then emits --report/--stats
/// (skipped on usage errors), and returns the process exit code (2 =
/// usage error).  Output goes to stdout/stderr exactly as the historical
/// CLI wrote it.  This is the one call both narada-cli main() and the
/// daemon's request handler make.
int runCommandAndReport(CliArgs &Args, std::string Source,
                        const EngineHooks *Hooks = nullptr);

} // namespace serve
} // namespace narada

#endif // NARADA_SERVE_ENGINE_H
