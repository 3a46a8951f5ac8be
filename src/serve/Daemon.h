//===- serve/Daemon.h - The narada-cli serve daemon -------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `narada-cli serve --socket <path> [--cache <file>]`: a persistent
/// analysis daemon.  It listens on a Unix-domain socket, accepts one
/// framed request per connection (serve/Protocol.h), executes submits
/// through the shared engine with the ServeCaches hooks attached, and
/// ships back captured stdout/stderr/report bytes plus the exit code —
/// which is why a warm daemon answer can be byte-compared against a cold
/// single-shot CLI run (docs/SERVING.md).
///
/// Requests are handled sequentially; the parallelism knob is the
/// submitted --jobs value, which fans out *inside* a request exactly as
/// the CLI would.  Before each request the metrics registry is reset, so
/// a request's report covers its own counters and spans just like a fresh
/// CLI process.
///
/// Fault containment: each request runs inside fault::ScopedUnit(request
/// index) with a "serve.request" probe at the top — an injected fault
/// turns into an error response for that one client while the daemon
/// keeps serving.  When NARADA_FAULT_INJECT is armed the cache hooks are
/// withheld entirely, so a fault can never poison a cache entry that
/// later requests would trust.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SERVE_DAEMON_H
#define NARADA_SERVE_DAEMON_H

#include "racedb/RaceDb.h"
#include "serve/Caches.h"
#include "serve/Protocol.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

namespace narada {
namespace serve {

/// Runs \p Fn with stdout/stderr redirected into temp files, restores the
/// real descriptors, and returns Fn's result with the captured bytes in
/// \p OutBytes / \p ErrBytes.  The capture covers C stdio *and* raw fd
/// writes (the engine prints via printf/fputs), which is exactly what the
/// byte-identity contract needs.
int captureRun(const std::function<int()> &Fn, std::string &OutBytes,
               std::string &ErrBytes);

/// Executes one decoded submit request against \p Caches (null = run
/// cold, e.g. under armed fault injection) and returns the response.
/// \p WorkerExe is the daemon's own executable path for --isolate
/// re-exec; \p RequestIndex scopes the fault-injection unit.  Exposed so
/// tests can drive warm-vs-cold loopback without a socket.
///
/// When \p Db is non-null (`serve --racedb`), the run's report is always
/// produced internally and — on success — folded into the database as one
/// triage observation; the report bytes still ship to the client only
/// when the request asked for them, so response bytes are unchanged.
SubmitResponse handleSubmit(SubmitRequest Request, ServeCaches *Caches,
                            const std::string &WorkerExe,
                            uint64_t RequestIndex,
                            racedb::RaceDb *Db = nullptr);

/// The daemon's race database and the file it persists to.  Every ingest
/// moves the database's NextRunId, so the database owes its file a save
/// while NextRunId differs from the value the file holds.  save() writes
/// only then: a request that ingested nothing (a synthesize, a failed run)
/// leaves the file alone, a fresh database's file appears with the first
/// detection, and a failed write stays owed until a later save() succeeds,
/// as with ServeCaches::save().
class RaceDbFile {
public:
  /// \p Db is what \p Path holds, or a fresh database for a missing file.
  RaceDbFile(std::string Path, racedb::RaceDb Db)
      : Path(std::move(Path)), Db(std::move(Db)),
        SavedRunId(this->Db.NextRunId) {}

  racedb::RaceDb &db() { return Db; }

  /// True while the database holds an ingest its file lacks.
  bool pending() const { return Db.NextRunId != SavedRunId; }

  /// Writes the file when pending(); true when nothing was owed or the
  /// write succeeded.
  bool save();

private:
  std::string Path;
  racedb::RaceDb Db;
  uint64_t SavedRunId; ///< NextRunId of the database the file holds.
};

/// The `narada-cli serve` entrypoint: Argv past the subcommand, i.e.
/// "--socket <path> [--cache <file>] [--racedb <file>]".  Returns the
/// process exit code.
int runServe(int Argc, char **Argv);

} // namespace serve
} // namespace narada

#endif // NARADA_SERVE_DAEMON_H
