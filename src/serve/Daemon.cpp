//===- serve/Daemon.cpp - The narada-cli serve daemon --------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "serve/Daemon.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "racedb/Triage.h"
#include "support/FaultInjection.h"
#include "support/ProcessPool.h"
#include "support/Wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <fstream>
#include <optional>
#include <sstream>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace narada;
using namespace narada::serve;

namespace {

/// Creates an empty temp file and returns its path ("" on failure).
std::string makeTempFile(const char *Tag) {
  std::string Template = "/tmp/narada-serve-";
  Template += Tag;
  Template += "-XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  int Fd = ::mkstemp(Buf.data());
  if (Fd < 0)
    return "";
  ::close(Fd);
  return std::string(Buf.data());
}

/// Reads a whole file; "" when absent (a command that failed before
/// emitting its report simply ships no report bytes).
std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "";
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

int serve::captureRun(const std::function<int()> &Fn, std::string &OutBytes,
                      std::string &ErrBytes) {
  const std::string OutPath = makeTempFile("stdout");
  const std::string ErrPath = makeTempFile("stderr");
  std::fflush(stdout);
  std::fflush(stderr);
  int SavedOut = ::dup(1);
  int SavedErr = ::dup(2);
  int OutFd = ::open(OutPath.c_str(), O_WRONLY | O_TRUNC);
  int ErrFd = ::open(ErrPath.c_str(), O_WRONLY | O_TRUNC);
  if (OutFd >= 0)
    ::dup2(OutFd, 1);
  if (ErrFd >= 0)
    ::dup2(ErrFd, 2);
  if (OutFd >= 0)
    ::close(OutFd);
  if (ErrFd >= 0)
    ::close(ErrFd);

  int Rc;
  try {
    Rc = Fn();
  } catch (...) {
    // Restore the real descriptors before rethrowing so the caller's
    // error handling prints somewhere visible.
    std::fflush(stdout);
    std::fflush(stderr);
    ::dup2(SavedOut, 1);
    ::dup2(SavedErr, 2);
    ::close(SavedOut);
    ::close(SavedErr);
    OutBytes = slurp(OutPath);
    ErrBytes = slurp(ErrPath);
    ::unlink(OutPath.c_str());
    ::unlink(ErrPath.c_str());
    throw;
  }

  std::fflush(stdout);
  std::fflush(stderr);
  ::dup2(SavedOut, 1);
  ::dup2(SavedErr, 2);
  ::close(SavedOut);
  ::close(SavedErr);
  OutBytes = slurp(OutPath);
  ErrBytes = slurp(ErrPath);
  ::unlink(OutPath.c_str());
  ::unlink(ErrPath.c_str());
  return Rc;
}

SubmitResponse serve::handleSubmit(SubmitRequest Request, ServeCaches *Caches,
                                   const std::string &WorkerExe,
                                   uint64_t RequestIndex,
                                   racedb::RaceDb *Db) {
  SubmitResponse Resp;
  // A fresh CLI process starts with zeroed metrics and an empty phase
  // table; mirroring that per request keeps warm reports structurally
  // identical to cold single-shot runs.
  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::global().counter("serve.requests").inc();

  CliArgs &Args = Request.Args;
  Args.Isolate.WorkerExe = WorkerExe;
  std::string ReportPath;
  // The race database ingests from the run report, so --racedb forces an
  // internal report even when the client did not ask for one; the bytes
  // ship back only on WantReport, keeping the response unchanged.
  if (Request.WantReport || Db) {
    ReportPath = makeTempFile("report");
    Args.ReportPath = ReportPath;
  }

  try {
    fault::ScopedUnit Unit(RequestIndex);
    fault::probe("serve.request");
    Resp.Exit = captureRun(
        [&] {
          return runCommandAndReport(Args, std::move(Request.Source),
                                     Caches ? &Caches->hooks() : nullptr);
        },
        Resp.Stdout, Resp.Stderr);
    Resp.Ok = true;
  } catch (const std::exception &E) {
    // Quarantine: this request is answered with an error, the daemon —
    // and its memo (hooks are withheld while injection is armed) —
    // is untouched for the next client.
    Resp.Ok = false;
    Resp.Exit = 1;
    Resp.ErrorMessage = std::string("request quarantined: ") + E.what();
  }
  if (!ReportPath.empty()) {
    const std::string ReportBytes = Resp.Ok ? slurp(ReportPath) : "";
    ::unlink(ReportPath.c_str());
    if (Request.WantReport)
      Resp.Report = ReportBytes;
    if (Db && Resp.Ok && Resp.Exit == 0 && !ReportBytes.empty()) {
      Result<racedb::RunObservation> Obs =
          racedb::observationFromReportText(ReportBytes);
      if (Obs) {
        racedb::ingest(*Db, {Obs.take()});
      } else {
        NARADA_LOG_WARN("serve: racedb skipped a report: %s",
                        Obs.error().str().c_str());
      }
    }
  }
  return Resp;
}

bool RaceDbFile::save() {
  if (!pending())
    return true;
  if (!racedb::saveRaceDb(Path, Db))
    return false;
  SavedRunId = Db.NextRunId;
  return true;
}

int serve::runServe(int Argc, char **Argv) {
  std::string SocketPath, CachePath, RaceDbPath;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--socket" && I + 1 < Argc) {
      SocketPath = Argv[++I];
    } else if (Arg == "--cache" && I + 1 < Argc) {
      CachePath = Argv[++I];
    } else if (Arg == "--racedb" && I + 1 < Argc) {
      RaceDbPath = Argv[++I];
    } else {
      std::fprintf(stderr, "serve: unknown option '%s'\n", Arg.c_str());
      return 2;
    }
  }
  if (SocketPath.empty()) {
    std::fprintf(stderr, "serve: --socket <path> is required\n");
    return 2;
  }
  sockaddr_un Addr{};
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "serve: socket path too long\n");
    return 2;
  }

  const std::string WorkerExe = pool::currentExecutablePath(Argv[0]);
  // Cache poisoning guard: with injection armed, every request runs cold.
  // A fault that fires mid-pipeline must never leave a half-computed
  // entry behind for later (clean) requests to trust.
  const bool FaultArmed = fault::armed();
  if (FaultArmed)
    NARADA_LOG_WARN("serve: fault injection armed; caches disabled");
  ServeCaches Caches(FaultArmed ? std::string() : CachePath);

  // The race database is a triage record, not a cache: unlike a corrupt
  // cache file (start cold), a corrupt database must stop the daemon —
  // silently dropping triage history would turn every tracked race into
  // an untracked one.  A missing file is a normal fresh start.  Armed
  // fault injection withholds the database just like the caches.
  std::optional<RaceDbFile> Db;
  if (!RaceDbPath.empty() && !FaultArmed) {
    racedb::RaceDb Initial;
    struct stat St;
    if (::stat(RaceDbPath.c_str(), &St) == 0) {
      Result<racedb::RaceDb> Loaded = racedb::loadRaceDb(RaceDbPath);
      if (!Loaded) {
        std::fprintf(stderr, "serve: refusing to start: %s\n",
                     Loaded.error().str().c_str());
        return 1;
      }
      Initial = Loaded.take();
    }
    Db.emplace(RaceDbPath, std::move(Initial));
  } else if (!RaceDbPath.empty()) {
    NARADA_LOG_WARN("serve: fault injection armed; race database disabled");
  }

  int Listen = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listen < 0) {
    std::fprintf(stderr, "serve: socket: %s\n", std::strerror(errno));
    return 1;
  }
  ::unlink(SocketPath.c_str()); // Stale socket from a previous daemon.
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);
  if (::bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Listen, 16) < 0) {
    std::fprintf(stderr, "serve: bind/listen on '%s': %s\n",
                 SocketPath.c_str(), std::strerror(errno));
    ::close(Listen);
    return 1;
  }
  std::fprintf(stderr, "narada-cli serve: listening on %s\n",
               SocketPath.c_str());

  uint64_t RequestIndex = 0;
  bool Shutdown = false;
  while (!Shutdown) {
    int Conn = ::accept(Listen, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "serve: accept: %s\n", std::strerror(errno));
      break;
    }
    std::string Payload;
    if (wire::readFrame(Conn, Payload) != wire::ReadStatus::Ok) {
      ::close(Conn); // Garbled or empty request; nothing to answer.
      continue;
    }
    wire::RecordReader In(Payload);
    const std::string Verb = In.getOr("verb", "");
    wire::RecordWriter Reply;
    if (Verb == "ping") {
      Reply.add("verb", std::string_view("pong"));
    } else if (Verb == "shutdown") {
      Reply.add("verb", std::string_view("bye"));
      Shutdown = true;
    } else if (Verb == "submit") {
      SubmitResponse Resp;
      Result<SubmitRequest> Request = decodeSubmit(In);
      if (!Request) {
        Resp.Exit = 1;
        Resp.ErrorMessage = Request.error().str();
      } else {
        Resp = handleSubmit(Request.take(), FaultArmed ? nullptr : &Caches,
                            WorkerExe, RequestIndex++,
                            Db ? &Db->db() : nullptr);
        // Persist after every request that changed a store or ingested a
        // run (each save() skips its file otherwise, and retries one that
        // failed), so a daemon kill never costs more than the entries of
        // the request in flight.
        if (!FaultArmed)
          Caches.save();
        if (Db)
          Db->save();
      }
      encodeResponse(Reply, Resp);
    } else {
      Reply.add("verb", std::string_view("error"));
      Reply.add("error", "unknown verb '" + Verb + "'");
    }
    wire::writeFrame(Conn, Reply.str());
    ::close(Conn);
  }
  ::close(Listen);
  ::unlink(SocketPath.c_str());
  return 0;
}
