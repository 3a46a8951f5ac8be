//===- bench/daemon_load.cpp - Multi-client daemon load driver -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// Measures what `narada-cli serve` exists for (docs/SERVING.md): the
// latency gap between a cold request — full pipeline, empty memo —
// and a warm one answered from the daemon's detection-stage memo.
// The driver spawns a real daemon on a Unix-domain socket, primes it with
// one cold detect submit per class, measures warm/edited latency with
// sequential resubmits (the daemon serves requests one at a time, so only
// an unqueued request's round trip is its service time), then fans N
// client threads over a mixed stream for throughput:
//
//   unchanged  the exact cold bundle again (full warm: detection-stage
//              memo hit, the request barely computes);
//   edited     the same module with one method body changed per round (a
//              distinct final source, so the memo misses and the whole
//              request runs cold).
//
// Reported per class: cold latency, warm (unchanged) latency, the
// cold/warm speedup, edited latency, and the warm request throughput.
// The driver fails (exit 1) when a warm request's run report shows zero
// serve.cache.detect hits — speed without the memo proving it answered is
// a measurement of nothing.
//
// Knobs: --clients N (default 4), --rounds N (requests per category per
// class, default 3), --classes C5,C9, --report <file.json>.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "serve/Engine.h"
#include "serve/Protocol.h"
#include "support/Wire.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace narada;
using namespace narada::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// One connected round trip against the daemon socket; aborts the bench on
/// transport failure (a dead daemon invalidates every number).
std::string roundTrip(const std::string &SocketPath,
                      const std::string &Request) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    std::fprintf(stderr, "daemon_load: cannot reach daemon at '%s': %s\n",
                 SocketPath.c_str(), std::strerror(errno));
    std::exit(1);
  }
  std::string Payload;
  if (!wire::writeFrame(Fd, Request) ||
      wire::readFrame(Fd, Payload) != wire::ReadStatus::Ok) {
    std::fprintf(stderr, "daemon_load: daemon dropped a request\n");
    std::exit(1);
  }
  ::close(Fd);
  return Payload;
}

/// Submits one bundle and returns the measured round-trip seconds.
double submit(const std::string &SocketPath, const serve::CliArgs &Args,
              const std::string &Source, std::string *ReportOut = nullptr) {
  wire::RecordWriter W;
  serve::encodeSubmit(W, Args, Source);
  auto Start = std::chrono::steady_clock::now();
  std::string Payload = roundTrip(SocketPath, W.str());
  double Seconds = secondsSince(Start);
  wire::RecordReader In(Payload);
  serve::SubmitResponse Resp = serve::decodeResponse(In);
  if (In.getOr("verb", "") != "result" || !Resp.Ok || Resp.Exit != 0) {
    std::fprintf(stderr, "daemon_load: submit failed: %s\n",
                 Resp.ErrorMessage.empty() ? "daemon error"
                                           : Resp.ErrorMessage.c_str());
    std::exit(1);
  }
  if (ReportOut)
    *ReportOut = Resp.Report;
  return Seconds;
}

serve::CliArgs detectArgs(const CorpusEntry &Entry, bool WantReport) {
  serve::CliArgs Args;
  Args.Command = "detect";
  Args.Input = "corpus:" + Entry.Id;
  Args.Names = Entry.SeedNames;
  Args.FocusClass = Entry.ClassName;
  Args.StaticRank = true; // Every request also summarizes the module.
  if (WantReport)
    Args.ReportPath = "daemon_load"; // Presence = want_report bit.
  return Args;
}

/// The per-round edited variant: one statement inserted into the first
/// method body, so every round has a distinct source digest while the
/// rest of the module's dependence cones stay warm.
std::string editedSource(const CorpusEntry &Entry, unsigned Round) {
  const std::string Anchor = "synchronized {";
  size_t At = Entry.Source.find(Anchor);
  if (At == std::string::npos) {
    std::fprintf(stderr, "daemon_load: %s has no synchronized method to edit\n",
                 Entry.Id.c_str());
    std::exit(1);
  }
  std::string Out = Entry.Source;
  Out.insert(At + Anchor.size(),
             " var benchPad: int = " + std::to_string(Round) + ";");
  return Out;
}

/// Pulls "name":value out of a run report (counters render compactly).
uint64_t reportCounter(const std::string &Report, const std::string &Name) {
  const std::string Key = "\"" + Name + "\":";
  size_t At = Report.find(Key);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Report.c_str() + At + Key.size(), nullptr, 10);
}

struct PhaseStats {
  double TotalSeconds = 0.0;
  unsigned Requests = 0;
  void add(double Seconds) {
    TotalSeconds += Seconds;
    ++Requests;
  }
  double avgMs() const {
    return Requests ? TotalSeconds * 1000.0 / Requests : 0.0;
  }
};

std::string fmtMs(double Ms) { return formatString("%.1f", Ms); }

} // namespace

int main(int Argc, char **Argv) {
  BenchReporter Reporter("daemon_load", Argc, Argv);
  // C5 (a multi-second cold detect) shows the cold/warm gap; C9 (a fast
  // one) shows the per-request floor.  Edited variants re-run detection in
  // full, so slow classes multiply the driver's runtime by Rounds.
  unsigned Clients = 4, Rounds = 3;
  std::string ClassList = "C5,C9";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--clients" && I + 1 < Argc)
      Clients = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (Arg == "--rounds" && I + 1 < Argc)
      Rounds = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (Arg == "--classes" && I + 1 < Argc)
      ClassList = Argv[++I];
  }
  std::vector<const CorpusEntry *> Entries;
  for (const std::string &Id : split(ClassList, ',')) {
    const CorpusEntry *Entry = findCorpusEntry(Id);
    if (!Entry) {
      std::fprintf(stderr, "daemon_load: unknown corpus class '%s'\n",
                   Id.c_str());
      return 2;
    }
    Entries.push_back(Entry);
  }

  const std::string Dir = "/tmp/narada_daemon_load." +
                          std::to_string(static_cast<unsigned>(::getpid()));
  const std::string SocketPath = Dir + ".sock";
  const std::string CachePath = Dir + ".cache";
  ::unlink(SocketPath.c_str());
  ::unlink(CachePath.c_str());

  pid_t Daemon = ::fork();
  if (Daemon < 0) {
    std::perror("daemon_load: fork");
    return 1;
  }
  if (Daemon == 0) {
    ::execl(NARADA_CLI_PATH, NARADA_CLI_PATH, "serve", "--socket",
            SocketPath.c_str(), "--cache", CachePath.c_str(),
            static_cast<char *>(nullptr));
    std::perror("daemon_load: exec narada-cli serve");
    ::_exit(127);
  }
  // Readiness: the daemon answers a ping once its socket is listening.
  {
    wire::RecordWriter Ping;
    Ping.add("verb", std::string_view("ping"));
    bool Up = false;
    for (int Try = 0; Try < 200 && !Up; ++Try) {
      int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::strncpy(Addr.sun_path, SocketPath.c_str(),
                   sizeof(Addr.sun_path) - 1);
      if (Fd >= 0 &&
          ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
              0 &&
          wire::writeFrame(Fd, Ping.str())) {
        std::string Pong;
        Up = wire::readFrame(Fd, Pong) == wire::ReadStatus::Ok;
      }
      if (Fd >= 0)
        ::close(Fd);
      if (!Up)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!Up) {
      std::fprintf(stderr, "daemon_load: daemon never came up\n");
      ::kill(Daemon, SIGKILL);
      return 1;
    }
  }

  // Cold phase: the first submit of each class fills the memo.
  std::vector<PhaseStats> Cold(Entries.size());
  for (size_t I = 0; I < Entries.size(); ++I)
    Cold[I].add(submit(SocketPath, detectArgs(*Entries[I], false),
                       Entries[I]->Source));

  // Warm and edited latency are measured sequentially — the daemon serves
  // one request at a time, so a request timed under concurrent load would
  // include queue wait behind whatever else is in flight, not its own
  // service time.  The concurrent mixed phase below measures throughput.
  std::vector<PhaseStats> Unchanged(Entries.size()), Edited(Entries.size());
  for (unsigned Round = 0; Round < Rounds; ++Round)
    for (size_t I = 0; I < Entries.size(); ++I)
      Unchanged[I].add(submit(SocketPath, detectArgs(*Entries[I], false),
                              Entries[I]->Source));

  // A warm resubmit with a report, while the memo is hot: it must visibly
  // answer, or the latency gap proves nothing.
  std::string Report;
  submit(SocketPath, detectArgs(*Entries.front(), true),
         Entries.front()->Source, &Report);
  const uint64_t DetectHits = reportCounter(Report, "serve.cache.detect.hits");

  for (unsigned Round = 0; Round < Rounds; ++Round)
    for (size_t I = 0; I < Entries.size(); ++I)
      Edited[I].add(submit(SocketPath, detectArgs(*Entries[I], false),
                           editedSource(*Entries[I], Round)));

  // Mixed concurrent phase: Clients submitter threads drain a stream of
  // unchanged resubmits and fresh edited variants (distinct digests, so
  // they run cold-ish under load) for the daemon's request throughput.
  struct WorkItem {
    size_t EntryIndex;
    bool Edited;
    unsigned Round;
  };
  std::vector<WorkItem> Work;
  for (unsigned Round = 0; Round < Rounds; ++Round)
    for (size_t I = 0; I < Entries.size(); ++I) {
      Work.push_back({I, false, Round});
      Work.push_back({I, true, 1000 + Round});
    }
  std::atomic<size_t> Next{0};
  auto MixedStart = std::chrono::steady_clock::now();
  std::vector<std::thread> Pool;
  for (unsigned C = 0; C < Clients; ++C)
    Pool.emplace_back([&] {
      for (;;) {
        size_t I = Next.fetch_add(1);
        if (I >= Work.size())
          return;
        const WorkItem &Item = Work[I];
        const CorpusEntry &Entry = *Entries[Item.EntryIndex];
        submit(SocketPath, detectArgs(Entry, false),
               Item.Edited ? editedSource(Entry, Item.Round) : Entry.Source);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  double MixedWall = secondsSince(MixedStart);

  {
    wire::RecordWriter Bye;
    Bye.add("verb", std::string_view("shutdown"));
    roundTrip(SocketPath, Bye.str());
  }
  int Status = 0;
  ::waitpid(Daemon, &Status, 0);
  ::unlink(SocketPath.c_str());
  ::unlink(CachePath.c_str());

  std::printf("Daemon load: %u clients, %zu mixed requests in %.2fs "
              "(%.1f req/s)\n\n",
              Clients, Work.size(), MixedWall, Work.size() / MixedWall);
  const std::vector<int> Widths = {-6, 10, 12, 10, 12};
  printRow({"Class", "cold ms", "warm ms", "speedup", "edited ms"}, Widths);
  printRule(Widths);
  for (size_t I = 0; I < Entries.size(); ++I) {
    double Speedup = Unchanged[I].avgMs() > 0.0
                         ? Cold[I].avgMs() / Unchanged[I].avgMs()
                         : 0.0;
    printRow({Entries[I]->Id, fmtMs(Cold[I].avgMs()),
              fmtMs(Unchanged[I].avgMs()), formatString("%.1fx", Speedup),
              fmtMs(Edited[I].avgMs())},
             Widths);
  }
  std::printf("\nWarm report cache hits: detect=%llu\n",
              static_cast<unsigned long long>(DetectHits));

  // The pinned (deterministic) part of the trajectory: request counts and
  // the did-the-memo-answer bit.  Latencies stay advisory prose above.
  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  Registry.counter("daemon_load.classes").inc(Entries.size());
  Registry.counter("daemon_load.cold_requests").inc(Entries.size());
  Registry.counter("daemon_load.warm_requests").inc(Work.size());
  Registry.counter("daemon_load.warm_cache_hits_nonzero")
      .inc(DetectHits > 0 ? 1 : 0);
  Reporter.Meta.addOption("clients", std::to_string(Clients));
  Reporter.Meta.addOption("rounds", std::to_string(Rounds));

  if (DetectHits == 0) {
    std::fprintf(stderr, "daemon_load: FAIL: warm request reported zero "
                         "serve.cache.detect hits\n");
    return 1;
  }
  return 0;
}
