//===- support/ProcessPool.cpp - Crash-isolated worker pool --------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "support/ProcessPool.h"

#include "support/StringUtils.h"
#include "support/Timer.h"
#include "support/Wire.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace narada;
using namespace narada::pool;

const char *pool::crashKindName(CrashKind K) {
  switch (K) {
  case CrashKind::None:
    return "none";
  case CrashKind::Signal:
    return "signal";
  case CrashKind::Timeout:
    return "timeout";
  case CrashKind::Oom:
    return "oom";
  case CrashKind::ProtocolError:
    return "protocol-error";
  case CrashKind::SpawnFailure:
    return "spawn-failure";
  }
  return "unknown";
}

std::string pool::describeCrash(const UnitOutcome &O) {
  std::string Msg = std::string("hard fault: ") + crashKindName(O.Crash) +
                    ": " + O.CrashDetail;
  if (O.PartialOutput)
    Msg += " (partial output lost)";
  if (O.WorkerDeaths > 1) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), " (quarantined after killing %u workers)",
                  O.WorkerDeaths);
    Msg += Buf;
  }
  return Msg;
}

std::string pool::currentExecutablePath(const std::string &Fallback) {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return Fallback;
  Buf[N] = '\0';
  return Buf;
}

namespace {

/// Seconds without a heartbeat before a busy worker is declared wedged and
/// killed.  Generous: heartbeats flow from a monitor thread even while the
/// unit computes, so silence means the process is gone or stuck in the
/// kernel.
constexpr double HeartbeatTimeoutSeconds = 10.0;
/// Worker deaths tolerated per slot before the slot is retired.
constexpr unsigned MaxRespawnsPerWorker = 3;
/// Worker deaths a single unit may cause before it is poisoned
/// (quarantined instead of re-dispatched).
constexpr unsigned PoisonThreshold = 2;

/// Deterministic names for the signals crash classification cares about;
/// strsignal() is locale-dependent, and quarantine reasons are asserted on.
const char *signalName(int Sig) {
  switch (Sig) {
  case SIGSEGV:
    return "SIGSEGV";
  case SIGABRT:
    return "SIGABRT";
  case SIGBUS:
    return "SIGBUS";
  case SIGILL:
    return "SIGILL";
  case SIGFPE:
    return "SIGFPE";
  case SIGKILL:
    return "SIGKILL";
  case SIGXCPU:
    return "SIGXCPU";
  case SIGTERM:
    return "SIGTERM";
  default:
    return nullptr;
  }
}

std::string describeSignal(int Sig) {
  const char *Name = signalName(Sig);
  if (Name)
    return formatString("signal %d (%s)", Sig, Name);
  return formatString("signal %d", Sig);
}

/// Writes to dead pipes must return EPIPE, not raise SIGPIPE: the
/// supervisor treats them as worker deaths.  Installed once per process.
void ignoreSigpipeOnce() {
  static bool Done = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)Done;
}

void closeFd(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

} // namespace

struct ProcessPool::Impl {
  IsolateOptions Isolate;
  std::string SetupPayload; ///< Sent as each fresh worker's `setup` frame.
  PoolStats *Stats = nullptr;
  Timer Clock; ///< The single monotonic time source for every watchdog.

  struct Slot {
    enum class State {
      Dead,       ///< No process; may be respawned (backoff permitting).
      AwaitReady, ///< Spawned, setup sent, ready frame pending.
      Idle,       ///< Ready and unassigned.
      Busy,       ///< A unit frame is in flight.
      Retired,    ///< Respawn budget exhausted; never spawned again.
    };
    State St = State::Dead;
    pid_t Pid = -1;
    int InFd = -1;  ///< Supervisor -> worker requests.
    int OutFd = -1; ///< Worker -> supervisor responses (non-blocking).
    wire::FrameBuffer Frames;
    size_t Unit = 0;          ///< In-flight unit index (Busy only).
    double DeadlineAt = 0.0;  ///< Clock seconds; 0 = no deadline.
    double LastBeatAt = 0.0;  ///< Last heartbeat (or spawn) time.
    unsigned Respawns = 0;    ///< Deaths so far (first spawn is free).
    double SpawnAllowedAt = 0.0; ///< Backoff gate for the next respawn.
  };
  std::vector<Slot> Slots;

  // Per-run state (run() is not reentrant).
  std::deque<size_t> Pending;
  std::vector<UnitOutcome> *Outcomes = nullptr;
  const std::vector<std::string> *Units = nullptr;
  std::vector<unsigned> Deaths;
  std::vector<double> FirstDispatchAt;
  size_t Remaining = 0;

  Impl(const IsolateOptions &Isolate, unsigned Workers,
       std::string SetupPayload)
      : Isolate(Isolate), SetupPayload(std::move(SetupPayload)) {
    ignoreSigpipeOnce();
    Slots.resize(Workers ? Workers : 1);
  }

  double now() { return Clock.seconds(); }

  double backoffMs(unsigned Respawns) const {
    double Ms = RespawnBackoffBaseMs;
    for (unsigned I = 1; I < Respawns; ++I)
      Ms *= 2.0;
    return Ms > RespawnBackoffCapMs ? RespawnBackoffCapMs : Ms;
  }

  /// fork/execs one worker into \p S: request/response pipes, child-side
  /// rlimits, setup frame.  Returns false when the slot could not start.
  bool spawn(Slot &S) {
    int ToChild[2] = {-1, -1};   // [0] child reads, [1] parent writes.
    int FromChild[2] = {-1, -1}; // [0] parent reads, [1] child writes.
    if (::pipe(ToChild) != 0)
      return false;
    if (::pipe(FromChild) != 0) {
      ::close(ToChild[0]);
      ::close(ToChild[1]);
      return false;
    }

    char *Argv[] = {const_cast<char *>(Isolate.WorkerExe.c_str()),
                    const_cast<char *>("worker"), nullptr};

    pid_t Pid = ::fork();
    if (Pid < 0) {
      ::close(ToChild[0]);
      ::close(ToChild[1]);
      ::close(FromChild[0]);
      ::close(FromChild[1]);
      return false;
    }
    if (Pid == 0) {
      // Child: wire the pipes to stdio, apply resource limits, exec.
      ::dup2(ToChild[0], STDIN_FILENO);
      ::dup2(FromChild[1], STDOUT_FILENO);
      ::close(ToChild[0]);
      ::close(ToChild[1]);
      ::close(FromChild[0]);
      ::close(FromChild[1]);
      if (Isolate.WorkerCpuLimitSeconds > 0) {
        // Soft limit raises SIGXCPU (classified as a cpu timeout); the
        // hard limit one second later is the SIGKILL backstop.
        struct rlimit CpuLimit;
        CpuLimit.rlim_cur = Isolate.WorkerCpuLimitSeconds;
        CpuLimit.rlim_max = Isolate.WorkerCpuLimitSeconds + 1;
        ::setrlimit(RLIMIT_CPU, &CpuLimit);
      }
      if (Isolate.WorkerMemLimitMb > 0) {
        // RLIMIT_AS makes allocation fail with std::bad_alloc inside the
        // worker, which reports a graceful `crash kind=oom` frame — the
        // classification that distinguishes OOM from a segv.
        struct rlimit MemLimit;
        MemLimit.rlim_cur = Isolate.WorkerMemLimitMb << 20;
        MemLimit.rlim_max = Isolate.WorkerMemLimitMb << 20;
        ::setrlimit(RLIMIT_AS, &MemLimit);
      }
      ::execv(Argv[0], Argv);
      _exit(127);
    }

    // Parent.
    ::close(ToChild[0]);
    ::close(FromChild[1]);
    int Flags = ::fcntl(FromChild[0], F_GETFL, 0);
    ::fcntl(FromChild[0], F_SETFL, Flags | O_NONBLOCK);

    S.Pid = Pid;
    S.InFd = ToChild[1];
    S.OutFd = FromChild[0];
    S.Frames = wire::FrameBuffer();
    S.LastBeatAt = now();
    S.DeadlineAt = Isolate.UnitDeadlineSeconds > 0
                       ? now() + Isolate.UnitDeadlineSeconds
                       : 0.0;
    S.St = Slot::State::AwaitReady;
    ++Stats->WorkersSpawned;
    if (S.Respawns > 0)
      ++Stats->WorkersRespawned;

    if (!wire::writeFrame(S.InFd, SetupPayload)) {
      // Died before reading setup; the poll loop will reap and classify.
      return true;
    }
    return true;
  }

  void reap(Slot &S, int &Status) {
    Status = 0;
    if (S.Pid > 0)
      ::waitpid(S.Pid, &Status, 0);
    S.Pid = -1;
    closeFd(S.InFd);
    closeFd(S.OutFd);
  }

  void kill(Slot &S) {
    if (S.Pid > 0)
      ::kill(S.Pid, SIGKILL);
  }

  /// Classifies a worker's spontaneous death from its wait status.
  void classifyExit(int Status, UnitOutcome &Out) {
    if (WIFSIGNALED(Status)) {
      int Sig = WTERMSIG(Status);
      if (Sig == SIGXCPU ||
          (Sig == SIGKILL && Isolate.WorkerCpuLimitSeconds > 0)) {
        Out.Crash = CrashKind::Timeout;
        Out.RlimitCpuHit = true;
        Out.CrashDetail = formatString(
            "cpu rlimit (%llus) exhausted, worker killed by %s",
            static_cast<unsigned long long>(Isolate.WorkerCpuLimitSeconds),
            describeSignal(Sig).c_str());
        return;
      }
      Out.Crash = CrashKind::Signal;
      Out.TermSignal = Sig;
      Out.CrashDetail = formatString("worker killed by %s",
                                     describeSignal(Sig).c_str());
      if (Sig == SIGKILL)
        Out.CrashDetail += " (possible kernel OOM kill)";
      return;
    }
    int Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
    Out.Crash = CrashKind::ProtocolError;
    Out.CrashDetail = formatString(
        "worker exited with status %d without answering its unit", Code);
  }

  /// Handles a dead worker: classify, charge the in-flight unit (poison
  /// rule), schedule the respawn backoff.  \p Watchdog carries a
  /// pre-classified outcome for deaths the supervisor initiated (deadline
  /// or heartbeat kill); null means classify from the wait status.
  void handleDeath(Slot &S, const UnitOutcome *Watchdog) {
    bool WasBusy = S.St == Slot::State::Busy;
    size_t Unit = S.Unit;
    bool Partial = S.Frames.midFrame();

    int Status = 0;
    reap(S, Status);

    UnitOutcome Death;
    if (Watchdog)
      Death = *Watchdog;
    else
      classifyExit(Status, Death);

    if (Death.Crash == CrashKind::Timeout)
      ++Stats->WorkersTimedOut;
    else
      ++Stats->WorkersCrashed;

    if (WasBusy) {
      Death.PartialOutput = Partial;
      ++Deaths[Unit];
      Death.WorkerDeaths = Deaths[Unit];
      if (Deaths[Unit] >= PoisonThreshold) {
        // Poison-task rule: this unit has now killed enough workers; it
        // is quarantined with the latest classification, never retried.
        finish(Unit, std::move(Death));
        ++Stats->UnitsPoisoned;
      } else {
        Pending.push_front(Unit);
        ++Stats->UnitsRedispatched;
      }
    }

    ++S.Respawns;
    if (S.Respawns > MaxRespawnsPerWorker) {
      S.St = Slot::State::Retired;
      return;
    }
    S.St = Slot::State::Dead;
    double Ms = backoffMs(S.Respawns);
    S.SpawnAllowedAt = now() + Ms / 1000.0;
    ++Stats->BackoffWaits;
    Stats->BackoffMsTotal += Ms;
  }

  void finish(size_t Unit, UnitOutcome Out) {
    Out.Micros = static_cast<uint64_t>(
        (now() - FirstDispatchAt[Unit]) * 1e6);
    (*Outcomes)[Unit] = std::move(Out);
    --Remaining;
  }

  void sendUnit(Slot &S, size_t Unit) {
    S.Unit = Unit;
    S.St = Slot::State::Busy;
    S.DeadlineAt = Isolate.UnitDeadlineSeconds > 0
                       ? now() + Isolate.UnitDeadlineSeconds
                       : 0.0;
    ++Stats->UnitsDispatched;
    if (FirstDispatchAt[Unit] == 0.0)
      FirstDispatchAt[Unit] = now();
    if (!wire::writeFrame(S.InFd, (*Units)[Unit])) {
      UnitOutcome Death;
      Death.Crash = CrashKind::ProtocolError;
      Death.CrashDetail = "worker pipe closed before the unit was sent";
      handleDeath(S, &Death);
    }
  }

  /// Processes one decoded frame from \p S.  Returns false on a protocol
  /// violation (caller kills the worker).
  bool handleFrame(Slot &S, const std::string &Payload) {
    wire::RecordReader Record(Payload);
    std::string Verb = Record.getOr("verb", "");
    if (Verb == "hb") {
      S.LastBeatAt = now();
      return true;
    }
    if (Verb == "ready") {
      if (S.St != Slot::State::AwaitReady)
        return false;
      S.St = Slot::State::Idle;
      S.DeadlineAt = 0.0;
      return true;
    }
    if (Verb == "result") {
      if (S.St != Slot::State::Busy)
        return false;
      UnitOutcome Out;
      Out.Ok = true;
      Out.Payload = Payload;
      finish(S.Unit, std::move(Out));
      S.St = Slot::State::Idle;
      S.DeadlineAt = 0.0;
      return true;
    }
    if (Verb == "crash") {
      // A graceful crash report: the worker survived (e.g. it caught
      // std::bad_alloc under RLIMIT_AS) but the unit is gone.  No retry:
      // per-unit outcomes are deterministic, rerunning would OOM again.
      if (S.St != Slot::State::Busy)
        return false;
      UnitOutcome Out;
      std::string Kind = Record.getOr("kind", "oom");
      Out.Crash = Kind == "oom" ? CrashKind::Oom : CrashKind::ProtocolError;
      Out.CrashDetail = Record.getOr("detail", "worker-reported crash");
      Out.WorkerDeaths = Deaths[S.Unit];
      finish(S.Unit, std::move(Out));
      S.St = Slot::State::Idle;
      S.DeadlineAt = 0.0;
      return true;
    }
    return false;
  }

  /// Drains readable bytes from \p S and dispatches complete frames.
  void drainWorker(Slot &S) {
    char Buf[16384];
    for (;;) {
      ssize_t Got = ::read(S.OutFd, Buf, sizeof(Buf));
      if (Got < 0) {
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          break;
        Got = 0; // Read error: treat as death.
      }
      if (Got == 0) {
        handleDeath(S, nullptr);
        return;
      }
      if (!S.Frames.feed(Buf, static_cast<size_t>(Got))) {
        UnitOutcome Death;
        Death.Crash = CrashKind::ProtocolError;
        Death.CrashDetail = "oversized frame from worker";
        kill(S);
        handleDeath(S, &Death);
        return;
      }
      while (std::optional<std::string> Frame = S.Frames.next()) {
        if (!handleFrame(S, *Frame)) {
          UnitOutcome Death;
          Death.Crash = CrashKind::ProtocolError;
          Death.CrashDetail = "unexpected frame from worker";
          kill(S);
          handleDeath(S, &Death);
          return;
        }
      }
      if (!S.Frames.ok()) {
        UnitOutcome Death;
        Death.Crash = CrashKind::ProtocolError;
        Death.CrashDetail = "oversized frame from worker";
        kill(S);
        handleDeath(S, &Death);
        return;
      }
    }
  }

  /// Kills workers whose unit deadline or heartbeat watchdog expired.
  void enforceWatchdogs() {
    double Now = now();
    for (Slot &S : Slots) {
      bool Live =
          S.St == Slot::State::Busy || S.St == Slot::State::AwaitReady;
      if (!Live)
        continue;
      if (S.DeadlineAt > 0.0 && Now > S.DeadlineAt) {
        UnitOutcome Death;
        Death.Crash = CrashKind::Timeout;
        Death.CrashDetail = formatString(
            "unit exceeded its %.1fs wall deadline, worker killed",
            Isolate.UnitDeadlineSeconds);
        kill(S);
        handleDeath(S, &Death);
        continue;
      }
      if (Now - S.LastBeatAt > HeartbeatTimeoutSeconds) {
        UnitOutcome Death;
        Death.Crash = CrashKind::Timeout;
        Death.CrashDetail = formatString(
            "no heartbeat for %.1fs, worker presumed wedged and killed",
            HeartbeatTimeoutSeconds);
        kill(S);
        handleDeath(S, &Death);
      }
    }
  }

  /// Spawns Dead slots whose backoff has elapsed; hands pending units to
  /// idle workers.
  void scheduleWork() {
    double Now = now();
    for (Slot &S : Slots) {
      if (S.St == Slot::State::Dead && Now >= S.SpawnAllowedAt &&
          !Pending.empty()) {
        if (!spawn(S)) {
          ++S.Respawns;
          if (S.Respawns > MaxRespawnsPerWorker)
            S.St = Slot::State::Retired;
          else
            S.SpawnAllowedAt = Now + backoffMs(S.Respawns) / 1000.0;
        }
      }
    }
    for (Slot &S : Slots) {
      if (Pending.empty())
        break;
      if (S.St != Slot::State::Idle)
        continue;
      size_t Unit = Pending.front();
      Pending.pop_front();
      sendUnit(S, Unit);
    }
  }

  /// True while some slot can still make progress on pending work.
  bool anyHope() const {
    for (const Slot &S : Slots)
      if (S.St != Slot::State::Retired)
        return true;
    return false;
  }

  /// The poll timeout until the next interesting instant (deadline,
  /// heartbeat check, backoff expiry), clamped to [1, 100] ms.
  int pollTimeoutMs() {
    double Now = now();
    double Next = Now + 0.1;
    for (const Slot &S : Slots) {
      if ((S.St == Slot::State::Busy || S.St == Slot::State::AwaitReady) &&
          S.DeadlineAt > 0.0 && S.DeadlineAt < Next)
        Next = S.DeadlineAt;
      if (S.St == Slot::State::Dead && S.SpawnAllowedAt > Now &&
          S.SpawnAllowedAt < Next)
        Next = S.SpawnAllowedAt;
    }
    double Ms = (Next - Now) * 1000.0;
    if (Ms < 1.0)
      return 1;
    if (Ms > 100.0)
      return 100;
    return static_cast<int>(Ms);
  }

  std::vector<UnitOutcome> run(const std::vector<std::string> &Requests) {
    std::vector<UnitOutcome> Result(Requests.size());
    if (Requests.empty())
      return Result;

    Units = &Requests;
    Outcomes = &Result;
    Deaths.assign(Requests.size(), 0);
    FirstDispatchAt.assign(Requests.size(), 0.0);
    Pending.clear();
    for (size_t I = 0; I < Requests.size(); ++I)
      Pending.push_back(I);
    Remaining = Requests.size();

    while (Remaining > 0) {
      scheduleWork();

      bool AnyLive = false;
      for (const Slot &S : Slots)
        AnyLive |= S.St == Slot::State::Busy ||
                   S.St == Slot::State::AwaitReady ||
                   S.St == Slot::State::Idle;
      if (!AnyLive) {
        if (!anyHope() || Pending.empty()) {
          // Every slot retired (or nothing left to hand out): whatever is
          // still pending can never run.
          while (!Pending.empty()) {
            size_t Unit = Pending.front();
            Pending.pop_front();
            UnitOutcome Out;
            Out.Crash = CrashKind::SpawnFailure;
            Out.CrashDetail =
                "no worker could be spawned (respawn budget exhausted)";
            Out.WorkerDeaths = Deaths[Unit];
            if (FirstDispatchAt[Unit] == 0.0)
              FirstDispatchAt[Unit] = now();
            finish(Unit, std::move(Out));
          }
          break;
        }
        // All slots waiting out their backoff: sleep to the earliest gate.
        ::poll(nullptr, 0, pollTimeoutMs());
        continue;
      }

      std::vector<struct pollfd> Fds;
      std::vector<size_t> FdSlot;
      for (size_t I = 0; I < Slots.size(); ++I) {
        Slot &S = Slots[I];
        if (S.OutFd >= 0 && (S.St == Slot::State::Busy ||
                             S.St == Slot::State::AwaitReady ||
                             S.St == Slot::State::Idle)) {
          Fds.push_back({S.OutFd, POLLIN, 0});
          FdSlot.push_back(I);
        }
      }
      int Ready = ::poll(Fds.data(), Fds.size(), pollTimeoutMs());
      if (Ready > 0) {
        for (size_t K = 0; K < Fds.size(); ++K) {
          if (Fds[K].revents & (POLLIN | POLLHUP | POLLERR))
            drainWorker(Slots[FdSlot[K]]);
        }
      }
      enforceWatchdogs();
    }

    Units = nullptr;
    Outcomes = nullptr;
    return Result;
  }

  void shutdown() {
    wire::RecordWriter Bye;
    Bye.add("verb", std::string_view("shutdown"));
    std::string Frame = Bye.str();
    for (Slot &S : Slots) {
      if (S.InFd >= 0) {
        (void)wire::writeFrame(S.InFd, Frame);
        closeFd(S.InFd);
      }
    }
    // Grace period, then force: a worker ignoring shutdown is wedged.
    double Deadline = now() + 2.0;
    for (Slot &S : Slots) {
      if (S.Pid <= 0)
        continue;
      for (;;) {
        int Status = 0;
        pid_t Got = ::waitpid(S.Pid, &Status, WNOHANG);
        if (Got == S.Pid || Got < 0) {
          S.Pid = -1;
          break;
        }
        if (now() > Deadline) {
          ::kill(S.Pid, SIGKILL);
          ::waitpid(S.Pid, &Status, 0);
          S.Pid = -1;
          break;
        }
        ::poll(nullptr, 0, 10);
      }
      closeFd(S.OutFd);
    }
  }
};

ProcessPool::ProcessPool(const IsolateOptions &Isolate, unsigned Workers,
                         std::string SetupPayload)
    : P(std::make_unique<Impl>(Isolate, Workers, std::move(SetupPayload))) {
  P->Stats = &Stats;
}

ProcessPool::~ProcessPool() { P->shutdown(); }

std::vector<UnitOutcome>
ProcessPool::run(const std::vector<std::string> &Units) {
  return P->run(Units);
}
