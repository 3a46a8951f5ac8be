//===- support/FaultInjection.cpp - Deterministic fault injection --------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/StringUtils.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace narada;
using namespace narada::fault;

namespace {

struct SiteInfo {
  uint64_t Hits = 0;
  bool Throwable = false; ///< Registered by probe().
  bool Timeout = false;   ///< Registered by timeoutProbe().
  std::optional<uint64_t> MinUnit;
};

struct ArmedSpec {
  std::string Site;
  uint64_t Unit = 0;
  Mode M = Mode::Throw;
};

struct State {
  std::mutex M;
  std::map<std::string, SiteInfo> Sites;
  std::optional<ArmedSpec> Armed;
};

State &state() {
  static State S;
  return S;
}

thread_local std::optional<uint64_t> CurrentUnit;

/// Installs NARADA_FAULT_INJECT exactly once, before the first probe is
/// consulted, so CLI runs can inject without code changes.
void initFromEnvOnce() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    const char *Spec = std::getenv("NARADA_FAULT_INJECT");
    if (!Spec || !*Spec)
      return;
    std::string Why;
    if (!armFromSpec(Spec, &Why))
      std::fprintf(stderr,
                   "warning: ignoring malformed NARADA_FAULT_INJECT='%s': "
                   "%s\n",
                   Spec, Why.c_str());
  });
}

/// Registers a hit of \p Site and reports the armed mode when the armed
/// spec fires for the current unit.  probe() serves every non-Timeout
/// mode (\p TimeoutCategory false); timeoutProbe() serves Mode::Timeout.
std::optional<Mode> registerHit(const char *Site, bool TimeoutCategory,
                                uint64_t *Unit) {
  initFromEnvOnce();
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  SiteInfo &Info = S.Sites[Site];
  ++Info.Hits;
  if (TimeoutCategory)
    Info.Timeout = true;
  else
    Info.Throwable = true;
  if (CurrentUnit &&
      (!Info.MinUnit || *CurrentUnit < *Info.MinUnit))
    Info.MinUnit = *CurrentUnit;
  if (!S.Armed || S.Armed->Site != Site)
    return std::nullopt;
  if ((S.Armed->M == Mode::Timeout) != TimeoutCategory)
    return std::nullopt;
  if (!CurrentUnit || *CurrentUnit != S.Armed->Unit)
    return std::nullopt;
  *Unit = S.Armed->Unit;
  return S.Armed->M;
}

/// Executes an armed hard fault.  Never returns normally: the process
/// aborts, faults, hangs, or a std::bad_alloc propagates.
void executeHardFault(Mode M) {
  switch (M) {
  case Mode::Crash:
    std::abort();
  case Mode::Segv:
    // A sanitizer's SEGV handler would turn the signal into an exit
    // status; the default action kills the worker by signal, as a real
    // segfault does in a production build.
    std::signal(SIGSEGV, SIG_DFL);
    std::raise(SIGSEGV);
    std::abort(); // Backstop, should SIGSEGV ever be blocked.
  case Mode::Hang:
    for (;;)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  case Mode::Oom: {
    struct rlimit Lim;
    bool Limited = ::getrlimit(RLIMIT_AS, &Lim) == 0 &&
                   Lim.rlim_cur != RLIM_INFINITY;
    if (!Limited) {
      // No address-space cap: genuinely dirtying all of RAM would thrash
      // the host, so model the allocation failure instead.
      throw std::bad_alloc();
    }
    std::vector<char *> Chunks;
    for (;;) {
      // Allocate *and touch* so the pages are really charged; the real
      // std::bad_alloc escapes once RLIMIT_AS is exhausted.
      constexpr size_t ChunkBytes = 8u << 20;
      char *Chunk = new char[ChunkBytes];
      std::memset(Chunk, 0xa5, ChunkBytes);
      Chunks.push_back(Chunk);
    }
  }
  case Mode::Throw:
  case Mode::Timeout:
    break; // Not hard modes; unreachable.
  }
}

} // namespace

void fault::arm(std::string Site, uint64_t Unit, Mode M) {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Armed = ArmedSpec{std::move(Site), Unit, M};
}

void fault::disarm() {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Armed.reset();
}

bool fault::armed() {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  return S.Armed.has_value();
}

bool fault::armFromSpec(const std::string &Spec, std::string *Why) {
  auto Fail = [&](const char *Message) {
    if (Why)
      *Why = Message;
    return false;
  };
  size_t FirstColon = Spec.find(':');
  if (FirstColon == std::string::npos || FirstColon == 0)
    return Fail("expected <site>:<unit>[:throw|:timeout]");
  std::string Site = Spec.substr(0, FirstColon);

  size_t SecondColon = Spec.find(':', FirstColon + 1);
  std::string UnitText =
      Spec.substr(FirstColon + 1, SecondColon == std::string::npos
                                      ? std::string::npos
                                      : SecondColon - FirstColon - 1);
  if (UnitText.empty())
    return Fail("missing unit index");
  uint64_t Unit = 0;
  for (char C : UnitText) {
    if (C < '0' || C > '9')
      return Fail("unit index is not a base-10 integer");
    Unit = Unit * 10 + static_cast<uint64_t>(C - '0');
  }

  Mode M = Mode::Throw;
  if (SecondColon != std::string::npos) {
    std::string ModeText = Spec.substr(SecondColon + 1);
    if (ModeText == "throw")
      M = Mode::Throw;
    else if (ModeText == "timeout")
      M = Mode::Timeout;
    else if (ModeText == "crash")
      M = Mode::Crash;
    else if (ModeText == "segv")
      M = Mode::Segv;
    else if (ModeText == "hang")
      M = Mode::Hang;
    else if (ModeText == "oom")
      M = Mode::Oom;
    else
      return Fail("mode must be one of "
                  "throw|timeout|crash|segv|hang|oom");
  }
  arm(std::move(Site), Unit, M);
  return true;
}

fault::ScopedUnit::ScopedUnit(uint64_t Unit) : Previous(CurrentUnit) {
  CurrentUnit = Unit;
}

fault::ScopedUnit::~ScopedUnit() { CurrentUnit = Previous; }

std::optional<uint64_t> fault::currentUnit() { return CurrentUnit; }

void fault::probe(const char *Site) {
  uint64_t Unit = 0;
  std::optional<Mode> Fired =
      registerHit(Site, /*TimeoutCategory=*/false, &Unit);
  if (!Fired)
    return;
  if (*Fired == Mode::Throw)
    throw InjectedFault(formatString(
        "injected fault at probe site '%s' (unit %llu)", Site,
        static_cast<unsigned long long>(Unit)));
  executeHardFault(*Fired);
}

bool fault::timeoutProbe(const char *Site) {
  uint64_t Unit = 0;
  return registerHit(Site, /*TimeoutCategory=*/true, &Unit).has_value();
}

namespace {

std::vector<std::string> sitesWhere(bool SiteInfo::*Member) {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  std::vector<std::string> Out;
  for (const auto &[Site, Info] : S.Sites)
    if (Info.*Member)
      Out.push_back(Site);
  return Out;
}

} // namespace

std::vector<std::string> fault::throwSites() {
  return sitesWhere(&SiteInfo::Throwable);
}

std::vector<std::string> fault::timeoutSites() {
  return sitesWhere(&SiteInfo::Timeout);
}

uint64_t fault::hitCount(const std::string &Site) {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Sites.find(Site);
  return It == S.Sites.end() ? 0 : It->second.Hits;
}

std::optional<uint64_t> fault::minUnitOf(const std::string &Site) {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Sites.find(Site);
  return It == S.Sites.end() ? std::nullopt : It->second.MinUnit;
}

void fault::resetRegistry() {
  State &S = state();
  std::lock_guard<std::mutex> Lock(S.M);
  S.Sites.clear();
}

std::string narada::describeException(std::exception_ptr E) {
  if (!E)
    return "unknown failure (no exception captured)";
  try {
    std::rethrow_exception(E);
  } catch (const std::exception &Ex) {
    return Ex.what();
  } catch (...) {
    return "unknown exception type";
  }
}
