//===- staticrace/LocksetAnalysis.cpp - Must-lockset abstract interp -----------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "staticrace/LocksetAnalysis.h"

#include "ir/IR.h"
#include "lang/Sema.h"
#include "obs/Metrics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <set>

using namespace narada;
using namespace narada::staticrace;

namespace {

/// Marker in MethodSummary::StoredFields meaning "anything may have been
/// stored" (the method spawns a thread or calls something opaque).
const char *const SmashAll = "*";

/// Monitor re-entrancy counts saturate here (a lower bound stays sound).
constexpr unsigned MaxLockCount = 4;
/// Rounds of call-digest composition; recursion deeper than this marks the
/// affected summaries Incomplete.
constexpr unsigned MaxInlineRounds = 8;
/// Cap on accesses per method summary; overflow marks it Incomplete.
constexpr unsigned MaxAccessesPerMethod = 512;

/// Abstract value of one register.  Path means: the register holds the
/// object that sat at this entry-rooted path in the heap *as of method
/// entry* — the same snapshot semantics the dynamic analysis uses, so a
/// later store never invalidates a value already loaded, only future
/// loads (checked against the smashed-field set).
struct AbsValue {
  enum class Kind { Bottom, Path, Fresh, Unknown };
  Kind K = Kind::Bottom;
  AccessPath P; ///< Valid iff K == Path.

  static AbsValue bottom() { return {}; }
  static AbsValue fresh() { return {Kind::Fresh, {}}; }
  static AbsValue unknown() { return {Kind::Unknown, {}}; }
  static AbsValue path(AccessPath P) { return {Kind::Path, std::move(P)}; }

  bool operator==(const AbsValue &O) const {
    return K == O.K && (K != Kind::Path || P == O.P);
  }
  bool operator!=(const AbsValue &O) const { return !(*this == O); }
};

AbsValue joinValue(const AbsValue &A, const AbsValue &B) {
  if (A.K == AbsValue::Kind::Bottom)
    return B;
  if (B.K == AbsValue::Kind::Bottom)
    return A;
  if (A == B)
    return A;
  return AbsValue::unknown();
}

/// Must-held monitors: entry-rooted paths with re-entrancy counts, plus a
/// count of monitors whose identity was lost.  Monitors on freshly
/// allocated objects are deliberately *not* tracked: a per-invocation
/// fresh monitor can never coincide with another invocation's monitor, so
/// it can neither prove MustGuarded nor block MayRace.
struct LockState {
  std::map<AccessPath, unsigned> Held;
  unsigned UnknownHeld = 0;

  bool operator==(const LockState &O) const {
    return UnknownHeld == O.UnknownHeld && Held == O.Held;
  }
};

LockState joinLocks(const LockState &A, const LockState &B) {
  LockState Out;
  for (const auto &[Path, Count] : A.Held) {
    auto It = B.Held.find(Path);
    if (It == B.Held.end())
      continue;
    Out.Held[Path] = std::min(Count, It->second);
  }
  Out.UnknownHeld = std::min(A.UnknownHeld, B.UnknownHeld);
  return Out;
}

/// Flow state before one instruction.
struct AbsState {
  bool Reachable = false;
  std::vector<AbsValue> Regs;
  LockState Locks;
  /// Fields stored to on some path up to this point (SmashAll = all).
  /// Loads of a smashed field no longer denote entry-heap paths.
  std::set<std::string> Smashed;

  bool operator==(const AbsState &O) const {
    return Reachable == O.Reachable && Regs == O.Regs && Locks == O.Locks &&
           Smashed == O.Smashed;
  }
};

AbsState joinState(const AbsState &A, const AbsState &B) {
  if (!A.Reachable)
    return B;
  if (!B.Reachable)
    return A;
  AbsState Out;
  Out.Reachable = true;
  Out.Regs.resize(A.Regs.size());
  for (size_t I = 0; I < A.Regs.size(); ++I)
    Out.Regs[I] = joinValue(A.Regs[I], B.Regs[I]);
  Out.Locks = joinLocks(A.Locks, B.Locks);
  Out.Smashed = A.Smashed;
  Out.Smashed.insert(B.Smashed.begin(), B.Smashed.end());
  return Out;
}

bool isSmashed(const std::set<std::string> &Smashed,
               const std::string &Field) {
  return Smashed.count(SmashAll) || Smashed.count(Field);
}

/// True when every field in \p Fields still denotes its entry-heap edge.
bool fieldsClean(const std::vector<std::string> &Fields,
                 const std::set<std::string> &Smashed) {
  if (Smashed.empty())
    return true;
  for (const std::string &F : Fields)
    if (isSmashed(Smashed, F))
      return false;
  return true;
}

bool isBuiltinArrayAccess(const Instr &I) {
  return I.Builtin == ArrayBuiltin::Get || I.Builtin == ArrayBuiltin::Set;
}

/// A non-builtin call site with everything needed to rebase the callee's
/// summary into the caller's frame.
struct CallSite {
  std::string CalleeSymbol;
  AbsValue Receiver;
  std::vector<AbsValue> Args;
  LockState Locks;
  std::set<std::string> Smashed;
};

/// Intra-procedural facts for one function.
struct IntraInfo {
  std::vector<StaticAccess> Accesses; ///< Own (non-inherited) accesses.
  std::vector<CallSite> CallSites;
  std::set<std::string> StoredOwn; ///< Fields this body stores directly.
  bool Incomplete = false;
};

void addLock(LockState &Locks, const AccessPath &Path, unsigned Count) {
  unsigned &Slot = Locks.Held[Path];
  Slot = std::min(Slot + Count, MaxLockCount);
}

void addUnknownLocks(LockState &Locks, unsigned Count) {
  Locks.UnknownHeld = std::min(Locks.UnknownHeld + Count, MaxLockCount);
}

/// Applies \p I to \p S.  Returns false when the transfer discovered a
/// monitor imbalance (release with nothing matching held).
bool transfer(AbsState &S, const Instr &I,
              const std::map<std::string, std::set<std::string>> *StoredTrans,
              bool *SawOpaque) {
  auto ValueOf = [&](Reg R) {
    return R < S.Regs.size() ? S.Regs[R] : AbsValue::unknown();
  };
  auto SetReg = [&](Reg R, AbsValue V) {
    if (R != NoReg && R < S.Regs.size())
      S.Regs[R] = std::move(V);
  };

  switch (I.Op) {
  case Opcode::ConstInt:
  case Opcode::ConstBool:
  case Opcode::ConstNull:
  case Opcode::RandInt:
  case Opcode::BinOp:
  case Opcode::UnOp:
    SetReg(I.Dst, AbsValue::unknown());
    break;
  case Opcode::Move:
    SetReg(I.Dst, ValueOf(I.A));
    break;
  case Opcode::NewObject:
    SetReg(I.Dst, AbsValue::fresh());
    break;
  case Opcode::LoadField: {
    AbsValue Base = ValueOf(I.A);
    if (Base.K == AbsValue::Kind::Path &&
        !isSmashed(S.Smashed, I.Member) &&
        Base.P.depth() + 1 <= MaxPathDepth)
      SetReg(I.Dst, AbsValue::path(Base.P.appended(I.Member)));
    else
      SetReg(I.Dst, AbsValue::unknown());
    break;
  }
  case Opcode::StoreField:
    S.Smashed.insert(I.Member);
    break;
  case Opcode::Invoke:
    if (!I.Callee) {
      // Built-in (IntArray).  set mutates elements; nothing else stores.
      if (I.Builtin == ArrayBuiltin::Set)
        S.Smashed.insert("[]");
    } else if (StoredTrans) {
      auto It = StoredTrans->find(I.Callee->name());
      if (It != StoredTrans->end())
        S.Smashed.insert(It->second.begin(), It->second.end());
      else
        S.Smashed.insert(SmashAll);
    } else {
      // Intra-only mode: the callee's effects are unknown.
      S.Smashed.insert(SmashAll);
      if (SawOpaque)
        *SawOpaque = true;
    }
    SetReg(I.Dst, AbsValue::unknown());
    break;
  case Opcode::SpawnThread:
    // The spawned thread runs concurrently and may mutate anything; its
    // own accesses are not attributable to this (sequential) frame.
    S.Smashed.insert(SmashAll);
    if (SawOpaque)
      *SawOpaque = true;
    break;
  case Opcode::MonitorEnter: {
    AbsValue V = ValueOf(I.A);
    if (V.K == AbsValue::Kind::Path)
      addLock(S.Locks, V.P, 1);
    else if (V.K != AbsValue::Kind::Fresh)
      addUnknownLocks(S.Locks, 1);
    break;
  }
  case Opcode::MonitorExit: {
    AbsValue V = ValueOf(I.A);
    if (V.K == AbsValue::Kind::Fresh)
      break; // The matching enter recorded nothing.
    if (V.K == AbsValue::Kind::Path) {
      auto It = S.Locks.Held.find(V.P);
      if (It != S.Locks.Held.end()) {
        if (--It->second == 0)
          S.Locks.Held.erase(It);
        break;
      }
    }
    if (S.Locks.UnknownHeld > 0) {
      --S.Locks.UnknownHeld;
      break;
    }
    if (!S.Locks.Held.empty()) {
      // An untracked release may free any held monitor: drop them all
      // (shrinking a must-set is always sound).
      S.Locks.Held.clear();
      break;
    }
    return false; // Release with nothing held: imbalanced IR.
  }
  case Opcode::Jump:
  case Opcode::Branch:
  case Opcode::Ret:
    break;
  }
  return true;
}

/// Runs the worklist fixpoint over \p F and harvests own accesses and
/// call sites.  \p StoredTrans supplies transitive store effects per
/// callee symbol; null selects the intra-only mode (opaque calls).
IntraInfo analyzeFunction(
    const IRFunction &F,
    const std::map<std::string, std::set<std::string>> *StoredTrans) {
  IntraInfo Out;
  const std::vector<Instr> &Body = F.instrs();
  if (Body.empty())
    return Out;

  AbsState Entry;
  Entry.Reachable = true;
  Entry.Regs.assign(F.numRegs(), AbsValue::bottom());
  for (unsigned R = 0; R < F.numParams() && R < F.numRegs(); ++R)
    Entry.Regs[R] = F.kind() == IRFunction::Kind::Method
                        ? AbsValue::path(AccessPath(static_cast<int>(R), {}))
                        : AbsValue::unknown();

  std::vector<AbsState> In(Body.size());
  In[0] = Entry;
  std::deque<uint32_t> Worklist{0};
  std::vector<bool> Queued(Body.size(), false);
  Queued[0] = true;
  bool Imbalanced = false;
  bool SawOpaque = false;

  auto Flow = [&](uint32_t To, const AbsState &S) {
    if (To >= Body.size())
      return;
    AbsState Joined = joinState(In[To], S);
    if (Joined == In[To])
      return;
    In[To] = std::move(Joined);
    if (!Queued[To]) {
      Queued[To] = true;
      Worklist.push_back(To);
    }
  };

  while (!Worklist.empty()) {
    uint32_t Pc = Worklist.front();
    Worklist.pop_front();
    Queued[Pc] = false;
    AbsState S = In[Pc];
    if (!S.Reachable)
      continue;
    const Instr &I = Body[Pc];
    if (!transfer(S, I, StoredTrans, &SawOpaque))
      Imbalanced = true;
    switch (I.Op) {
    case Opcode::Jump:
      Flow(I.Target, S);
      break;
    case Opcode::Branch:
      Flow(I.Target, S);
      Flow(Pc + 1, S);
      break;
    case Opcode::Ret:
      break;
    default:
      Flow(Pc + 1, S);
      break;
    }
  }

  // Harvest: one pass over the (now fixed) instruction states.
  for (uint32_t Pc = 0; Pc < Body.size(); ++Pc) {
    const AbsState &S = In[Pc];
    if (!S.Reachable)
      continue;
    const Instr &I = Body[Pc];
    const bool IsField =
        I.Op == Opcode::LoadField || I.Op == Opcode::StoreField;
    const bool IsElem = isBuiltinArrayAccess(I);
    if (IsField || IsElem) {
      StaticAccess A;
      A.Label = formatString("%s:%u", F.name().c_str(), Pc);
      A.FieldClassName = I.ClassName;
      A.Field = IsElem ? "[]" : I.Member;
      A.IsWrite =
          I.Op == Opcode::StoreField || I.Builtin == ArrayBuiltin::Set;
      A.IsElem = IsElem;
      AbsValue Base =
          I.A < S.Regs.size() ? S.Regs[I.A] : AbsValue::unknown();
      if (Base.K == AbsValue::Kind::Path) {
        A.Ctrl = Controllability::Param;
        A.BasePath = Base.P;
      } else if (Base.K == AbsValue::Kind::Fresh) {
        A.Ctrl = Controllability::NotParam;
      } else {
        A.Ctrl = Controllability::Unknown;
      }
      A.MustLocks = S.Locks.Held;
      A.UnknownLocks = S.Locks.UnknownHeld;
      Out.Accesses.push_back(std::move(A));
    }
    if (I.Op == Opcode::StoreField)
      Out.StoredOwn.insert(I.Member);
    if (I.Builtin == ArrayBuiltin::Set)
      Out.StoredOwn.insert("[]");
    if (I.Op == Opcode::SpawnThread)
      Out.StoredOwn.insert(SmashAll);
    if (I.Op == Opcode::Invoke && I.Callee &&
        I.Callee->kind() == IRFunction::Kind::Method) {
      CallSite CS;
      CS.CalleeSymbol = I.Callee->name();
      CS.Receiver =
          I.A < S.Regs.size() ? S.Regs[I.A] : AbsValue::unknown();
      for (Reg Arg : I.Args)
        CS.Args.push_back(Arg < S.Regs.size() ? S.Regs[Arg]
                                              : AbsValue::unknown());
      CS.Locks = S.Locks;
      CS.Smashed = S.Smashed;
      Out.CallSites.push_back(std::move(CS));
    }
  }

  Out.Incomplete = Imbalanced || SawOpaque;
  return Out;
}

/// The caller-frame value a callee-rooted path's root maps to.
AbsValue actualForRoot(int Root, const CallSite &CS) {
  if (Root == 0)
    return CS.Receiver;
  if (Root >= 1 && static_cast<size_t>(Root) <= CS.Args.size())
    return CS.Args[static_cast<size_t>(Root) - 1];
  return AbsValue::unknown();
}

AccessPath concatPath(const AccessPath &Base,
                      const std::vector<std::string> &Fields) {
  AccessPath Out = Base;
  Out.Fields.insert(Out.Fields.end(), Fields.begin(), Fields.end());
  return Out;
}

/// Rebases one callee access through a call site into the caller's frame.
/// The label stays the callee's (innermost site), matching how dynamic
/// AccessRecords label accesses observed in nested callees.
StaticAccess rebaseAccess(const StaticAccess &A, const CallSite &CS) {
  StaticAccess Out = A;
  Out.MustLocks.clear();
  Out.UnknownLocks = 0;
  Out.BasePath.reset();

  // Base object: a callee path is valid in the caller only when its root
  // maps to a tracked caller path and none of the callee-side fields were
  // stored to before the call (the callee re-loads them at call time).
  switch (A.Ctrl) {
  case Controllability::Param: {
    AbsValue V = actualForRoot(A.BasePath->Root, CS);
    if (V.K == AbsValue::Kind::Path &&
        fieldsClean(A.BasePath->Fields, CS.Smashed) &&
        V.P.depth() + A.BasePath->depth() <= MaxPathDepth) {
      Out.Ctrl = Controllability::Param;
      Out.BasePath = concatPath(V.P, A.BasePath->Fields);
    } else if (V.K == AbsValue::Kind::Fresh && A.BasePath->Fields.empty()) {
      Out.Ctrl = Controllability::NotParam;
    } else {
      Out.Ctrl = Controllability::Unknown;
    }
    break;
  }
  case Controllability::NotParam:
    Out.Ctrl = Controllability::NotParam;
    break;
  case Controllability::Unknown:
    Out.Ctrl = Controllability::Unknown;
    break;
  }

  // Locks: rebase the callee's must-locks, then add the caller's own
  // must-locks held at the call site.
  for (const auto &[Path, Count] : A.MustLocks) {
    AbsValue V = actualForRoot(Path.Root, CS);
    if (V.K == AbsValue::Kind::Path && fieldsClean(Path.Fields, CS.Smashed) &&
        V.P.depth() + Path.depth() <= MaxPathDepth) {
      unsigned &Slot = Out.MustLocks[concatPath(V.P, Path.Fields)];
      Slot = std::min(Slot + Count, MaxLockCount);
    } else if (V.K == AbsValue::Kind::Fresh && Path.Fields.empty()) {
      // Monitor on a caller-fresh object: never coincides; drop.
    } else {
      Out.UnknownLocks = std::min(Out.UnknownLocks + Count, MaxLockCount);
    }
  }
  for (const auto &[Path, Count] : CS.Locks.Held) {
    unsigned &Slot = Out.MustLocks[Path];
    Slot = std::min(Slot + Count, MaxLockCount);
  }
  Out.UnknownLocks = std::min(Out.UnknownLocks + CS.Locks.UnknownHeld,
                              MaxLockCount);
  if (A.UnknownLocks)
    Out.UnknownLocks =
        std::min(Out.UnknownLocks + A.UnknownLocks, MaxLockCount);
  return Out;
}

} // namespace

MethodSummary staticrace::summarizeFunctionIntra(const IRFunction &F) {
  IntraInfo Info = analyzeFunction(F, /*StoredTrans=*/nullptr);
  MethodSummary Out;
  Out.Symbol = F.name();
  Out.Accesses = std::move(Info.Accesses);
  Out.StoredFields = std::move(Info.StoredOwn);
  Out.Incomplete = Info.Incomplete;
  return Out;
}

namespace {

/// The whole-module summarization pipeline (phases A–C).
ModuleSummary composeModule(const IRModule &M) {
  // Phase A: transitive store effects per method (union closure over the
  // call graph; monotone, so plain iteration converges).
  std::map<std::string, const IRFunction *> Methods;
  for (const auto &F : M.functions())
    if (F->kind() == IRFunction::Kind::Method)
      Methods[F->name()] = F.get();

  std::map<std::string, std::set<std::string>> Stored;
  std::map<std::string, std::vector<std::string>> Callees;
  for (const auto &[Symbol, F] : Methods) {
    std::set<std::string> Own;
    std::vector<std::string> Out;
    for (const Instr &I : F->instrs()) {
      if (I.Op == Opcode::StoreField)
        Own.insert(I.Member);
      if (I.Builtin == ArrayBuiltin::Set)
        Own.insert("[]");
      if (I.Op == Opcode::SpawnThread)
        Own.insert(SmashAll);
      if (I.Op == Opcode::Invoke && I.Callee &&
          I.Callee->kind() == IRFunction::Kind::Method)
        Out.push_back(I.Callee->name());
    }
    Stored[Symbol] = std::move(Own);
    Callees[Symbol] = std::move(Out);
  }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &[Symbol, Outgoing] : Callees) {
      std::set<std::string> &Mine = Stored[Symbol];
      size_t Before = Mine.size();
      for (const std::string &Callee : Outgoing) {
        auto It = Stored.find(Callee);
        if (It != Stored.end())
          Mine.insert(It->second.begin(), It->second.end());
      }
      Changed |= Mine.size() != Before;
    }
  }

  // Phase B: intra-procedural fixpoint per method, with call effects
  // approximated by the Phase A sets.
  std::map<std::string, IntraInfo> Intra;
  for (const auto &[Symbol, F] : Methods)
    Intra[Symbol] = analyzeFunction(*F, &Stored);

  // Phase C: bounded call-digest composition (Jacobi rounds): each round
  // rebases the previous round's callee accesses through every call site.
  // Sets only grow, so "no growth" is convergence.
  std::map<std::string, std::vector<StaticAccess>> Acc;
  std::map<std::string, std::set<std::string>> Seen;
  std::set<std::string> Incomplete;
  for (auto &[Symbol, Info] : Intra) {
    std::vector<StaticAccess> Init;
    std::set<std::string> &Fps = Seen[Symbol];
    for (const StaticAccess &A : Info.Accesses)
      if (Fps.insert(A.fingerprint()).second)
        Init.push_back(A);
    Acc[Symbol] = std::move(Init);
    if (Info.Incomplete)
      Incomplete.insert(Symbol);
  }

  auto GrowthOf = [&](const std::string &Symbol,
                      const std::map<std::string, std::vector<StaticAccess>>
                          &Prev) {
    std::vector<StaticAccess> Fresh;
    const std::set<std::string> &Fps = Seen[Symbol];
    for (const CallSite &CS : Intra[Symbol].CallSites) {
      auto It = Prev.find(CS.CalleeSymbol);
      if (It == Prev.end())
        continue;
      for (const StaticAccess &A : It->second) {
        StaticAccess R = rebaseAccess(A, CS);
        if (!Fps.count(R.fingerprint()))
          Fresh.push_back(std::move(R));
      }
    }
    return Fresh;
  };

  bool Converged = false;
  for (unsigned Round = 0; Round < MaxInlineRounds; ++Round) {
    std::map<std::string, std::vector<StaticAccess>> Prev = Acc;
    bool Changed = false;
    for (const auto &[Symbol, F] : Methods) {
      (void)F;
      std::vector<StaticAccess> Fresh = GrowthOf(Symbol, Prev);
      std::set<std::string> &Fps = Seen[Symbol];
      std::vector<StaticAccess> &Mine = Acc[Symbol];
      for (StaticAccess &R : Fresh) {
        if (Mine.size() >= MaxAccessesPerMethod) {
          Incomplete.insert(Symbol);
          break;
        }
        if (Fps.insert(R.fingerprint()).second) {
          Mine.push_back(std::move(R));
          Changed = true;
        }
      }
    }
    if (!Changed) {
      Converged = true;
      break;
    }
  }
  if (!Converged) {
    // A probe round identifies the methods that would still grow — those
    // (recursion deeper than the inline budget) are incomplete.
    std::map<std::string, std::vector<StaticAccess>> Prev = Acc;
    for (const auto &[Symbol, F] : Methods) {
      (void)F;
      if (!GrowthOf(Symbol, Prev).empty())
        Incomplete.insert(Symbol);
    }
  }

  // Incompleteness propagates caller-ward: a summary inheriting from an
  // incomplete callee may itself be missing instances.
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &[Symbol, Outgoing] : Callees) {
      if (Incomplete.count(Symbol))
        continue;
      for (const std::string &Callee : Outgoing)
        if (Incomplete.count(Callee)) {
          Incomplete.insert(Symbol);
          Changed = true;
          break;
        }
    }
  }

  ModuleSummary Out;
  for (const auto &[Symbol, F] : Methods) {
    (void)F;
    MethodSummary S;
    S.Symbol = Symbol;
    S.Accesses = std::move(Acc[Symbol]);
    std::sort(S.Accesses.begin(), S.Accesses.end(),
              [](const StaticAccess &A, const StaticAccess &B) {
                return A.fingerprint() < B.fingerprint();
              });
    S.StoredFields = std::move(Stored[Symbol]);
    S.Incomplete = Incomplete.count(Symbol) != 0;
    Out.Methods.emplace(Symbol, std::move(S));
  }
  return Out;
}

} // namespace

ModuleSummary staticrace::summarizeModule(const IRModule &M) {
  ModuleSummary Summary = composeModule(M);
  obs::MetricsRegistry::global()
      .counter("staticrace.methods_summarized")
      .inc(Summary.Methods.size());
  return Summary;
}
