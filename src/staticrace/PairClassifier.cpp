//===- staticrace/PairClassifier.cpp - Candidate pair verdicts -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "staticrace/PairClassifier.h"

#include "analysis/AccessAnalysis.h"
#include "ir/IR.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

using namespace narada;
using namespace narada::staticrace;

namespace {

/// A lock suffix relative to the shared base: the empty suffix is a
/// monitor on the base object itself.
using Suffix = std::vector<std::string>;

/// One side of a candidate pair: every static instance of the label under
/// the entry method, plus the aggregate facts the verdicts need.
struct SideView {
  const MethodSummary *Sum = nullptr;
  std::vector<const StaticAccess *> Instances;
  bool Complete = false;      ///< Summary found, not Incomplete, non-empty.
  bool AllParam = false;      ///< Every instance has an entry-rooted base.
  bool LocksResolved = false; ///< No instance lost a monitor's identity.
};

SideView viewOf(const ModuleSummary &S, const std::string &Sym,
                const std::string &Label) {
  SideView Out;
  Out.Sum = S.find(Sym);
  if (!Out.Sum)
    return Out;
  for (const StaticAccess &A : Out.Sum->Accesses)
    if (A.Label == Label)
      Out.Instances.push_back(&A);
  Out.Complete = !Out.Sum->Incomplete && !Out.Instances.empty();
  Out.AllParam = !Out.Instances.empty();
  Out.LocksResolved = true;
  for (const StaticAccess *A : Out.Instances) {
    if (A->Ctrl != Controllability::Param || !A->BasePath)
      Out.AllParam = false;
    if (A->UnknownLocks)
      Out.LocksResolved = false;
  }
  return Out;
}

/// The suffixes of monitors reached through the instance's base — the only
/// monitors the staged sharing can force to coincide with the other side's.
std::set<Suffix> throughBaseSuffixes(const StaticAccess &A) {
  std::set<Suffix> Out;
  if (!A.BasePath)
    return Out;
  for (const auto &[Lock, Count] : A.MustLocks) {
    (void)Count;
    if (Lock.hasPrefix(*A.BasePath))
      Out.insert(Lock.suffixAfter(*A.BasePath));
  }
  return Out;
}

std::set<Suffix> intersectOverInstances(const SideView &Side) {
  std::set<Suffix> Out;
  for (size_t I = 0; I < Side.Instances.size(); ++I) {
    std::set<Suffix> Mine = throughBaseSuffixes(*Side.Instances[I]);
    if (I == 0) {
      Out = std::move(Mine);
    } else {
      std::set<Suffix> Kept;
      std::set_intersection(Out.begin(), Out.end(), Mine.begin(), Mine.end(),
                            std::inserter(Kept, Kept.begin()));
      Out = std::move(Kept);
    }
    if (Out.empty())
      break;
  }
  return Out;
}

std::set<Suffix> unionOverInstances(const SideView &Side) {
  std::set<Suffix> Out;
  for (const StaticAccess *A : Side.Instances) {
    std::set<Suffix> Mine = throughBaseSuffixes(*A);
    Out.insert(Mine.begin(), Mine.end());
  }
  return Out;
}

bool setsIntersect(const std::set<Suffix> &A, const std::set<Suffix> &B) {
  for (const Suffix &S : A)
    if (B.count(S))
      return true;
  return false;
}

PairVerdict classifyViews(const SideView &A, const SideView &B) {
  if (!A.Complete || !B.Complete || !A.AllParam || !B.AllParam)
    return PairVerdict::Unknown;

  // MustGuarded: a suffix every instance of *both* sides locks through its
  // base — the sharing then forces one monitor, serializing the accesses.
  if (setsIntersect(intersectOverInstances(A), intersectOverInstances(B)))
    return PairVerdict::MustGuarded;

  // MayRace: all monitors identity-resolved, and no instance combination
  // has a common through-base suffix — nothing can serialize the pair.
  if (A.LocksResolved && B.LocksResolved &&
      !setsIntersect(unionOverInstances(A), unionOverInstances(B)))
    return PairVerdict::MayRace;

  return PairVerdict::Unknown;
}

/// The per-side half of the MustRace certificate: every instance of the
/// label is the entry method's own access (not inherited from a callee)
/// and provably holds no monitor at all.
bool sideCertifiable(const SideView &Side, const std::string &Sym,
                     const std::string &Label, bool &SawWrite) {
  if (Side.Instances.empty())
    return false;
  if (Label.compare(0, Sym.size() + 1, Sym + ":") != 0)
    return false; // Inherited from a callee: reachability is conditional.
  for (const StaticAccess *A : Side.Instances) {
    if (!A->MustLocks.empty() || A->UnknownLocks != 0)
      return false; // A held monitor could serialize some interleavings.
    SawWrite = SawWrite || A->IsWrite;
  }
  return true;
}

} // namespace

PairVerdict staticrace::classifyLabelPair(const ModuleSummary &S,
                                          const std::string &SymA,
                                          const std::string &LabelA,
                                          const std::string &SymB,
                                          const std::string &LabelB) {
  return classifyViews(viewOf(S, SymA, LabelA), viewOf(S, SymB, LabelB));
}

PairVerdict staticrace::certifyLabelPair(const ModuleSummary &S,
                                         const std::string &SymA,
                                         const std::string &LabelA,
                                         const std::string &SymB,
                                         const std::string &LabelB) {
  SideView A = viewOf(S, SymA, LabelA);
  SideView B = viewOf(S, SymB, LabelB);
  PairVerdict Base = classifyViews(A, B);
  if (Base != PairVerdict::MayRace)
    return Base; // Only the priority candidates can be strengthened.
  bool SawWrite = false;
  if (!sideCertifiable(A, SymA, LabelA, SawWrite) ||
      !sideCertifiable(B, SymB, LabelB, SawWrite))
    return Base;
  if (!SawWrite)
    return Base; // Read-read pairs are filtered upstream, but be safe.
  return PairVerdict::MustRace;
}

PairVerdict staticrace::certifyRecordPair(const ModuleSummary &S,
                                          const AccessRecord &A,
                                          const AccessRecord &B) {
  return certifyLabelPair(S, methodSymbol(A.ClassName, A.Method), A.Label,
                          methodSymbol(B.ClassName, B.Method), B.Label);
}

namespace {

/// One distinct (entry method, access site) pair in the triage listing.
struct TriageSite {
  std::string Sym;
  std::string Label;
  bool IsWrite = false;

  std::string str() const {
    std::string Out = Label + (IsWrite ? " (write)" : " (read)");
    // The label names the innermost site; note the entry method when the
    // access was inherited from a callee.
    if (Label.compare(0, Sym.size() + 1, Sym + ":") != 0)
      Out += " via " + Sym;
    return Out;
  }
};

/// True for access sites inside constructor bodies, which pair generation
/// discards (paper §4): no client can race the initialization window.
bool isConstructorSite(const std::string &Symbol) {
  size_t Colon = Symbol.find(':');
  std::string Func = Colon == std::string::npos ? Symbol
                                                : Symbol.substr(0, Colon);
  return endsWith(Func, std::string(".") + ConstructorName);
}

} // namespace

std::string staticrace::renderStaticTriage(const ModuleSummary &S,
                                           const std::string &FocusClass) {
  // Collect the statically controllable sites per raced-on field,
  // mirroring the dynamic pipeline's filters: constructor accesses and
  // accesses without an entry-rooted base cannot be staged by a client.
  std::map<std::string, std::vector<TriageSite>> ByField;
  size_t Methods = 0;
  for (const auto &[Symbol, Sum] : S.Methods) {
    std::string Class = Symbol.substr(0, Symbol.find('.'));
    if (!FocusClass.empty() && Class != FocusClass)
      continue;
    if (isConstructorSite(Symbol))
      continue;
    ++Methods;
    std::set<std::string> Emitted;
    for (const StaticAccess &A : Sum.Accesses) {
      if (A.Ctrl != Controllability::Param)
        continue;
      if (isConstructorSite(A.Label))
        continue;
      if (!Emitted.insert(A.Label).second)
        continue;
      TriageSite Site;
      Site.Sym = Symbol;
      Site.Label = A.Label;
      Site.IsWrite = A.IsWrite;
      ByField[A.FieldClassName + "." + A.Field].push_back(std::move(Site));
    }
  }

  std::map<PairVerdict, size_t> Counts;
  size_t Total = 0;
  std::string Body;
  for (auto &[FieldKey, Sites] : ByField) {
    std::sort(Sites.begin(), Sites.end(),
              [](const TriageSite &A, const TriageSite &B) {
                return std::tie(A.Sym, A.Label) < std::tie(B.Sym, B.Label);
              });
    std::vector<std::string> Lines;
    for (size_t I = 0; I < Sites.size(); ++I) {
      for (size_t J = I; J < Sites.size(); ++J) {
        if (!Sites[I].IsWrite && !Sites[J].IsWrite)
          continue; // Read-read never races.
        PairVerdict V = classifyLabelPair(S, Sites[I].Sym, Sites[I].Label,
                                          Sites[J].Sym, Sites[J].Label);
        ++Counts[V];
        ++Total;
        Lines.push_back(formatString("  [%-11s] %s ~ %s\n", verdictName(V),
                                     Sites[I].str().c_str(),
                                     Sites[J].str().c_str()));
      }
    }
    if (Lines.empty())
      continue;
    Body += FieldKey + ":\n";
    for (const std::string &Line : Lines)
      Body += Line;
  }

  std::string Focus =
      FocusClass.empty() ? std::string() : " (focus " + FocusClass + ")";
  std::string Out =
      formatString("== static triage%s: %zu methods, %zu candidate pairs ==\n",
                   Focus.c_str(), Methods, Total);
  Out += Body;
  Out += formatString("total: %zu MayRace, %zu MustGuarded, %zu Unknown\n",
                      Counts[PairVerdict::MayRace],
                      Counts[PairVerdict::MustGuarded],
                      Counts[PairVerdict::Unknown]);
  return Out;
}
