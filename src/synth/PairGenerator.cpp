//===- synth/PairGenerator.cpp - Narada stage 2a -------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "synth/PairGenerator.h"

#include "obs/Metrics.h"
#include "staticrace/PairClassifier.h"
#include "support/RaceKey.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace narada;

std::string RacyPair::key() const {
  std::string A = formatString("%s|%s|%s", First.AccessLabel.c_str(),
                               First.BasePath.str().c_str(),
                               First.IsWrite ? "W" : "R");
  std::string B = formatString("%s|%s|%s", Second.AccessLabel.c_str(),
                               Second.BasePath.str().c_str(),
                               Second.IsWrite ? "W" : "R");
  if (B < A)
    std::swap(A, B);
  return formatString("%s.%s {%s ~ %s}", FieldClassName.c_str(),
                      Field.c_str(), A.c_str(), B.c_str());
}

std::string RacyPair::str() const {
  return formatString("race on %s.%s: %s.%s[%s via %s] vs %s.%s[%s via %s]",
                      FieldClassName.c_str(), Field.c_str(),
                      First.ClassName.c_str(), First.Method.c_str(),
                      First.AccessLabel.c_str(), First.BasePath.str().c_str(),
                      Second.ClassName.c_str(), Second.Method.c_str(),
                      Second.AccessLabel.c_str(),
                      Second.BasePath.str().c_str());
}

bool narada::locksCollideUnderSharing(const AccessRecord &A,
                                      const AccessRecord &B) {
  assert(A.BasePath && B.BasePath && "feasibility needs controllable bases");
  // The synthesized context makes resolve(A.BasePath) == resolve(B.BasePath)
  // == S, and shares nothing else between the two invocations' parameter
  // worlds.  Two objects coincide exactly when both are reached *through* S:
  // lockA = A.Base + suffix and lockB = B.Base + the same suffix.  Monitors
  // without a client path are per-invocation-fresh and never collide.
  for (const auto &LockA : A.HeldLockPaths) {
    if (!LockA || !LockA->hasPrefix(*A.BasePath))
      continue;
    std::vector<std::string> SuffixA = LockA->suffixAfter(*A.BasePath);
    for (const auto &LockB : B.HeldLockPaths) {
      if (!LockB || !LockB->hasPrefix(*B.BasePath))
        continue;
      if (LockB->suffixAfter(*B.BasePath) == SuffixA)
        return true;
    }
  }
  return false;
}

Admission narada::admitAccess(const AccessRecord &R,
                              const PairGenOptions &Options) {
  if (!Options.FocusClass.empty() && R.ClassName != Options.FocusClass)
    return Admission::OtherClass;
  if (R.InConstructor)
    return Admission::InConstructor;
  if (!R.BasePath)
    return Admission::Uncontrollable; // A client cannot stage the sharing.
  return Admission::Admitted;
}

std::string narada::pairFieldOf(const AccessRecord &R) {
  return R.FieldClassName + "." + R.Field;
}

PairCheck narada::checkCandidatePair(const AccessRecord &A,
                                     const AccessRecord &B) {
  if (!A.IsWrite && !B.IsWrite)
    return PairCheck::ReadRead; // Read-read never races.
  // Every pair is anchored on an unprotected access.
  if (!A.Unprotected)
    return PairCheck::Unanchored;
  if (locksCollideUnderSharing(A, B))
    return PairCheck::LocksCollide;
  return PairCheck::Forms;
}

RacyPair narada::makeCandidatePair(const AccessRecord &A,
                                   const AccessRecord &B) {
  auto MakeSide = [](const AccessRecord &R) {
    RacySide Side;
    Side.ClassName = R.ClassName;
    Side.Method = R.Method;
    Side.AccessLabel = R.staticLabel();
    Side.BasePath = *R.BasePath;
    Side.IsWrite = R.IsWrite;
    return Side;
  };
  RacyPair Pair;
  Pair.First = MakeSide(A);
  Pair.Second = MakeSide(B);
  Pair.Field = A.Field;
  Pair.FieldClassName = A.FieldClassName;
  return Pair;
}

std::vector<RacyPair>
narada::generatePairs(const AnalysisResult &Analysis,
                      const PairGenOptions &Options) {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();

  // Group accesses by the field they touch.
  std::map<std::string, std::vector<const AccessRecord *>> ByField;
  for (const AccessRecord &R : Analysis.Accesses) {
    switch (admitAccess(R, Options)) {
    case Admission::OtherClass:
      continue;
    case Admission::InConstructor:
      Metrics.counter("pairgen.accesses_dropped.constructor").inc();
      continue;
    case Admission::Uncontrollable:
      Metrics.counter("pairgen.accesses_dropped.uncontrollable").inc();
      continue;
    case Admission::Admitted:
      break;
    }
    ByField[pairFieldOf(R)].push_back(&R);
  }

  std::vector<RacyPair> Pairs;
  std::set<std::string> Seen;
  const staticrace::ModuleSummary *Static = Options.Static;

  for (const auto &[FieldKey, Records] : ByField) {
    for (const AccessRecord *A : Records) {
      if (!A->Unprotected)
        continue; // Only an unprotected access anchors a pair.
      for (const AccessRecord *B : Records) {
        PairCheck Check = checkCandidatePair(*A, *B);
        if (Check == PairCheck::ReadRead) {
          Metrics.counter("pairgen.candidates_rejected.read_read").inc();
          continue;
        }
        if (Check == PairCheck::LocksCollide) {
          Metrics.counter("pairgen.candidates_rejected.lock_collision")
              .inc();
          continue;
        }

        RacyPair Pair = makeCandidatePair(*A, *B);
        // One call classifies the pair and tries the MustRace certificate
        // on a MayRace verdict.  No counter here: certification must not
        // perturb the pinned bench counters of the default pipeline
        // (triage counts it).
        if (Static)
          Pair.Verdict = staticrace::certifyRecordPair(*Static, *A, *B);
        if (Seen.insert(Pair.key()).second)
          Pairs.push_back(std::move(Pair));
      }
    }
  }

  if (Static) {
    size_t Unknowns = 0;
    for (const RacyPair &Pair : Pairs)
      if (Pair.Verdict == staticrace::PairVerdict::Unknown)
        ++Unknowns;
    Metrics.counter("staticrace.unknown").inc(Unknowns);
    if (Options.StaticRank) {
      auto Rank = [](const RacyPair &Pair) {
        switch (*Pair.Verdict) {
        case staticrace::PairVerdict::MustRace:
        case staticrace::PairVerdict::MayRace:
          return 0;
        case staticrace::PairVerdict::Unknown:
          return 1;
        case staticrace::PairVerdict::MustGuarded:
          break;
        }
        return 2;
      };
      std::stable_sort(Pairs.begin(), Pairs.end(),
                       [&](const RacyPair &A, const RacyPair &B) {
                         return Rank(A) < Rank(B);
                       });
      Metrics.counter("staticrace.pairs_ranked").inc(Pairs.size());
    }
  }
  return Pairs;
}

std::map<std::string, std::string>
narada::staticVerdictsByRaceKey(const std::vector<RacyPair> &Pairs) {
  auto RankOf = [](const std::string &Name) {
    if (Name == "MustRace")
      return 0;
    if (Name == "MayRace")
      return 1;
    if (Name == "Unknown")
      return 2;
    return 3; // MustGuarded
  };
  std::map<std::string, std::string> Out;
  for (const RacyPair &Pair : Pairs) {
    if (!Pair.Verdict)
      continue;
    // Reproduce RaceReport::key(), escaping and all (support/RaceKey.h).
    std::string Key = makeRaceKey(Pair.FieldClassName, Pair.Field,
                                  Pair.First.AccessLabel,
                                  Pair.Second.AccessLabel);
    std::string Name = staticrace::verdictName(*Pair.Verdict);
    auto [It, Inserted] = Out.emplace(Key, Name);
    if (!Inserted && RankOf(Name) < RankOf(It->second))
      It->second = Name;
  }
  return Out;
}
