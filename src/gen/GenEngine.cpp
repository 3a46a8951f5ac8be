//===- gen/GenEngine.cpp - Generative seed-corpus engine -----------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "gen/GenEngine.h"

#include "analysis/AccessAnalysis.h"
#include "gen/ApiModel.h"
#include "gen/SeedGen.h"
#include "ir/IR.h"
#include "lang/ASTPrinter.h"
#include "obs/Metrics.h"
#include "obs/Span.h"
#include "runtime/Execution.h"
#include "staticrace/LocksetAnalysis.h"
#include "staticrace/PairClassifier.h"
#include "support/FaultInjection.h"
#include "support/Parallel.h"
#include "synth/PairGenerator.h"

#include <algorithm>
#include <deque>

using namespace narada;
using namespace narada::gen;

uint64_t narada::gen::candidateSeed(uint64_t Base, unsigned Round,
                                    unsigned Index) {
  // Same shape as pairDerivationSeed: SplitMix64 over base xor coordinates,
  // so every candidate owns an independent stream regardless of how many
  // candidates any round emits.
  uint64_t Z = Base ^ ((static_cast<uint64_t>(Round) << 32) |
                       (static_cast<uint64_t>(Index) + 1));
  Z += 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

namespace {

/// A statically suspicious access pair the steering tries to reach: two
/// controllable accesses to one field, at least one write, not provably
/// serialized.  Keyed canonically so coverage by a generated RacyPair is a
/// set lookup.
struct SteerTarget {
  std::string SymA, SymB; ///< Entry-method symbols ("Class.method").
  std::string Key;        ///< Canonical "symA@labelA~symB@labelB".
};

std::string sideCoord(const std::string &Sym, const std::string &Label) {
  return Sym + "@" + Label;
}

std::string targetKey(std::string CoordA, std::string CoordB) {
  if (CoordB < CoordA)
    std::swap(CoordA, CoordB);
  return CoordA + "~" + CoordB;
}

std::vector<SteerTarget>
collectSteerTargets(const staticrace::ModuleSummary &Summary,
                    const std::string &FocusClass) {
  // Flatten to (entry symbol, access) in deterministic map order, keeping
  // only controllable accesses of focus-class entry methods (all methods
  // when unfocused) — the static analogue of "a client can stage this".
  struct Site {
    const std::string *Sym;
    const staticrace::StaticAccess *Access;
  };
  std::vector<Site> Sites;
  for (const auto &[Sym, Method] : Summary.Methods) {
    if (!FocusClass.empty() &&
        Sym.rfind(FocusClass + ".", 0) != 0)
      continue;
    for (const staticrace::StaticAccess &Access : Method.Accesses)
      if (Access.Ctrl == staticrace::Controllability::Param)
        Sites.push_back({&Sym, &Access});
  }

  std::vector<SteerTarget> Targets;
  std::set<std::string> Seen;
  for (size_t I = 0; I < Sites.size(); ++I) {
    for (size_t J = I; J < Sites.size(); ++J) {
      const staticrace::StaticAccess &A = *Sites[I].Access;
      const staticrace::StaticAccess &B = *Sites[J].Access;
      if (A.FieldClassName != B.FieldClassName || A.Field != B.Field)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      if (staticrace::classifyLabelPair(Summary, *Sites[I].Sym, A.Label,
                                        *Sites[J].Sym, B.Label) ==
          staticrace::PairVerdict::MustGuarded)
        continue;
      SteerTarget T;
      T.SymA = *Sites[I].Sym;
      T.SymB = *Sites[J].Sym;
      T.Key = targetKey(sideCoord(T.SymA, A.Label), sideCoord(T.SymB, B.Label));
      if (Seen.insert(T.Key).second)
        Targets.push_back(std::move(T));
    }
  }
  return Targets;
}

/// Step budget of a candidate's validation run.  The longest candidate that
/// finishes, over C1-C9 x seeds 1-16, takes 2,501 steps; the ones that do
/// not finish run self-feeding loops (`l.addAll(l)`, capacity growth) that
/// reach any budget, so a larger one only spends more steps to reject them.
constexpr uint64_t ValidationStepBudget = 65'536;

/// Keys of the candidate pairs that involve a record of \p New, within one
/// field whose other admitted records are \p Old.
std::set<std::string>
pairKeysAdding(std::vector<const AccessRecord *> Old,
               const std::vector<const AccessRecord *> &New) {
  std::set<std::string> Keys;
  auto Add = [&](const AccessRecord &A, const AccessRecord &B) {
    if (checkCandidatePair(A, B) == PairCheck::Forms)
      Keys.insert(makeCandidatePair(A, B).key());
  };
  for (const AccessRecord *R : New) {
    Old.push_back(R);
    for (const AccessRecord *M : Old) {
      Add(*R, *M);
      if (M != R)
        Add(*M, *R);
    }
  }
  return Keys;
}

/// Coverage of the kept corpus, one seed at a time: the keys generatePairs
/// gives over the kept analyses merged in order, and the setter and return
/// summaries the context deriver mines.  Merging keeps the first record of
/// each dedupKey, so a seed can only add the pairs its new records form in
/// their own field, and can only take away the pairs of records it holds
/// first.  tests/property_test.cpp checks the keys against generatePairs.
class CorpusCoverage {
public:
  explicit CorpusCoverage(const std::string &FocusClass) {
    Options.FocusClass = FocusClass;
  }

  /// Keeps \p Analysis as the next seed iff it adds a pair key, setter or
  /// return summary.
  bool keepIfGrows(AnalysisResult Analysis);
  /// Drops kept seed \p Id (ids count kept seeds from 0) iff the other
  /// seeds cover the same pair keys, setters and return summaries.
  bool dropIfRedundant(size_t Id);

  /// The kept seeds' analyses merged in order, before any drop.
  const AnalysisResult &merged() const { return Merged; }
  std::set<std::string> pairKeys() const {
    std::set<std::string> Keys;
    for (const auto &[Name, Field] : Fields)
      Keys.insert(Field.Keys.begin(), Field.Keys.end());
    return Keys;
  }

private:
  /// A kept seed's record of one dedupKey.
  struct Holder {
    size_t Seed;
    const AccessRecord *Record;
  };
  /// The admitted merged records of one field and the pair keys they form.
  struct FieldCoverage {
    std::vector<const AccessRecord *> Records;
    std::set<std::string> Keys;
  };

  bool admitted(const AccessRecord &R) const {
    return admitAccess(R, Options) == Admission::Admitted;
  }
  const FieldCoverage &field(const std::string &Name) const {
    static const FieldCoverage None;
    auto It = Fields.find(Name);
    return It == Fields.end() ? None : It->second;
  }

  PairGenOptions Options;
  std::deque<AnalysisResult> Seeds; ///< Every seed ever kept, by id.
  /// dedupKey -> the kept seeds holding it, in order; the first one's
  /// record is the merged record.
  std::map<std::string, std::vector<Holder>> Holders;
  std::map<std::string, FieldCoverage> Fields; ///< By pairFieldOf.
  /// Setter and return summary strings -> how many kept seeds hold them.
  std::map<std::string, unsigned> Setters, Returns;
  AnalysisResult Merged;
};

bool CorpusCoverage::keepIfGrows(AnalysisResult Analysis) {
  const size_t Id = Seeds.size();
  const AnalysisResult &Seed = Seeds.emplace_back(std::move(Analysis));

  bool Grows = false;
  for (const WriteableAssign &Setter : Seed.Setters)
    Grows |= !Setters.count(Setter.str());
  for (const ReturnSummary &Ret : Seed.Returns)
    Grows |= !Returns.count(Ret.str());

  // Only records new by dedupKey can form new pairs (the analysis holds
  // each key once), and only with records of their own field.
  std::vector<std::string> Keys;
  std::map<std::string, std::vector<const AccessRecord *>> Fresh;
  for (const AccessRecord &R : Seed.Accesses) {
    Keys.push_back(R.dedupKey());
    if (!Holders.count(Keys.back()) && admitted(R))
      Fresh[pairFieldOf(R)].push_back(&R);
  }
  std::map<std::string, std::set<std::string>> Added;
  for (const auto &[Name, New] : Fresh) {
    const FieldCoverage &Field = field(Name);
    for (const std::string &Key : pairKeysAdding(Field.Records, New))
      if (!Field.Keys.count(Key))
        Added[Name].insert(Key);
  }
  if (!Grows && Added.empty()) {
    Seeds.pop_back();
    return false;
  }

  for (size_t I = 0; I < Seed.Accesses.size(); ++I) {
    std::vector<Holder> &Held = Holders[Keys[I]];
    Held.push_back({Id, &Seed.Accesses[I]});
    if (Held.size() == 1)
      Merged.Accesses.push_back(Seed.Accesses[I]);
  }
  for (const auto &[Name, New] : Fresh) {
    FieldCoverage &Field = Fields[Name];
    Field.Records.insert(Field.Records.end(), New.begin(), New.end());
    Field.Keys.merge(Added[Name]);
  }
  for (const WriteableAssign &Setter : Seed.Setters)
    if (Setters[Setter.str()]++ == 0)
      Merged.Setters.push_back(Setter);
  for (const ReturnSummary &Ret : Seed.Returns)
    if (Returns[Ret.str()]++ == 0)
      Merged.Returns.push_back(Ret);
  return true;
}

bool CorpusCoverage::dropIfRedundant(size_t Id) {
  const AnalysisResult &Seed = Seeds[Id];
  for (const WriteableAssign &Setter : Seed.Setters)
    if (Setters.at(Setter.str()) == 1)
      return false;
  for (const ReturnSummary &Ret : Seed.Returns)
    if (Returns.at(Ret.str()) == 1)
      return false;

  // Where the seed holds a merged record, the next kept seed's record of
  // that dedupKey (if any) takes its place: rebuild just those fields.
  std::vector<std::string> Keys;
  std::map<std::string, std::vector<const AccessRecord *>> After;
  auto Touch = [&](const AccessRecord &R) -> auto & {
    std::string Name = pairFieldOf(R);
    auto [It, New] = After.try_emplace(Name);
    if (New)
      It->second = field(Name).Records;
    return It->second;
  };
  for (const AccessRecord &R : Seed.Accesses) {
    Keys.push_back(R.dedupKey());
    const std::vector<Holder> &Held = Holders.at(Keys.back());
    if (Held.front().Seed != Id)
      continue;
    if (admitted(R))
      std::erase(Touch(R), &R);
    if (Held.size() > 1 && admitted(*Held[1].Record))
      Touch(*Held[1].Record).push_back(Held[1].Record);
  }
  for (const auto &[Name, Records] : After)
    if (pairKeysAdding({}, Records) != field(Name).Keys)
      return false;

  for (auto &[Name, Records] : After)
    Fields[Name].Records = std::move(Records);
  for (const std::string &Key : Keys) {
    auto It = Holders.find(Key);
    std::erase_if(It->second, [&](const Holder &H) { return H.Seed == Id; });
    if (It->second.empty())
      Holders.erase(It);
  }
  for (const WriteableAssign &Setter : Seed.Setters)
    --Setters[Setter.str()];
  for (const ReturnSummary &Ret : Seed.Returns)
    --Returns[Ret.str()];
  return true;
}

/// One emitted candidate awaiting validation.
struct Candidate {
  unsigned Round = 0;
  unsigned Index = 0; ///< Within the round.
  unsigned Global = 0;
  std::string Name;
  std::string Source;
};

/// What validation decided for one candidate.
struct Validation {
  bool Valid = false;
  std::string Error; ///< Why invalid (empty when Valid).
  AnalysisResult Analysis;
};

} // namespace

Result<GenResult> narada::gen::generateSeedCorpus(
    const std::string &LibrarySource, const GenOptions &Options) {
  obs::Span GenSpan("pipeline.gen");
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();

  // Compile once to strip hand-written tests: the zero-seed contract is
  // that generation sees only the library classes.
  Result<CompiledProgram> Initial = compileProgram(LibrarySource);
  if (!Initial)
    return Error("gen: library does not compile: " + Initial.error().str());
  std::string LibOnly;
  for (const auto &Class : Initial->Ast->Classes)
    LibOnly += printClass(*Class) + "\n";

  // Compiled once: every candidate is added to this module's tests.
  Result<CompiledProgram> Compiled = compileProgram(LibOnly);
  if (!Compiled)
    return Error("gen: internal: stripped library failed to recompile: " +
                 Compiled.error().str());
  CompiledProgram &Lib = *Compiled;
  const ProgramInfo &Info = *Lib.Info;

  // Static steering: target the suspicious pairs no generated pair covers.
  staticrace::ModuleSummary Summary = staticrace::summarizeModule(*Lib.Module);
  std::vector<SteerTarget> Targets =
      collectSteerTargets(Summary, Options.FocusClass);
  Metrics.counter("gen.static_targets").inc(Targets.size());

  ApiModel Model = extractApiModel(Info, &Summary);

  GenResult Out;
  CorpusCoverage Cov(Options.FocusClass);
  std::set<std::string> CoveredTargets;

  const unsigned Workers = resolveJobs(Options.Jobs);

  for (unsigned Round = 0; Round < Options.Rounds; ++Round) {
    Metrics.counter("gen.rounds").inc();

    // Steering: entry methods of still-uncovered targets weigh more, so
    // later rounds spend their budget where the static analysis says a
    // race may hide that no generated pair reaches yet.
    MethodWeights Weights;
    for (const SteerTarget &T : Targets) {
      if (CoveredTargets.count(T.Key))
        continue;
      Weights[T.SymA] += 4;
      Weights[T.SymB] += 4;
    }

    // Emit phase: serial, one private split RNG per candidate, so the
    // candidate texts depend only on (Seed, Round, Index).
    std::vector<Candidate> Candidates;
    for (unsigned I = 0; I < Options.Budget; ++I) {
      unsigned Global = Round * Options.Budget + I;
      Candidate C;
      C.Round = Round;
      C.Index = I;
      C.Global = Global;
      C.Name =
          "gen_r" + std::to_string(Round) + "_c" + std::to_string(I);
      try {
        fault::ScopedUnit Unit(Global);
        fault::probe("gen.emit");
        RNG R(candidateSeed(Options.Seed, Round, I));
        // The first two candidates of every round are API sweeps — the
        // construct-populate-exercise shape hand-written suites have,
        // which random chains only reach by luck.  Argument pooling still
        // varies with the candidate RNG, so sweeps differ across rounds.
        C.Source =
            I < 2 ? generateSweepSeedTest(Model, Options.FocusClass, C.Name, R)
                  : generateSeedTest(Model, Options.FocusClass, Weights,
                                     C.Name, R);
      } catch (const std::exception &Ex) {
        Out.Quarantined.push_back({Round, Global, "emit", Ex.what()});
        continue;
      }
      Metrics.counter("gen.candidates").inc();
      Candidates.push_back(std::move(C));
    }

    // Validate phase: each candidate is added to the library module here,
    // serially, so the parallel runs below only read the module; they are
    // committed in candidate order — the same fan-out/serial-commit split
    // runSynthesisStage uses, so the corpus is byte-identical at every job
    // count.
    std::vector<Validation> Checks(Candidates.size());
    for (size_t Idx = 0; Idx < Candidates.size(); ++Idx)
      if (Status Added = compileTestsInto(Lib, Candidates[Idx].Source); !Added)
        Checks[Idx].Error = "does not compile: " + Added.error().str();
    std::vector<ItemFailure> Failures =
        parallelFor(Candidates.size(), Workers, [&](size_t Idx, unsigned) {
          const Candidate &C = Candidates[Idx];
          fault::ScopedUnit Unit(C.Global);
          fault::probe("gen.run");
          Validation &V = Checks[Idx];
          if (!V.Error.empty())
            return;
          // The first run records nothing, so a rejected candidate leaves
          // no trace behind.  A clean one runs again, recorded, for its
          // analysis: the VM is deterministic, so that run is the first.
          RoundRobinPolicy Policy;
          Result<TestRun> Run =
              runTest(*Lib.Module, C.Name, Policy, /*RandSeed=*/1,
                      /*Extra=*/nullptr, ValidationStepBudget);
          if (!Run) {
            V.Error = "failed to run: " + Run.error().str();
            return;
          }
          if (Run->Result.Faulted || Run->Result.Deadlocked ||
              Run->Result.HitStepLimit) {
            V.Error = Run->Result.Faulted ? "faulted"
                      : Run->Result.Deadlocked ? "deadlocked"
                                               : "hit step limit";
            return;
          }
          Run = runTestSequential(*Lib.Module, C.Name);
          V.Analysis = analyzeTrace(Run->TheTrace, Info);
          V.Valid = true;
        });
    for (ItemFailure &F : Failures) {
      const Candidate &C = Candidates[F.Item];
      Checks[F.Item] = Validation{}; // Partial state is not trusted.
      Out.Quarantined.push_back(
          {Round, C.Global, "run", describeException(F.Error)});
    }

    // Commit phase: walk candidates in emission order; keep one iff its
    // analysis grows the covered pair keys or the setter/return material
    // the context deriver mines.
    for (size_t Idx = 0; Idx < Candidates.size(); ++Idx) {
      const Candidate &C = Candidates[Idx];
      Validation &V = Checks[Idx];
      if (!V.Valid) {
        if (!V.Error.empty())
          Metrics.counter("gen.candidates_faulty").inc();
        continue;
      }
      Metrics.counter("gen.candidates_valid").inc();
      if (!Cov.keepIfGrows(std::move(V.Analysis))) {
        Metrics.counter("gen.candidates_redundant").inc();
        continue;
      }
      Out.Seeds.push_back({C.Name, C.Source});
    }

    // Steering update: mark targets some generated pair now reaches.
    if (!Targets.empty()) {
      PairGenOptions PairOptions;
      PairOptions.FocusClass = Options.FocusClass;
      std::set<std::string> PairCoords;
      for (const RacyPair &Pair : generatePairs(Cov.merged(), PairOptions))
        PairCoords.insert(targetKey(
            sideCoord(methodSymbol(Pair.First.ClassName, Pair.First.Method),
                      Pair.First.AccessLabel),
            sideCoord(methodSymbol(Pair.Second.ClassName, Pair.Second.Method),
                      Pair.Second.AccessLabel)));
      for (const SteerTarget &T : Targets)
        if (PairCoords.count(T.Key))
          CoveredTargets.insert(T.Key);
    }
  }

  // Reduction: greedy backward elimination.  A seed is dropped only when
  // the remaining corpus covers the identical pair/setter/return sets, so
  // reduction can never shrink coverage (tests/property_test.cpp).  Seeds
  // after the victim are already decided, so its position is its id.
  if (Options.Reduce) {
    for (size_t Victim = Out.Seeds.size();
         Victim-- > 0 && Out.Seeds.size() > 1;) {
      if (!Cov.dropIfRedundant(Victim))
        continue;
      Out.Seeds.erase(Out.Seeds.begin() + Victim);
      Metrics.counter("gen.seeds_reduced").inc();
    }
  }

  Out.CorpusSource = LibOnly;
  for (const GenSeed &Seed : Out.Seeds) {
    Out.CorpusSource += "\n" + Seed.Source;
    Out.SeedNames.push_back(Seed.Name);
  }
  Out.PairKeys = Cov.pairKeys();
  Out.StaticTargets = static_cast<unsigned>(Targets.size());
  Out.StaticTargetsCovered = static_cast<unsigned>(CoveredTargets.size());

  std::sort(Out.Quarantined.begin(), Out.Quarantined.end(),
            [](const GenQuarantine &A, const GenQuarantine &B) {
              return A.Candidate < B.Candidate;
            });

  Metrics.counter("gen.seeds_kept").inc(Out.Seeds.size());
  Metrics.counter("gen.pairs_covered").inc(Out.PairKeys.size());
  Metrics.counter("gen.static_targets_covered").inc(Out.StaticTargetsCovered);
  Metrics.counter("gen.quarantined").inc(Out.Quarantined.size());

  // The kept candidates were added to the library one text at a time; one
  // final compile of the assembled corpus keeps the contract airtight
  // before runNarada sees it.
  if (!Out.Seeds.empty()) {
    Result<CompiledProgram> Final = compileProgram(Out.CorpusSource);
    if (!Final)
      return Error("gen: internal: assembled corpus failed to compile: " +
                   Final.error().str());
  }
  return Out;
}
