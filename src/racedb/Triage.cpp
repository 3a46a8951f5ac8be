//===- racedb/Triage.cpp - Race database ingest, diff, and gate ----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "racedb/Triage.h"

#include "obs/Metrics.h"
#include "support/Parallel.h"
#include "support/RaceKey.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

using namespace narada;
using namespace narada::racedb;

Result<RunObservation> racedb::observationFromReportText(
    std::string_view Text) {
  Result<obs::ParsedRunReport> Parsed = obs::parseRunReport(Text);
  if (!Parsed)
    return Parsed.error();
  RunObservation Obs;
  Obs.Input = Parsed->Meta.Input;
  Obs.DetectionRan = Parsed->Meta.RecordRaces;
  Obs.Races = std::move(Parsed->Meta.Races);
  for (const auto &[Key, Value] : Parsed->Meta.Options)
    if (Key == "source_digest")
      Obs.SourceDigest = Value;
  return Obs;
}

Result<RunObservation> racedb::observationFromReportFile(
    const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Error("cannot open report file '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Result<RunObservation> Obs = observationFromReportText(Buffer.str());
  if (!Obs)
    return Error("report file '" + Path + "': " + Obs.error().str());
  return Obs;
}

namespace {

/// Recomputes a record's certification from its accumulated evidence.
Certification certify(const RaceRecord &R) {
  const bool Static = R.StaticVerdict == "MustRace";
  if (Static && R.Reproduced)
    return Certification::CertifiedBoth;
  if (Static)
    return Certification::CertifiedStatic;
  if (R.Reproduced)
    return Certification::CertifiedDynamic;
  return Certification::None;
}

/// Verdict merge: keep the strongest static claim seen across runs
/// (MustRace > MayRace > Unknown > MustGuarded > none).
int verdictRank(const std::string &Name) {
  if (Name == "MustRace")
    return 0;
  if (Name == "MayRace")
    return 1;
  if (Name == "Unknown")
    return 2;
  if (Name == "MustGuarded")
    return 3;
  return 4;
}

void tally(const RaceDb &Db, IngestStats &Stats) {
  Stats.New = Stats.Persisting = Stats.Resolved = Stats.Regressed = 0;
  for (const auto &[Key, R] : Db.Races) {
    (void)Key;
    switch (R.State) {
    case Lifecycle::New:
      ++Stats.New;
      break;
    case Lifecycle::Persisting:
      ++Stats.Persisting;
      break;
    case Lifecycle::Resolved:
      ++Stats.Resolved;
      break;
    case Lifecycle::Regressed:
      ++Stats.Regressed;
      break;
    }
  }
}

} // namespace

IngestStats racedb::ingest(RaceDb &Db,
                           const std::vector<RunObservation> &Runs) {
  IngestStats Stats;
  for (const RunObservation &Run : Runs) {
    if (!Run.DetectionRan)
      continue; // Nothing to learn from a detection-less run.
    const uint64_t RunId = Db.NextRunId++;
    ++Stats.Reports;
    std::set<std::string> SeenKeys;
    for (const obs::RaceEntry &E : Run.Races) {
      ++Stats.RacesSeen;
      bool Migrated = false;
      std::optional<std::string> Key = canonicalRaceKey(E.Key, Migrated);
      if (!Key)
        continue; // An unparseable key cannot form a stable identity.
      if (Migrated)
        ++Stats.KeysMigrated;
      SeenKeys.insert(*Key);
      auto [It, Inserted] = Db.Races.try_emplace(*Key);
      RaceRecord &R = It->second;
      if (Inserted) {
        R.Key = *Key;
        if (std::optional<RaceKeyParts> Parts = parseRaceKey(*Key)) {
          R.ClassName = Parts->ClassName;
          R.Field = Parts->Field;
          R.FirstLabel = Parts->FirstLabel;
          R.SecondLabel = Parts->SecondLabel;
        }
        R.Input = Run.Input;
        R.State = Lifecycle::New;
        R.FirstSeenRun = RunId;
        R.FirstSourceDigest = Run.SourceDigest;
      } else {
        R.State = R.State == Lifecycle::Resolved ||
                          R.State == Lifecycle::Regressed
                      ? Lifecycle::Regressed
                      : Lifecycle::Persisting;
      }
      R.LastSeenRun = RunId;
      R.LastSourceDigest = Run.SourceDigest;
      for (const std::string &Detector : E.Detectors)
        R.Detectors.push_back(Detector);
      std::sort(R.Detectors.begin(), R.Detectors.end());
      R.Detectors.erase(
          std::unique(R.Detectors.begin(), R.Detectors.end()),
          R.Detectors.end());
      if (!E.StaticVerdict.empty() &&
          verdictRank(E.StaticVerdict) < verdictRank(R.StaticVerdict))
        R.StaticVerdict = E.StaticVerdict;
      if (!E.Witness.empty())
        R.WitnessPath = E.Witness;
      R.Reproduced = R.Reproduced || E.Reproduced;
      R.Harmful = R.Harmful || E.Harmful;
      R.WriteWrite = R.WriteWrite || E.WriteWrite;
      R.Cert = certify(R);
    }
    // Resolution pass, scoped to this run's input: a record this very run
    // should have re-found but did not has been fixed (or lost).
    for (auto &[Key, R] : Db.Races) {
      if (R.Input != Run.Input || SeenKeys.count(Key))
        continue;
      if (R.State != Lifecycle::Resolved)
        R.State = Lifecycle::Resolved;
    }
  }
  tally(Db, Stats);
  obs::MetricsRegistry &M = obs::MetricsRegistry::global();
  M.counter("triage.reports_ingested").inc(Stats.Reports);
  if (Stats.KeysMigrated)
    M.counter("racedb.keys_migrated").inc(Stats.KeysMigrated);
  M.counter("racedb.races_new").inc(Stats.New);
  M.counter("racedb.races_persisting").inc(Stats.Persisting);
  M.counter("racedb.races_resolved").inc(Stats.Resolved);
  M.counter("racedb.races_regressed").inc(Stats.Regressed);
  return Stats;
}

Result<IngestStats> racedb::ingestReportFiles(
    RaceDb &Db, const std::vector<std::string> &Paths, unsigned Jobs) {
  // Parse in parallel, commit sequentially in argv order: run ids and db
  // contents are then independent of the worker count by construction.
  std::vector<Result<RunObservation>> Parsed(Paths.size(),
                                             Result<RunObservation>(Error("")));
  std::vector<ItemFailure> Failures =
      parallelFor(Paths.size(), resolveJobs(Jobs), [&](size_t I, unsigned) {
        Parsed[I] = observationFromReportFile(Paths[I]);
      });
  if (!Failures.empty())
    return Error("report parsing failed internally");
  std::vector<RunObservation> Runs;
  Runs.reserve(Paths.size());
  for (Result<RunObservation> &Obs : Parsed) {
    if (!Obs)
      return Obs.error();
    Runs.push_back(Obs.take());
  }
  return ingest(Db, Runs);
}

GateResult racedb::gate(const RaceDb &Baseline,
                        const std::vector<RunObservation> &Runs) {
  // Snapshot what the baseline vouched for before the scratch ingest.
  std::map<std::string, Certification> BaselineCerts;
  for (const auto &[Key, R] : Baseline.Races)
    BaselineCerts[Key] = R.Cert;

  GateResult Out;
  RaceDb Scratch = Baseline;
  Out.Stats = ingest(Scratch, Runs);
  for (const auto &[Key, R] : Scratch.Races) {
    auto InBaseline = BaselineCerts.find(Key);
    if (InBaseline == BaselineCerts.end()) {
      Out.Failures.push_back("new race not in baseline: " + Key);
      continue;
    }
    if (R.State == Lifecycle::Regressed) {
      Out.Failures.push_back("regressed: " + Key);
      continue;
    }
    if (R.State == Lifecycle::Resolved &&
        InBaseline->second != Certification::None)
      Out.Failures.push_back(
          std::string("lost certified race (") +
          certificationName(InBaseline->second) + "): " + Key);
  }
  std::sort(Out.Failures.begin(), Out.Failures.end());
  Out.Ok = Out.Failures.empty();
  if (!Out.Ok)
    obs::MetricsRegistry::global()
        .counter("triage.gate_failures")
        .inc(Out.Failures.size());
  return Out;
}

//===----------------------------------------------------------------------===//
// CLI
//===----------------------------------------------------------------------===//

namespace {

int triageUsage() {
  std::fprintf(
      stderr,
      "usage: narada-cli triage <subcommand> ...\n"
      "  triage ingest --db <file> [--jobs N] <report.json>...\n"
      "      fold run reports into the database (created if missing)\n"
      "  triage query --db <file> [--state <S>] [--input <I>]\n"
      "      list records, one line each, sorted by key\n"
      "  triage diff <old.db> <new.db>\n"
      "      structural difference between two databases\n"
      "  triage gate --baseline <db> [--jobs N] <report.json>...\n"
      "      exit 1 on any regressed, unknown, or lost certified race\n");
  return 2;
}

struct TriageArgs {
  std::string Db;
  std::string State;
  std::string Input;
  unsigned Jobs = 1;
  std::vector<std::string> Positional;
};

bool parseTriageArgs(int Argc, char **Argv, int Start, TriageArgs &Out) {
  for (int I = Start; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "triage: %s requires a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    if (Arg == "--db" || Arg == "--baseline") {
      const char *V = Value(Arg.c_str());
      if (!V)
        return false;
      Out.Db = V;
    } else if (Arg == "--state") {
      const char *V = Value("--state");
      if (!V)
        return false;
      Out.State = V;
    } else if (Arg == "--input") {
      const char *V = Value("--input");
      if (!V)
        return false;
      Out.Input = V;
    } else if (Arg == "--jobs") {
      const char *V = Value("--jobs");
      if (!V || !parseJobs(V, Out.Jobs)) {
        std::fprintf(stderr, "triage: bad --jobs value\n");
        return false;
      }
    } else if (Arg.size() >= 2 && Arg[0] == '-' && Arg[1] == '-') {
      std::fprintf(stderr, "triage: unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      Out.Positional.push_back(Arg);
    }
  }
  return true;
}

/// Loads a db file that may not exist yet (fresh ingest target).
Result<RaceDb> loadOrFresh(const std::string &Path) {
  std::ifstream Probe(Path);
  if (!Probe)
    return RaceDb();
  Probe.close();
  return loadRaceDb(Path);
}

std::string recordLine(const RaceRecord &R) {
  std::string Line =
      formatString("[%-10s] %s", lifecycleName(R.State), R.Key.c_str());
  Line += formatString("  cert=%s class=%s runs=%llu..%llu",
                       certificationName(R.Cert),
                       R.classification().c_str(),
                       static_cast<unsigned long long>(R.FirstSeenRun),
                       static_cast<unsigned long long>(R.LastSeenRun));
  if (!R.StaticVerdict.empty())
    Line += " static=" + R.StaticVerdict;
  if (!R.Detectors.empty()) {
    Line += " detectors=";
    for (size_t I = 0; I < R.Detectors.size(); ++I)
      Line += (I ? "," : "") + R.Detectors[I];
  }
  if (!R.Input.empty())
    Line += " input=" + R.Input;
  if (!R.WitnessPath.empty())
    Line += " witness=" + R.WitnessPath;
  return Line;
}

int cmdIngest(const TriageArgs &Args) {
  if (Args.Db.empty() || Args.Positional.empty()) {
    std::fprintf(stderr,
                 "triage ingest: --db <file> and at least one report "
                 "are required\n");
    return 2;
  }
  Result<RaceDb> Db = loadOrFresh(Args.Db);
  if (!Db) {
    std::fprintf(stderr, "error: %s\n", Db.error().str().c_str());
    return 1;
  }
  Result<IngestStats> Stats =
      ingestReportFiles(*Db, Args.Positional, Args.Jobs);
  if (!Stats) {
    std::fprintf(stderr, "error: %s\n", Stats.error().str().c_str());
    return 1;
  }
  if (!saveRaceDb(Args.Db, *Db)) {
    std::fprintf(stderr, "error: cannot write db '%s'\n", Args.Db.c_str());
    return 1;
  }
  std::printf("ingested %llu report(s) into %s: %zu race record(s) "
              "(%llu new, %llu persisting, %llu resolved, %llu regressed)\n",
              static_cast<unsigned long long>(Stats->Reports),
              Args.Db.c_str(), Db->Races.size(),
              static_cast<unsigned long long>(Stats->New),
              static_cast<unsigned long long>(Stats->Persisting),
              static_cast<unsigned long long>(Stats->Resolved),
              static_cast<unsigned long long>(Stats->Regressed));
  if (Stats->KeysMigrated)
    std::printf("migrated %llu legacy key(s)\n",
                static_cast<unsigned long long>(Stats->KeysMigrated));
  return 0;
}

int cmdQuery(const TriageArgs &Args) {
  if (Args.Db.empty()) {
    std::fprintf(stderr, "triage query: --db <file> is required\n");
    return 2;
  }
  Result<RaceDb> Db = loadRaceDb(Args.Db);
  if (!Db) {
    std::fprintf(stderr, "error: %s\n", Db.error().str().c_str());
    return 1;
  }
  size_t Shown = 0;
  for (const auto &[Key, R] : Db->Races) {
    (void)Key;
    if (!Args.State.empty() && Args.State != lifecycleName(R.State))
      continue;
    if (!Args.Input.empty() && Args.Input != R.Input)
      continue;
    std::printf("%s\n", recordLine(R).c_str());
    ++Shown;
  }
  std::printf("%zu of %zu record(s)\n", Shown, Db->Races.size());
  return 0;
}

int cmdDiff(const TriageArgs &Args) {
  if (Args.Positional.size() != 2) {
    std::fprintf(stderr, "triage diff: exactly two db files required\n");
    return 2;
  }
  Result<RaceDb> Old = loadRaceDb(Args.Positional[0]);
  if (!Old) {
    std::fprintf(stderr, "error: %s\n", Old.error().str().c_str());
    return 1;
  }
  Result<RaceDb> New = loadRaceDb(Args.Positional[1]);
  if (!New) {
    std::fprintf(stderr, "error: %s\n", New.error().str().c_str());
    return 1;
  }
  size_t Changes = 0;
  for (const auto &[Key, R] : Old->Races)
    if (!New->Races.count(Key)) {
      std::printf("only in old: %s [%s]\n", Key.c_str(),
                  lifecycleName(R.State));
      ++Changes;
    }
  for (const auto &[Key, R] : New->Races) {
    auto InOld = Old->Races.find(Key);
    if (InOld == Old->Races.end()) {
      std::printf("only in new: %s [%s]\n", Key.c_str(),
                  lifecycleName(R.State));
      ++Changes;
      continue;
    }
    if (InOld->second.State != R.State) {
      std::printf("state changed: %s %s -> %s\n", Key.c_str(),
                  lifecycleName(InOld->second.State),
                  lifecycleName(R.State));
      ++Changes;
    }
    if (InOld->second.Cert != R.Cert) {
      std::printf("cert changed: %s %s -> %s\n", Key.c_str(),
                  certificationName(InOld->second.Cert),
                  certificationName(R.Cert));
      ++Changes;
    }
  }
  std::printf("%zu difference(s)\n", Changes);
  return Changes ? 1 : 0;
}

int cmdGate(const TriageArgs &Args) {
  if (Args.Db.empty() || Args.Positional.empty()) {
    std::fprintf(stderr,
                 "triage gate: --baseline <db> and at least one report "
                 "are required\n");
    return 2;
  }
  Result<RaceDb> Baseline = loadRaceDb(Args.Db);
  if (!Baseline) {
    std::fprintf(stderr, "error: %s\n", Baseline.error().str().c_str());
    return 1;
  }
  std::vector<RunObservation> Runs;
  for (const std::string &Path : Args.Positional) {
    Result<RunObservation> Obs = observationFromReportFile(Path);
    if (!Obs) {
      std::fprintf(stderr, "error: %s\n", Obs.error().str().c_str());
      return 1;
    }
    Runs.push_back(Obs.take());
  }
  GateResult Result = gate(*Baseline, Runs);
  if (Result.Ok) {
    std::printf("gate: OK (%llu report(s), %llu persisting race(s))\n",
                static_cast<unsigned long long>(Result.Stats.Reports),
                static_cast<unsigned long long>(Result.Stats.Persisting));
    return 0;
  }
  std::printf("gate: FAILED (%zu problem(s))\n", Result.Failures.size());
  for (const std::string &Failure : Result.Failures)
    std::printf("  %s\n", Failure.c_str());
  return 1;
}

} // namespace

int racedb::runTriage(int Argc, char **Argv) {
  if (Argc < 3)
    return triageUsage();
  const std::string Sub = Argv[2];
  TriageArgs Args;
  if (!parseTriageArgs(Argc, Argv, 3, Args))
    return 2;
  if (Sub == "ingest")
    return cmdIngest(Args);
  if (Sub == "query")
    return cmdQuery(Args);
  if (Sub == "diff")
    return cmdDiff(Args);
  if (Sub == "gate")
    return cmdGate(Args);
  std::fprintf(stderr, "triage: unknown subcommand '%s'\n", Sub.c_str());
  return triageUsage();
}
