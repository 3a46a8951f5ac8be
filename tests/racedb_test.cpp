//===- tests/racedb_test.cpp - Race database and triage engine -----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The race database's correctness contract (src/racedb/, docs/TRIAGE.md):
//
//  1. Identity: race keys are collision-free under escaping, the strict
//     parser inverts makeRaceKey exactly, and pre-escaping keys migrate
//     once on load.
//  2. Persistence: databases round-trip byte-identically; a bad magic,
//     unsupported version, truncated frame, or malformed record fails the
//     whole load (all-or-nothing, like serve/CacheFile).
//  3. Triage: the lifecycle advances New -> Persisting -> Resolved ->
//     Regressed with input-scoped resolution; certification cross-checks
//     the static MustRace fragment against dynamic confirmation; ingest
//     is byte-identical at any --jobs; the gate fails on regressions and
//     lost certified races and passes a clean re-ingest.
//  4. MustRace soundness: every corpus race the certifier marks MustRace
//     is dynamically reproduced, and certification never contradicts a
//     MustGuarded classification.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "detect/Detection.h"
#include "obs/Metrics.h"
#include "obs/RunReport.h"
#include "racedb/RaceDb.h"
#include "racedb/Triage.h"
#include "staticrace/LocksetAnalysis.h"
#include "staticrace/PairClassifier.h"
#include "support/RaceKey.h"
#include "support/Wire.h"
#include "synth/Narada.h"
#include "synth/PairGenerator.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace narada;
using namespace narada::racedb;

namespace {

std::string tempPath(const std::string &Tag) {
  std::string Path = ::testing::TempDir() + "racedb_test_" + Tag + "_" +
                     std::to_string(::getpid());
  ::unlink(Path.c_str());
  return Path;
}

//===----------------------------------------------------------------------===//
// Race key escaping, parsing, migration.
//===----------------------------------------------------------------------===//

TEST(RaceKeyTest, PlainKeysAreIdentityEncoded) {
  // Every shape the corpus produces today must encode byte-identically to
  // the historical raw concatenation — reports and goldens do not drift.
  EXPECT_EQ(makeRaceKey("Buffer", "count", "Buffer.put:3", "Buffer.take:1"),
            "Buffer.count{Buffer.put:3~Buffer.take:1}");
  // Labels sort as an unordered pair.
  EXPECT_EQ(makeRaceKey("Buffer", "count", "Buffer.take:1", "Buffer.put:3"),
            "Buffer.count{Buffer.put:3~Buffer.take:1}");
  // Element races carry an empty class and field.
  EXPECT_EQ(makeRaceKey("", "", "A.m:0", "A.m:1"), ".{A.m:0~A.m:1}");
  // Labels keep raw dots and colons.
  std::optional<RaceKeyParts> Parts =
      parseRaceKey("Buffer.count{Buffer.put:3~Buffer.take:1}");
  ASSERT_TRUE(Parts.has_value());
  EXPECT_EQ(Parts->ClassName, "Buffer");
  EXPECT_EQ(Parts->Field, "count");
  EXPECT_EQ(Parts->FirstLabel, "Buffer.put:3");
  EXPECT_EQ(Parts->SecondLabel, "Buffer.take:1");
}

TEST(RaceKeyTest, HostileComponentsRoundTrip) {
  // Components containing every metacharacter must survive a make/parse
  // round trip — the raw concatenation was ambiguous exactly here.
  RaceKeyParts Hostile;
  Hostile.ClassName = "Outer.Inner{x}";
  Hostile.Field = "weird~field\\";
  Hostile.FirstLabel = "a{0~b";
  Hostile.SecondLabel = "c}d";
  const std::string Key = makeRaceKey(Hostile);
  std::optional<RaceKeyParts> Back = parseRaceKey(Key);
  ASSERT_TRUE(Back.has_value()) << Key;
  EXPECT_EQ(Back->ClassName, Hostile.ClassName);
  EXPECT_EQ(Back->Field, Hostile.Field);
  // makeRaceKey sorts the labels; the set must survive.
  std::set<std::string> Want{Hostile.FirstLabel, Hostile.SecondLabel};
  std::set<std::string> Got{Back->FirstLabel, Back->SecondLabel};
  EXPECT_EQ(Got, Want);

  // Two identities the raw format would have collided now differ.
  EXPECT_NE(makeRaceKey("C", "f", "a~x", "b"),
            makeRaceKey("C", "f", "a", "x~b"));
}

TEST(RaceKeyTest, StrictParseRejectsMalformedKeys) {
  EXPECT_FALSE(parseRaceKey("").has_value());
  EXPECT_FALSE(parseRaceKey("noshape").has_value());
  EXPECT_FALSE(parseRaceKey("C.f{a~b}trailing").has_value());
  EXPECT_FALSE(parseRaceKey("C.f{a~b").has_value());   // Unterminated.
  EXPECT_FALSE(parseRaceKey("C.f{a}").has_value());    // No label pair.
  EXPECT_FALSE(parseRaceKey("C.f{x{1~y}").has_value()) // Unescaped '{'.
      << "legacy shape must not strict-parse";
  EXPECT_FALSE(parseRaceKey("C.f{a~b\\").has_value()); // Dangling escape.
}

TEST(RaceKeyTest, LegacyKeysCanonicalize) {
  bool Migrated = true;
  // Already-canonical keys pass through byte-identical, not migrated.
  std::optional<std::string> Same =
      canonicalRaceKey("Buffer.count{Buffer.put:3~Buffer.take:1}", Migrated);
  ASSERT_TRUE(Same.has_value());
  EXPECT_EQ(*Same, "Buffer.count{Buffer.put:3~Buffer.take:1}");
  EXPECT_FALSE(Migrated);

  // A pre-escaping key with a brace in a label migrates to the escaped
  // encoding exactly once (re-canonicalizing is then the identity).
  std::optional<std::string> Fixed =
      canonicalRaceKey("Box.f{x{1~y}", Migrated);
  ASSERT_TRUE(Fixed.has_value());
  EXPECT_TRUE(Migrated);
  EXPECT_EQ(*Fixed, "Box.f{x\\{1~y}");
  std::optional<std::string> Again = canonicalRaceKey(*Fixed, Migrated);
  ASSERT_TRUE(Again.has_value());
  EXPECT_FALSE(Migrated);
  EXPECT_EQ(*Again, *Fixed);

  // No recognizable shape at all: rejected outright.
  EXPECT_FALSE(canonicalRaceKey("not a key", Migrated).has_value());
}

//===----------------------------------------------------------------------===//
// Database persistence: round trip, corruption, migration.
//===----------------------------------------------------------------------===//

RaceRecord sampleRecord(const std::string &Key) {
  RaceRecord R;
  R.Key = Key;
  if (std::optional<RaceKeyParts> Parts = parseRaceKey(Key)) {
    R.ClassName = Parts->ClassName;
    R.Field = Parts->Field;
    R.FirstLabel = Parts->FirstLabel;
    R.SecondLabel = Parts->SecondLabel;
  }
  R.Input = "corpus:C1";
  R.State = Lifecycle::Persisting;
  R.FirstSeenRun = 1;
  R.LastSeenRun = 3;
  R.FirstSourceDigest = "00ff";
  R.LastSourceDigest = "11ee";
  R.Detectors = {"confirm", "hb"};
  R.StaticVerdict = "MustRace";
  R.WitnessPath = "/tmp/w0.trace";
  R.Reproduced = true;
  R.Harmful = true;
  R.WriteWrite = true;
  R.Cert = Certification::CertifiedBoth;
  return R;
}

TEST(RaceDbFileTest, RoundTripsAndResavesByteIdentically) {
  RaceDb Db;
  Db.NextRunId = 7;
  RaceRecord A = sampleRecord("Buffer.count{Buffer.put:3~Buffer.take:1}");
  RaceRecord B = sampleRecord("Box.f{x\\{1~y}");
  B.State = Lifecycle::Resolved;
  B.Cert = Certification::None;
  B.Reproduced = B.Harmful = B.WriteWrite = false;
  Db.Races[A.Key] = A;
  Db.Races[B.Key] = B;

  const std::string Path = tempPath("roundtrip");
  ASSERT_TRUE(saveRaceDb(Path, Db));
  LoadStats Stats;
  Result<RaceDb> Loaded = loadRaceDb(Path, &Stats);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_EQ(Stats.MigratedKeys, 0u);
  EXPECT_EQ(Loaded->NextRunId, 7u);
  ASSERT_EQ(Loaded->Races.size(), 2u);

  const RaceRecord &LA = Loaded->Races.at(A.Key);
  EXPECT_EQ(LA.ClassName, "Buffer");
  EXPECT_EQ(LA.Field, "count");
  EXPECT_EQ(LA.Input, A.Input);
  EXPECT_EQ(LA.State, Lifecycle::Persisting);
  EXPECT_EQ(LA.FirstSeenRun, 1u);
  EXPECT_EQ(LA.LastSeenRun, 3u);
  EXPECT_EQ(LA.FirstSourceDigest, "00ff");
  EXPECT_EQ(LA.LastSourceDigest, "11ee");
  EXPECT_EQ(LA.Detectors, A.Detectors);
  EXPECT_EQ(LA.StaticVerdict, "MustRace");
  EXPECT_EQ(LA.WitnessPath, A.WitnessPath);
  EXPECT_TRUE(LA.Reproduced);
  EXPECT_TRUE(LA.Harmful);
  EXPECT_TRUE(LA.WriteWrite);
  EXPECT_EQ(LA.Cert, Certification::CertifiedBoth);

  // The loaded value renders to the exact bytes on disk: save/load/save
  // is a fixed point, which is what the ingest byte-identity acceptance
  // rests on.
  EXPECT_EQ(renderRaceDb(*Loaded), renderRaceDb(Db));
  ::unlink(Path.c_str());
}

TEST(RaceDbFileTest, FailedSaveKeepsThePreviousFile) {
  auto FileBytes = [](const std::string &Path) {
    std::ifstream In(Path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In), {});
  };
  RaceDb Db;
  RaceRecord A = sampleRecord("Buffer.count{Buffer.put:3~Buffer.take:1}");
  Db.Races[A.Key] = A;
  const std::string Path = tempPath("durable");
  const std::string TempPath = Path + ".tmp";
  ASSERT_TRUE(saveRaceDb(Path, Db));
  EXPECT_NE(::access(TempPath.c_str(), F_OK), 0)
      << "a successful save leaves no temp file";
  const std::string Before = FileBytes(Path);

  // A directory in the temp file's place: the save cannot even begin.
  ASSERT_EQ(::mkdir(TempPath.c_str(), 0755), 0);
  RaceRecord B = sampleRecord("Box.f{x\\{1~y}");
  Db.Races[B.Key] = B;
  EXPECT_FALSE(saveRaceDb(Path, Db));
  ::rmdir(TempPath.c_str());

  EXPECT_EQ(FileBytes(Path), Before);
  Result<RaceDb> Loaded = loadRaceDb(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_EQ(Loaded->Races.size(), 1u);
  ::unlink(Path.c_str());
}

/// Writes raw frames to \p Path: a header plus \p Extra.
void writeDbFile(const std::string &Path,
                 const std::vector<std::string> &Frames) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(Fd, 0);
  for (const std::string &Frame : Frames)
    ASSERT_TRUE(wire::writeFrame(Fd, Frame));
  ::close(Fd);
}

std::string dbHeader(const std::string &Magic, uint64_t Version) {
  wire::RecordWriter Header;
  Header.add("magic", Magic);
  Header.add("version", Version);
  Header.add("next_run_id", uint64_t{1});
  return Header.str();
}

TEST(RaceDbFileTest, BadMagicFailsTheLoad) {
  const std::string Path = tempPath("badmagic");
  writeDbFile(Path, {dbHeader("narada.serve_cache", 1)});
  Result<RaceDb> Loaded = loadRaceDb(Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.error().str().find("magic"), std::string::npos);
  ::unlink(Path.c_str());
}

TEST(RaceDbFileTest, UnsupportedVersionFailsTheLoad) {
  const std::string Path = tempPath("badversion");
  writeDbFile(Path, {dbHeader("narada.racedb", 99)});
  Result<RaceDb> Loaded = loadRaceDb(Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.error().str().find("version"), std::string::npos);
  ::unlink(Path.c_str());
}

TEST(RaceDbFileTest, TruncatedOrMalformedFramesFailTheLoad) {
  // Truncated record frame after a valid header: all-or-nothing.
  const std::string Path = tempPath("truncated");
  {
    int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(wire::writeFrame(Fd, dbHeader("narada.racedb", 1)));
    const unsigned char Partial[] = {0x40, 0x00, 0x00, 0x00, 'k'};
    ASSERT_EQ(::write(Fd, Partial, sizeof(Partial)),
              static_cast<ssize_t>(sizeof(Partial)));
    ::close(Fd);
  }
  EXPECT_FALSE(loadRaceDb(Path).hasValue());

  // A record with a bad lifecycle state fails, leaving no partial db.
  wire::RecordWriter Bad;
  Bad.add("kind", std::string_view("race"));
  Bad.add("key", std::string_view("C.f{a~b}"));
  Bad.add("state", std::string_view("Zombie"));
  Bad.add("cert", std::string_view("none"));
  writeDbFile(Path, {dbHeader("narada.racedb", 1), Bad.str()});
  Result<RaceDb> Loaded = loadRaceDb(Path);
  ASSERT_FALSE(Loaded.hasValue());
  EXPECT_NE(Loaded.error().str().find("lifecycle"), std::string::npos);

  // An unknown frame kind fails too.
  wire::RecordWriter Unknown;
  Unknown.add("kind", std::string_view("mystery"));
  writeDbFile(Path, {dbHeader("narada.racedb", 1), Unknown.str()});
  EXPECT_FALSE(loadRaceDb(Path).hasValue());
  ::unlink(Path.c_str());
}

TEST(RaceDbFileTest, LegacyKeysMigrateOnLoad) {
  // A database written before escaping existed: the loader canonicalizes
  // the key, reports the migration, and a re-save sticks.
  const std::string Path = tempPath("legacy");
  wire::RecordWriter Rec;
  Rec.add("kind", std::string_view("race"));
  Rec.add("key", std::string_view("Box.f{x{1~y}")); // Pre-escaping bytes.
  Rec.add("input", std::string_view("corpus:C1"));
  Rec.add("state", std::string_view("New"));
  Rec.add("cert", std::string_view("none"));
  writeDbFile(Path, {dbHeader("narada.racedb", 1), Rec.str()});

  LoadStats Stats;
  Result<RaceDb> Loaded = loadRaceDb(Path, &Stats);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.error().str();
  EXPECT_EQ(Stats.MigratedKeys, 1u);
  ASSERT_EQ(Loaded->Races.count("Box.f{x\\{1~y}"), 1u);
  const RaceRecord &R = Loaded->Races.at("Box.f{x\\{1~y}");
  EXPECT_EQ(R.ClassName, "Box");
  EXPECT_EQ(R.Field, "f");
  EXPECT_EQ(R.FirstLabel, "x{1");
  EXPECT_EQ(R.SecondLabel, "y");

  // Round two: the migrated db loads cleanly with zero migrations.
  ASSERT_TRUE(saveRaceDb(Path, *Loaded));
  LoadStats Again;
  Result<RaceDb> Reloaded = loadRaceDb(Path, &Again);
  ASSERT_TRUE(Reloaded.hasValue());
  EXPECT_EQ(Again.MigratedKeys, 0u);
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Triage: lifecycle, certification, determinism, gate.
//===----------------------------------------------------------------------===//

obs::RaceEntry race(const std::string &Key, bool Reproduced = false,
                    bool Harmful = false,
                    const std::string &Verdict = std::string()) {
  obs::RaceEntry E;
  E.Key = Key;
  E.Reproduced = Reproduced;
  E.Harmful = Harmful;
  E.StaticVerdict = Verdict;
  return E;
}

RunObservation run(const std::string &Input,
                   std::vector<obs::RaceEntry> Races,
                   const std::string &Digest = "d0") {
  RunObservation Obs;
  Obs.Input = Input;
  Obs.SourceDigest = Digest;
  Obs.DetectionRan = true;
  Obs.Races = std::move(Races);
  return Obs;
}

TEST(TriageLifecycleTest, AdvancesThroughTheStateMachine) {
  const std::string K = "C.f{a~b}";
  RaceDb Db;
  ingest(Db, {run("corpus:C1", {race(K)})});
  ASSERT_EQ(Db.Races.count(K), 1u);
  EXPECT_EQ(Db.Races.at(K).State, Lifecycle::New);
  EXPECT_EQ(Db.Races.at(K).FirstSeenRun, 1u);

  ingest(Db, {run("corpus:C1", {race(K)}, "d1")});
  EXPECT_EQ(Db.Races.at(K).State, Lifecycle::Persisting);
  EXPECT_EQ(Db.Races.at(K).FirstSeenRun, 1u);
  EXPECT_EQ(Db.Races.at(K).LastSeenRun, 2u);
  EXPECT_EQ(Db.Races.at(K).FirstSourceDigest, "d0");
  EXPECT_EQ(Db.Races.at(K).LastSourceDigest, "d1");

  // Absent from a covering run: resolved (the record survives).
  ingest(Db, {run("corpus:C1", {})});
  EXPECT_EQ(Db.Races.at(K).State, Lifecycle::Resolved);

  // Seen after resolution: regressed, and it stays regressed while the
  // race keeps showing up.
  ingest(Db, {run("corpus:C1", {race(K)})});
  EXPECT_EQ(Db.Races.at(K).State, Lifecycle::Regressed);
  ingest(Db, {run("corpus:C1", {race(K)})});
  EXPECT_EQ(Db.Races.at(K).State, Lifecycle::Regressed);

  // Absent again: back to resolved.
  IngestStats Stats = ingest(Db, {run("corpus:C1", {})});
  EXPECT_EQ(Db.Races.at(K).State, Lifecycle::Resolved);
  EXPECT_EQ(Stats.Resolved, 1u);

  // A detection-less observation never advances anything.
  RunObservation NoDetect;
  NoDetect.Input = "corpus:C1";
  NoDetect.DetectionRan = false;
  ingest(Db, {NoDetect});
  EXPECT_EQ(Db.Races.at(K).State, Lifecycle::Resolved);
}

TEST(TriageLifecycleTest, ResolutionIsInputScoped) {
  RaceDb Db;
  ingest(Db, {run("corpus:C1", {race("A.f{x~y}")}),
              run("corpus:C9", {race("B.g{p~q}")})});
  // A C9-only follow-up run must not resolve the C1 race.
  ingest(Db, {run("corpus:C9", {race("B.g{p~q}")})});
  EXPECT_EQ(Db.Races.at("A.f{x~y}").State, Lifecycle::New);
  EXPECT_EQ(Db.Races.at("B.g{p~q}").State, Lifecycle::Persisting);
  // An empty C1 run resolves only the C1 race.
  ingest(Db, {run("corpus:C1", {})});
  EXPECT_EQ(Db.Races.at("A.f{x~y}").State, Lifecycle::Resolved);
  EXPECT_EQ(Db.Races.at("B.g{p~q}").State, Lifecycle::Persisting);
}

TEST(TriageCertifyTest, CertificationAndClassification) {
  RaceDb Db;
  ingest(Db, {run("corpus:C1",
                  {race("A.f{a~b}", /*Reproduced=*/true, /*Harmful=*/false,
                        "MustRace"),
                   race("B.f{a~b}", false, false, "MustRace"),
                   race("C.f{a~b}", true, false, "MayRace"),
                   race("D.f{a~b}", false, false, "Unknown")})});
  EXPECT_EQ(Db.Races.at("A.f{a~b}").Cert, Certification::CertifiedBoth);
  EXPECT_EQ(Db.Races.at("B.f{a~b}").Cert, Certification::CertifiedStatic);
  EXPECT_EQ(Db.Races.at("C.f{a~b}").Cert, Certification::CertifiedDynamic);
  EXPECT_EQ(Db.Races.at("D.f{a~b}").Cert, Certification::None);

  // Certification is cumulative: a later run reproducing B upgrades it.
  ingest(Db, {run("corpus:C1", {race("B.f{a~b}", true)})});
  EXPECT_EQ(Db.Races.at("B.f{a~b}").Cert, Certification::CertifiedBoth);
  // ...and the static verdict merge keeps the strongest one seen.
  EXPECT_EQ(Db.Races.at("B.f{a~b}").StaticVerdict, "MustRace");

  // Harmful-vs-benign buckets.
  RaceDb Buckets;
  obs::RaceEntry WW = race("W.f{a~b}", true);
  WW.WriteWrite = true;
  ingest(Buckets,
         {run("corpus:C1", {race("H.f{a~b}", true, /*Harmful=*/true), WW,
                            race("R.f{a~b}", /*Reproduced=*/true),
                            race("U.f{a~b}")})});
  EXPECT_EQ(Buckets.Races.at("H.f{a~b}").classification(), "harmful");
  EXPECT_EQ(Buckets.Races.at("W.f{a~b}").classification(),
            "harmful-write-write");
  EXPECT_EQ(Buckets.Races.at("R.f{a~b}").classification(),
            "benign-racy-read");
  EXPECT_EQ(Buckets.Races.at("U.f{a~b}").classification(), "unconfirmed");
}

TEST(TriageIngestTest, ReportFilesAreByteIdenticalAcrossJobs) {
  // Four real report documents, written through the production renderer.
  std::vector<std::string> Paths;
  for (int I = 0; I < 4; ++I) {
    obs::RunMeta Meta;
    Meta.Tool = "narada-cli";
    Meta.Command = "detect";
    Meta.Input = "corpus:C" + std::to_string(I + 1);
    Meta.addOption("source_digest", "d" + std::to_string(I));
    obs::RaceEntry E = race("K" + std::to_string(I) + ".f{a~b}",
                            /*Reproduced=*/I % 2 == 0, /*Harmful=*/I == 0,
                            I == 1 ? "MustRace" : "MayRace");
    E.Detectors = {"hb", "confirm"};
    E.Witness = "/tmp/w" + std::to_string(I);
    Meta.addRace(E);
    Meta.addRace(race("Shared.f{a~b}", true));
    const std::string Path = tempPath("report" + std::to_string(I));
    ASSERT_TRUE(obs::writeRunReport(Path, Meta));
    Paths.push_back(Path);
  }

  RaceDb Narrow, Wide;
  Result<IngestStats> S1 = ingestReportFiles(Narrow, Paths, /*Jobs=*/1);
  Result<IngestStats> S4 = ingestReportFiles(Wide, Paths, /*Jobs=*/4);
  ASSERT_TRUE(S1.hasValue()) << S1.error().str();
  ASSERT_TRUE(S4.hasValue()) << S4.error().str();
  EXPECT_EQ(S1->Reports, 4u);
  EXPECT_EQ(renderRaceDb(Narrow), renderRaceDb(Wide));
  // The observation really carried the provenance members through.
  EXPECT_EQ(Narrow.Races.at("K1.f{a~b}").StaticVerdict, "MustRace");
  EXPECT_EQ(Narrow.Races.at("K0.f{a~b}").Detectors,
            (std::vector<std::string>{"confirm", "hb"}));
  EXPECT_EQ(Narrow.Races.at("K0.f{a~b}").WitnessPath, "/tmp/w0");
  EXPECT_EQ(Narrow.Races.at("K2.f{a~b}").FirstSourceDigest, "d2");
  // Shared key seen by all four runs: persisting.
  EXPECT_EQ(Narrow.Races.at("Shared.f{a~b}").State, Lifecycle::Persisting);

  // An unreadable path fails the whole batch before the db is touched.
  RaceDb Untouched;
  std::vector<std::string> WithBad = Paths;
  WithBad.push_back(tempPath("missing"));
  EXPECT_FALSE(ingestReportFiles(Untouched, WithBad, 2).hasValue());
  EXPECT_TRUE(Untouched.Races.empty());
  EXPECT_EQ(Untouched.NextRunId, 1u);

  for (const std::string &Path : Paths)
    ::unlink(Path.c_str());
}

TEST(TriageGateTest, CleanReingestPassesRegressionsFail) {
  const std::string Certified = "A.f{a~b}"; // Reproduced -> certified.
  const std::string Plain = "B.f{a~b}";     // Never confirmed.
  std::vector<obs::RaceEntry> Baseline = {race(Certified, true),
                                          race(Plain)};
  RaceDb Db;
  ingest(Db, {run("corpus:C1", Baseline)});

  // Clean re-ingest: every baseline race persists, gate passes.
  GateResult Clean = gate(Db, {run("corpus:C1", Baseline)});
  EXPECT_TRUE(Clean.Ok) << (Clean.Failures.empty() ? ""
                                                   : Clean.Failures[0]);
  EXPECT_EQ(Clean.Stats.Persisting, 2u);

  // An uncertified race disappearing is a fix, not a failure.
  GateResult Fixed = gate(Db, {run("corpus:C1", {race(Certified, true)})});
  EXPECT_TRUE(Fixed.Ok) << (Fixed.Failures.empty() ? "" : Fixed.Failures[0]);

  // A certified race disappearing is a detection regression.
  GateResult Lost = gate(Db, {run("corpus:C1", {race(Plain)})});
  ASSERT_FALSE(Lost.Ok);
  ASSERT_EQ(Lost.Failures.size(), 1u);
  EXPECT_NE(Lost.Failures[0].find("lost certified race"), std::string::npos);
  EXPECT_NE(Lost.Failures[0].find(Certified), std::string::npos);

  // A race the baseline never triaged fails the gate.
  std::vector<obs::RaceEntry> WithNew = Baseline;
  WithNew.push_back(race("Z.f{p~q}"));
  GateResult Untriaged = gate(Db, {run("corpus:C1", WithNew)});
  ASSERT_FALSE(Untriaged.Ok);
  EXPECT_NE(Untriaged.Failures[0].find("new race not in baseline"),
            std::string::npos);

  // A resolved-in-baseline race reappearing is a regression.
  RaceDb WithResolved = Db;
  ingest(WithResolved, {run("corpus:C1", {race(Certified, true)})});
  ASSERT_EQ(WithResolved.Races.at(Plain).State, Lifecycle::Resolved);
  GateResult Regressed = gate(WithResolved, {run("corpus:C1", Baseline)});
  ASSERT_FALSE(Regressed.Ok);
  ASSERT_EQ(Regressed.Failures.size(), 1u);
  EXPECT_NE(Regressed.Failures[0].find("regressed"), std::string::npos);
  EXPECT_NE(Regressed.Failures[0].find(Plain), std::string::npos);

  // The gate never mutates the baseline it was given.
  EXPECT_EQ(Db.Races.at(Certified).State, Lifecycle::New);
  EXPECT_EQ(Db.NextRunId, 2u);
}

//===----------------------------------------------------------------------===//
// MustRace soundness over the corpus.
//===----------------------------------------------------------------------===//

TEST(MustRaceSoundnessTest, CertifiedRacesReproduceAcrossCorpus) {
  // The completeness counterpart to the MustGuarded soundness check: every
  // pair the certifier marks MustRace must (a) base-classify MayRace —
  // never contradicting MustGuarded — and (b) reproduce dynamically when
  // its race is detected at all.
  unsigned CertifiedPairs = 0, CheckedRaces = 0;
  for (const CorpusEntry &E : corpus()) {
    NaradaOptions Options;
    Options.FocusClass = E.ClassName;
    Options.StaticRank = true;
    Result<NaradaResult> R = runNarada(E.Source, E.SeedNames, Options);
    ASSERT_TRUE(R.hasValue()) << E.Id;

    const staticrace::ModuleSummary Summary =
        staticrace::summarizeModule(*R->Program.Module);
    for (const RacyPair &P : R->Pairs)
      if (P.Verdict == staticrace::PairVerdict::MustRace) {
        ++CertifiedPairs;
        EXPECT_EQ(staticrace::classifyLabelPair(
                      Summary,
                      methodSymbol(P.First.ClassName, P.First.Method),
                      P.First.AccessLabel,
                      methodSymbol(P.Second.ClassName, P.Second.Method),
                      P.Second.AccessLabel),
                  staticrace::PairVerdict::MayRace)
            << E.Id << ": certification must refine MayRace, never "
            << "contradict MustGuarded: " << P.str();
      }

    std::map<std::string, std::string> Verdicts =
        staticVerdictsByRaceKey(R->Pairs);
    std::vector<TestDetectJob> Jobs;
    for (const SynthesizedTestInfo &T : R->Tests)
      Jobs.push_back({T.Name, T.CandidateLabels});
    DetectOptions DOptions;
    Result<std::vector<TestDetectionResult>> Results =
        detectRacesInTests(*R->Program.Module, Jobs, DOptions, /*Jobs=*/1);
    ASSERT_TRUE(Results.hasValue()) << E.Id;
    for (const TestDetectionResult &D : *Results)
      for (const ConfirmedRace &C : D.Races) {
        auto It = Verdicts.find(C.Report.key());
        if (It == Verdicts.end() || It->second != "MustRace")
          continue;
        ++CheckedRaces;
        EXPECT_TRUE(C.Reproduced)
            << E.Id << ": MustRace-certified race failed to reproduce: "
            << C.Report.str();
      }
  }
  // Non-vacuity: the certifier fires on the corpus (C3/C6/C7/C9 today).
  EXPECT_GT(CertifiedPairs, 0u);
  EXPECT_GT(CheckedRaces, 0u);
}

} // namespace
