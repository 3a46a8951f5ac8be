//===- racedb/RaceDb.cpp - Durable race database -------------------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "racedb/RaceDb.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "support/RaceKey.h"
#include "support/Wire.h"

#include <algorithm>

using namespace narada;
using namespace narada::racedb;

namespace {

constexpr const char *Magic = "narada.racedb";
constexpr uint64_t Version = 1;

} // namespace

const char *racedb::lifecycleName(Lifecycle L) {
  switch (L) {
  case Lifecycle::New:
    return "New";
  case Lifecycle::Persisting:
    return "Persisting";
  case Lifecycle::Resolved:
    return "Resolved";
  case Lifecycle::Regressed:
    break;
  }
  return "Regressed";
}

const char *racedb::certificationName(Certification C) {
  switch (C) {
  case Certification::None:
    return "none";
  case Certification::CertifiedStatic:
    return "CertifiedStatic";
  case Certification::CertifiedDynamic:
    return "CertifiedDynamic";
  case Certification::CertifiedBoth:
    break;
  }
  return "CertifiedBoth";
}

std::string RaceRecord::classification() const {
  if (Harmful)
    return "harmful";
  if (WriteWrite)
    return "harmful-write-write";
  if (Reproduced)
    return "benign-racy-read";
  return "unconfirmed";
}

namespace {

bool parseLifecycle(const std::string &Name, Lifecycle &Out) {
  for (Lifecycle L : {Lifecycle::New, Lifecycle::Persisting,
                      Lifecycle::Resolved, Lifecycle::Regressed})
    if (Name == lifecycleName(L)) {
      Out = L;
      return true;
    }
  return false;
}

bool parseCertification(const std::string &Name, Certification &Out) {
  for (Certification C :
       {Certification::None, Certification::CertifiedStatic,
        Certification::CertifiedDynamic, Certification::CertifiedBoth})
    if (Name == certificationName(C)) {
      Out = C;
      return true;
    }
  return false;
}

void encodeRaceFrame(wire::RecordWriter &W, const RaceRecord &R) {
  W.add("kind", std::string_view("race"));
  W.add("key", R.Key);
  W.add("input", R.Input);
  W.add("state", std::string_view(lifecycleName(R.State)));
  W.add("first_seen_run", R.FirstSeenRun);
  W.add("last_seen_run", R.LastSeenRun);
  W.add("first_source_digest", R.FirstSourceDigest);
  W.add("last_source_digest", R.LastSourceDigest);
  for (const std::string &Detector : R.Detectors)
    W.add("detector", Detector);
  W.add("static_verdict", R.StaticVerdict);
  W.add("witness", R.WitnessPath);
  W.addBool("reproduced", R.Reproduced);
  W.addBool("harmful", R.Harmful);
  W.addBool("write_write", R.WriteWrite);
  W.add("cert", std::string_view(certificationName(R.Cert)));
}

Result<RaceRecord> decodeRaceFrame(const wire::RecordReader &In,
                                   LoadStats &Stats) {
  std::optional<std::string> Key = In.get("key");
  if (!Key || Key->empty())
    return Error("racedb race entry has no key");
  RaceRecord R;
  bool Migrated = false;
  std::optional<std::string> Canonical = canonicalRaceKey(*Key, Migrated);
  if (!Canonical)
    return Error("racedb race entry has an unparseable key '" + *Key + "'");
  if (Migrated)
    ++Stats.MigratedKeys;
  R.Key = *Canonical;
  if (std::optional<RaceKeyParts> Parts = parseRaceKey(R.Key)) {
    R.ClassName = Parts->ClassName;
    R.Field = Parts->Field;
    R.FirstLabel = Parts->FirstLabel;
    R.SecondLabel = Parts->SecondLabel;
  }
  R.Input = In.getOr("input", "");
  if (!parseLifecycle(In.getOr("state", ""), R.State))
    return Error("racedb race entry has a bad lifecycle state");
  R.FirstSeenRun = In.getU64("first_seen_run", 0);
  R.LastSeenRun = In.getU64("last_seen_run", 0);
  R.FirstSourceDigest = In.getOr("first_source_digest", "");
  R.LastSourceDigest = In.getOr("last_source_digest", "");
  R.Detectors = In.all("detector");
  std::sort(R.Detectors.begin(), R.Detectors.end());
  R.Detectors.erase(std::unique(R.Detectors.begin(), R.Detectors.end()),
                    R.Detectors.end());
  R.StaticVerdict = In.getOr("static_verdict", "");
  R.WitnessPath = In.getOr("witness", "");
  R.Reproduced = In.getBool("reproduced", false);
  R.Harmful = In.getBool("harmful", false);
  R.WriteWrite = In.getBool("write_write", false);
  if (!parseCertification(In.getOr("cert", ""), R.Cert))
    return Error("racedb race entry has a bad certification");
  return R;
}

} // namespace

std::string racedb::renderRaceDb(const RaceDb &Db) {
  std::string Out;
  auto Emit = [&](const wire::RecordWriter &W) {
    Out += wire::frameBytes(W.str());
  };
  {
    wire::RecordWriter Header;
    Header.add("magic", std::string_view(Magic));
    Header.add("version", Version);
    Header.add("next_run_id", Db.NextRunId);
    Emit(Header);
  }
  // std::map iteration: records serialize in sorted key order, so equal
  // databases render byte-identically regardless of insertion history.
  for (const auto &[Key, Record] : Db.Races) {
    (void)Key;
    wire::RecordWriter W;
    encodeRaceFrame(W, Record);
    Emit(W);
  }
  return Out;
}

bool racedb::saveRaceDb(const std::string &Path, const RaceDb &Db) {
  const std::string Bytes = renderRaceDb(Db);
  bool Saved = wire::replaceFileDurably(Path, [&](int Fd) {
    return wire::writeAll(Fd, Bytes.data(), Bytes.size());
  });
  if (!Saved)
    NARADA_LOG_WARN("racedb: failed to persist db file '%s'", Path.c_str());
  return Saved;
}

Result<RaceDb> racedb::loadRaceDb(const std::string &Path, LoadStats *Stats) {
  RaceDb Db;
  LoadStats Local;
  auto OnHeader = [&](const wire::RecordReader &Header,
                      std::string_view) -> Status {
    Db.NextRunId = Header.getU64("next_run_id", 1);
    return Status::success();
  };
  auto OnRace = [&](const wire::RecordReader &In, std::string_view) -> Status {
    Result<RaceRecord> R = decodeRaceFrame(In, Local);
    if (!R)
      return R.error();
    std::string Key = R->Key;
    Db.Races[std::move(Key)] = R.take();
    return Status::success();
  };
  Status Loaded = wire::readSnapshot(
      Path, {"racedb file", Magic, Version, Version}, OnHeader,
      {{"race", OnRace}});
  if (!Loaded)
    return Loaded.error();
  if (Local.MigratedKeys)
    obs::MetricsRegistry::global()
        .counter("racedb.keys_migrated")
        .inc(Local.MigratedKeys);
  if (Stats)
    *Stats = Local;
  return Db;
}
