//===- tests/snapshot_file_test.cpp - Snapshot file anomaly table --------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
// The daemon cache (serve/CacheFile) and the race database (racedb/RaceDb)
// are both loaded through wire::readSnapshot.  One table of malformed files
// is fed to both loaders: every load must fail, all-or-nothing, with the
// message the loader has always printed, and the serve caches must start
// cold on every bad cache file.
//
//===----------------------------------------------------------------------===//

#include "racedb/RaceDb.h"
#include "serve/CacheFile.h"
#include "serve/Caches.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <unistd.h>

using namespace narada;

namespace {

/// One snapshot format, with its loader reduced to "the error text, or
/// empty when the load succeeded".
struct SnapshotKind {
  const char *Name;
  const char *What; ///< The file's name in load errors.
  const char *Magic;
  uint64_t MaxVersion;
  std::string (*LoadError)(const std::string &Path);
  bool IsServeCache;
};

std::string cacheLoadError(const std::string &Path) {
  Result<serve::CacheSnapshot> R = serve::loadCacheFile(Path);
  return R ? "" : R.error().str();
}

std::string raceDbLoadError(const std::string &Path) {
  Result<racedb::RaceDb> R = racedb::loadRaceDb(Path);
  return R ? "" : R.error().str();
}

const SnapshotKind Kinds[] = {
    {"CacheFile", "cache file", "narada.serve_cache", 4, cacheLoadError, true},
    {"RaceDb", "racedb file", "narada.racedb", 1, raceDbLoadError, false},
};

std::string headerFrame(const char *Magic, uint64_t Version) {
  wire::RecordWriter W;
  W.add("magic", std::string_view(Magic));
  W.add("version", Version);
  return wire::frameBytes(W.str());
}

std::string validHeader(const SnapshotKind &K) {
  return headerFrame(K.Magic, K.MaxVersion);
}

/// One malformed file and how the loader names the problem.
struct Anomaly {
  const char *Name;
  /// The file's bytes under \p K's format; nullopt leaves no file at all.
  std::optional<std::string> (*Bytes)(const SnapshotKind &K);
  /// Follows "<what> '<path>' " in the error; null means "cannot open".
  const char *Reason;
};

const Anomaly Anomalies[] = {
    {"MissingFile",
     [](const SnapshotKind &) -> std::optional<std::string> {
       return std::nullopt;
     },
     nullptr},
    {"EmptyFile",
     [](const SnapshotKind &) -> std::optional<std::string> { return ""; },
     "has no header frame"},
    {"OversizedLengthPrefix",
     [](const SnapshotKind &K) -> std::optional<std::string> {
       // Declares a frame far above wire::MaxFrameBytes.
       return validHeader(K) + std::string("\xff\xff\xff\xffxy", 6);
     },
     "is truncated or corrupt"},
    {"BadMagic",
     [](const SnapshotKind &K) -> std::optional<std::string> {
       return headerFrame("narada.bogus", K.MaxVersion);
     },
     "has a bad magic"},
    {"VersionAboveMaximum",
     [](const SnapshotKind &K) -> std::optional<std::string> {
       return headerFrame(K.Magic, K.MaxVersion + 1);
     },
     "has an unsupported version"},
    {"TruncatedEntryFrame",
     [](const SnapshotKind &K) -> std::optional<std::string> {
       // Promises 64 payload bytes and holds one.
       return validHeader(K) + std::string("\x40\x00\x00\x00k", 5);
     },
     "is truncated or corrupt"},
    {"UnknownEntryKind",
     [](const SnapshotKind &K) -> std::optional<std::string> {
       wire::RecordWriter W;
       W.add("kind", std::string_view("mystery"));
       return validHeader(K) + wire::frameBytes(W.str());
     },
     "has an unknown entry kind 'mystery'"},
};

void PrintTo(const SnapshotKind &K, std::ostream *OS) { *OS << K.Name; }
void PrintTo(const Anomaly &A, std::ostream *OS) { *OS << A.Name; }

class SnapshotAnomalyTest
    : public ::testing::TestWithParam<std::tuple<SnapshotKind, Anomaly>> {};

TEST_P(SnapshotAnomalyTest, LoadFailsWithItsMessage) {
  const auto &[Kind, Case] = GetParam();
  const std::string Path = ::testing::TempDir() + "snapshot_" + Kind.Name +
                           "_" + Case.Name + "_" +
                           std::to_string(::getpid());
  ::unlink(Path.c_str());
  if (std::optional<std::string> Bytes = Case.Bytes(Kind)) {
    std::ofstream Out(Path, std::ios::binary);
    Out << *Bytes;
  }

  const std::string Named = std::string(Kind.What) + " '" + Path + "'";
  EXPECT_EQ(Kind.LoadError(Path), Case.Reason ? Named + " " + Case.Reason
                                              : "cannot open " + Named);
  if (Kind.IsServeCache) {
    serve::ServeCaches Caches(Path);
    EXPECT_FALSE(Caches.loadedFromDisk());
    EXPECT_EQ(Caches.detectMemoCount(), 0u);
  }
  ::unlink(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Table, SnapshotAnomalyTest,
    ::testing::Combine(::testing::ValuesIn(Kinds),
                       ::testing::ValuesIn(Anomalies)),
    [](const ::testing::TestParamInfo<SnapshotAnomalyTest::ParamType> &Info) {
      return std::string(std::get<0>(Info.param).Name) + "_" +
             std::get<1>(Info.param).Name;
    });

} // namespace
