//===- serve/CacheFile.cpp - On-disk daemon cache persistence ------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "serve/CacheFile.h"

#include "detect/DetectWorker.h"
#include "support/Wire.h"

#include <cstdio>
#include <utility>
#include <vector>

using namespace narada;
using namespace narada::serve;

namespace {

constexpr const char *Magic = "narada.serve_cache";
// Version 4 dropped the static summaries' frames (version 3 dropped the
// derivation memo's); older files fail the load by version and the daemon
// starts cold.
constexpr uint64_t Version = 4;
constexpr uint64_t MinVersion = 4;

// Each result rides as one escaped sub-record value (the wire escaping
// turns its newlines into \n), inside the flat line-oriented format every
// other Narada surface uses.
std::string
encodeDetectMemoFrame(uint64_t Key,
                      const std::vector<TestDetectionResult> &Results) {
  wire::RecordWriter W;
  W.add("kind", std::string_view("detect_memo"));
  W.add("key", Key);
  for (const TestDetectionResult &R : Results) {
    wire::RecordWriter Entry;
    detectworker::encodeDetectResult(Entry, R);
    W.add("result", Entry.str());
  }
  return W.str();
}

Result<std::pair<uint64_t, CacheSnapshot::DetectEntry>>
decodeDetectMemoFrame(const wire::RecordReader &In, std::string_view Frame) {
  std::optional<std::string> Key = In.get("key");
  if (!Key)
    return Error("cache detect memo entry has no key");
  std::vector<TestDetectionResult> Results;
  for (const std::string &Text : In.all("result")) {
    wire::RecordReader Entry(Text);
    Results.push_back(detectworker::decodeDetectResult(Entry));
  }
  return std::make_pair(
      In.getU64("key", 0),
      CacheSnapshot::DetectEntry(std::move(Results), std::string(Frame)));
}

} // namespace

CacheSnapshot::DetectEntry::DetectEntry(
    uint64_t Key, std::vector<TestDetectionResult> Results)
    : Results(std::move(Results)),
      Frame(encodeDetectMemoFrame(Key, this->Results)) {}

CacheSnapshot::DetectEntry::DetectEntry(
    std::vector<TestDetectionResult> Results, std::string Frame)
    : Results(std::move(Results)), Frame(std::move(Frame)) {}

bool serve::saveCacheFile(const std::string &Path,
                          const CacheSnapshot &Snapshot) {
  // Every entry carries its frame, so only the header is encoded here.
  bool Saved = wire::replaceFileDurably(Path, [&](int Fd) {
    wire::RecordWriter Header;
    Header.add("magic", std::string_view(Magic));
    Header.add("version", Version);
    bool Ok = wire::writeFrame(Fd, Header.str());
    // Written in FIFO order so the eviction queue reloads exactly as it was.
    for (uint64_t Key : Snapshot.DetectOrder)
      if (auto It = Snapshot.DetectMemo.find(Key);
          It != Snapshot.DetectMemo.end())
        Ok = Ok && wire::writeFrame(Fd, It->second.Frame);
    return Ok;
  });
  if (!Saved) // At every log level: the next restart would start cold.
    std::fprintf(stderr, "serve: failed to persist cache file '%s'\n",
                 Path.c_str());
  return Saved;
}

Result<CacheSnapshot> serve::loadCacheFile(const std::string &Path) {
  CacheSnapshot Snapshot;
  auto OnDetectMemo = [&](const wire::RecordReader &In,
                          std::string_view Frame) -> Status {
    Result<std::pair<uint64_t, CacheSnapshot::DetectEntry>> Entry =
        decodeDetectMemoFrame(In, Frame);
    if (!Entry)
      return Entry.error();
    if (Snapshot.DetectMemo.emplace(Entry->first, std::move(Entry->second))
            .second)
      Snapshot.DetectOrder.push_back(Entry->first);
    return Status::success();
  };
  Status Loaded = wire::readSnapshot(
      Path, {"cache file", Magic, MinVersion, Version}, /*OnHeader=*/{},
      {{"detect_memo", OnDetectMemo}});
  if (!Loaded)
    return Loaded.error();
  return Snapshot;
}
