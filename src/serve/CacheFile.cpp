//===- serve/CacheFile.cpp - On-disk daemon cache persistence ------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "serve/CacheFile.h"

#include "detect/DetectWorker.h"
#include "obs/Log.h"
#include "support/Wire.h"

#include <utility>
#include <vector>

using namespace narada;
using namespace narada::serve;
using staticrace::CachedSummary;
using staticrace::Controllability;
using staticrace::MethodSummary;
using staticrace::StaticAccess;

namespace {

constexpr const char *Magic = "narada.serve_cache";
// Version 3 dropped the derivation memo's frames; older files fail the
// load by version and the daemon starts cold.
constexpr uint64_t Version = 3;
constexpr uint64_t MinVersion = 3;

// Nested records: a whole sub-record rides as one escaped value (the wire
// escaping turns its newlines into \n), so nested structures — summary ->
// access -> lock path — stay inside the flat line-oriented format every
// other Narada surface uses.

std::string encodePath(const AccessPath &Path) {
  wire::RecordWriter W;
  W.add("root", static_cast<int64_t>(Path.Root));
  for (const std::string &Field : Path.Fields)
    W.add("field", Field);
  return W.str();
}

AccessPath decodePath(const std::string &Text) {
  wire::RecordReader In(Text);
  return AccessPath(static_cast<int>(In.getI64("root", 0)), In.all("field"));
}

std::string encodeAccess(const StaticAccess &A) {
  wire::RecordWriter W;
  W.add("label", A.Label);
  W.add("class", A.FieldClassName);
  W.add("field", A.Field);
  W.addBool("write", A.IsWrite);
  W.addBool("elem", A.IsElem);
  W.add("ctrl", static_cast<uint64_t>(A.Ctrl));
  if (A.BasePath)
    W.add("base", encodePath(*A.BasePath));
  for (const auto &[Path, Count] : A.MustLocks) {
    wire::RecordWriter Lock;
    Lock.add("path", encodePath(Path));
    Lock.add("count", static_cast<uint64_t>(Count));
    W.add("lock", Lock.str());
  }
  W.add("unknown_locks", static_cast<uint64_t>(A.UnknownLocks));
  return W.str();
}

Result<StaticAccess> decodeAccess(const std::string &Text) {
  wire::RecordReader In(Text);
  StaticAccess A;
  std::optional<std::string> Label = In.get("label");
  if (!Label)
    return Error("cache access entry has no label");
  A.Label = *Label;
  A.FieldClassName = In.getOr("class", "");
  A.Field = In.getOr("field", "");
  A.IsWrite = In.getBool("write", false);
  A.IsElem = In.getBool("elem", false);
  uint64_t Ctrl = In.getU64("ctrl", ~0ull);
  if (Ctrl > static_cast<uint64_t>(Controllability::Unknown))
    return Error("cache access entry has a bad controllability");
  A.Ctrl = static_cast<Controllability>(Ctrl);
  if (std::optional<std::string> Base = In.get("base"))
    A.BasePath = decodePath(*Base);
  for (const std::string &LockText : In.all("lock")) {
    wire::RecordReader Lock(LockText);
    std::optional<std::string> Path = Lock.get("path");
    if (!Path)
      return Error("cache lock entry has no path");
    A.MustLocks[decodePath(*Path)] =
        static_cast<unsigned>(Lock.getU64("count", 1));
  }
  A.UnknownLocks = static_cast<unsigned>(In.getU64("unknown_locks", 0));
  return A;
}

std::string encodeSummaryFrame(const std::string &Symbol, uint64_t Digest,
                               const CachedSummary &Value) {
  wire::RecordWriter W;
  W.add("kind", std::string_view("summary"));
  W.add("symbol", Symbol);
  W.add("digest", Digest);
  W.addBool("exact", Value.Exact);
  const MethodSummary &S = Value.Summary;
  W.add("method_symbol", S.Symbol);
  W.addBool("incomplete", S.Incomplete);
  for (const std::string &Field : S.StoredFields)
    W.add("stored_field", Field);
  for (const StaticAccess &A : S.Accesses)
    W.add("access", encodeAccess(A));
  return W.str();
}

Result<std::pair<std::string, CacheSnapshot::SummaryEntry>>
decodeSummaryFrame(const wire::RecordReader &In, std::string_view Frame) {
  std::optional<std::string> Symbol = In.get("symbol");
  std::optional<std::string> Digest = In.get("digest");
  if (!Symbol || !Digest)
    return Error("cache summary entry has no symbol/digest");
  CachedSummary Value;
  Value.Exact = In.getBool("exact", false);
  MethodSummary &S = Value.Summary;
  S.Symbol = In.getOr("method_symbol", *Symbol);
  S.Incomplete = In.getBool("incomplete", false);
  for (const std::string &Field : In.all("stored_field"))
    S.StoredFields.insert(Field);
  for (const std::string &AccessText : In.all("access")) {
    Result<StaticAccess> A = decodeAccess(AccessText);
    if (!A)
      return A.error();
    S.Accesses.push_back(A.take());
  }
  return std::make_pair(*Symbol, CacheSnapshot::SummaryEntry(
                                     In.getU64("digest", 0), std::move(Value),
                                     std::string(Frame)));
}

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

CacheSnapshot::SummaryEntry::SummaryEntry(const std::string &Symbol,
                                          uint64_t Digest,
                                          CachedSummary Value)
    : Digest(Digest), Value(std::move(Value)),
      Frame(encodeSummaryFrame(Symbol, Digest, this->Value)) {}

CacheSnapshot::SummaryEntry::SummaryEntry(uint64_t Digest, CachedSummary Value,
                                          std::string Frame)
    : Digest(Digest), Value(std::move(Value)), Frame(std::move(Frame)) {}

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
    for (const auto &[Symbol, Entry] : Snapshot.Summaries)
      Ok = Ok && wire::writeFrame(Fd, Entry.Frame);
    // Written in FIFO order so the eviction queue reloads exactly as it was.
    for (uint64_t Key : Snapshot.DetectOrder)
      if (auto It = Snapshot.DetectMemo.find(Key);
          It != Snapshot.DetectMemo.end())
        Ok = Ok && wire::writeFrame(Fd, It->second.Frame);
    return Ok;
  });
  if (!Saved)
    NARADA_LOG_WARN("serve: failed to persist cache file '%s'", Path.c_str());
  return Saved;
}

Result<CacheSnapshot> serve::loadCacheFile(const std::string &Path) {
  CacheSnapshot Snapshot;
  auto OnSummary = [&](const wire::RecordReader &In,
                       std::string_view Frame) -> Status {
    Result<std::pair<std::string, CacheSnapshot::SummaryEntry>> Entry =
        decodeSummaryFrame(In, Frame);
    if (!Entry)
      return Entry.error();
    Snapshot.Summaries.insert_or_assign(Entry->first, std::move(Entry->second));
    return Status::success();
  };
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
      {{"summary", OnSummary}, {"detect_memo", OnDetectMemo}});
  if (!Loaded)
    return Loaded.error();
  return Snapshot;
}
