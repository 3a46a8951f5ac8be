//===- serve/Caches.cpp - The daemon's persistent cache layer ------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "serve/Caches.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "support/Digest.h"

#include <sys/stat.h>
#include <utility>

using namespace narada;
using namespace narada::serve;

namespace {

obs::Counter &counter(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name);
}

} // namespace

class ServeCaches::SummaryStoreImpl : public staticrace::SummaryStore {
public:
  explicit SummaryStoreImpl(ServeCaches &Caches)
      : Map(Caches.State.Summaries), Changed(Caches.Changed) {}

  const staticrace::CachedSummary *lookup(const std::string &Symbol,
                                          uint64_t Digest) const override {
    auto It = Map.find(Symbol);
    if (It == Map.end() || It->second.Digest != Digest)
      return nullptr;
    return &It->second.Value;
  }

  void store(const std::string &Symbol, uint64_t Digest,
             staticrace::CachedSummary Value) override {
    auto It = Map.find(Symbol);
    if (It != Map.end() && It->second.Digest != Digest)
      counter("serve.cache.summary.invalidated").inc();
    Map.insert_or_assign(
        Symbol, CacheSnapshot::SummaryEntry(Symbol, Digest, std::move(Value)));
    Changed = true;
  }

private:
  std::map<std::string, CacheSnapshot::SummaryEntry> &Map;
  bool &Changed;
};

ServeCaches::ServeCaches(std::string CacheFilePath)
    : CacheFilePath(std::move(CacheFilePath)) {
  if (this->CacheFilePath.empty())
    return;
  // Until a file loads, the first save must write one, whether none
  // existed or the one there was refused.
  Changed = true;
  struct stat St;
  if (::stat(this->CacheFilePath.c_str(), &St) != 0)
    return; // No file yet: a normal cold start.
  Result<CacheSnapshot> Loaded = loadCacheFile(this->CacheFilePath);
  if (!Loaded) {
    NARADA_LOG_WARN("serve: starting cold: %s", Loaded.error().str().c_str());
    return;
  }
  State = Loaded.take();
  LoadedFromDisk = true;
  Changed = false;
  NARADA_LOG_INFO("serve: cache loaded: %zu summaries, %zu detect results",
                  State.Summaries.size(), State.DetectMemo.size());
}

void ServeCaches::touchInput(const std::string &InputName, uint64_t Digest) {
  if (InputName.empty())
    return;
  auto It = InputDigests.find(InputName);
  // Same input, new content: the old scope can never hit again through
  // this name — drop it so the daemon's footprint follows the working set.
  if (It != InputDigests.end() && It->second != Digest)
    SeedAnalysis.erase(It->second);
  InputDigests[InputName] = Digest;
}

std::unique_ptr<ServeCaches::Request>
ServeCaches::beginRequest(const std::string &InputName) {
  auto Req = std::make_unique<Request>();
  Request *R = Req.get();

  Req->Hooks.PipelineFor =
      [this, R, InputName](const std::string &Source) -> const PipelineCaches * {
    const uint64_t Digest = digest::of(Source);
    touchInput(InputName, Digest);

    auto P = std::make_unique<PipelineCaches>();
    P->LookupSeedAnalysis =
        [this, Digest](const std::string &SeedName) -> const AnalysisResult * {
      auto Scope = SeedAnalysis.find(Digest);
      if (Scope != SeedAnalysis.end()) {
        auto Hit = Scope->second.find(SeedName);
        if (Hit != Scope->second.end()) {
          counter("serve.cache.analysis.hits").inc();
          return &Hit->second;
        }
      }
      counter("serve.cache.analysis.misses").inc();
      return nullptr;
    };
    P->StoreSeedAnalysis = [this, Digest](const std::string &SeedName,
                                          const AnalysisResult &Analysis) {
      SeedAnalysis[Digest].emplace(SeedName, Analysis);
    };
    P->Summarize = [this](const IRModule &M) {
      SummaryStoreImpl Store(*this);
      staticrace::IncrementalStats Stats;
      staticrace::ModuleSummary Summary =
          staticrace::summarizeModuleIncremental(M, Store, &Stats);
      counter("serve.cache.summary.hits").inc(Stats.Hits);
      counter("serve.cache.summary.misses").inc(Stats.Methods - Stats.Hits);
      counter("serve.cone_reanalyzed_methods").inc(Stats.Reanalyzed);
      return Summary;
    };
    R->Pipeline = std::move(P);
    return R->Pipeline.get();
  };

  Req->Hooks.LookupDetect =
      [this](uint64_t Key) -> const std::vector<TestDetectionResult> * {
    auto It = State.DetectMemo.find(Key);
    if (It == State.DetectMemo.end()) {
      counter("serve.cache.detect.misses").inc();
      return nullptr;
    }
    counter("serve.cache.detect.hits").inc();
    return &It->second.Results;
  };
  Req->Hooks.StoreDetect = [this](uint64_t Key,
                                  const std::vector<TestDetectionResult> &R) {
    if (State.DetectMemo.count(Key))
      return;
    while (State.DetectMemo.size() >= MaxDetectEntries) {
      State.DetectMemo.erase(State.DetectOrder.front());
      State.DetectOrder.pop_front();
    }
    State.DetectMemo.emplace(Key, CacheSnapshot::DetectEntry(Key, R));
    State.DetectOrder.push_back(Key);
    Changed = true;
  };
  return Req;
}

bool ServeCaches::save() {
  if (CacheFilePath.empty() || !Changed)
    return true;
  // A failed save keeps Changed set, so the next request retries it.
  if (!saveCacheFile(CacheFilePath, State))
    return false;
  Changed = false;
  return true;
}
