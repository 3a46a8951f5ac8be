//===- serve/Caches.cpp - The daemon's persistent cache layer ------------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "serve/Caches.h"

#include "obs/Log.h"
#include "obs/Metrics.h"

#include <cstdio>
#include <sys/stat.h>
#include <utility>

using namespace narada;
using namespace narada::serve;

namespace {

obs::Counter &counter(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name);
}

} // namespace

ServeCaches::ServeCaches(std::string CacheFilePath)
    : CacheFilePath(std::move(CacheFilePath)) {
  Hooks.LookupDetect =
      [this](uint64_t Key) -> const std::vector<TestDetectionResult> * {
    auto It = State.DetectMemo.find(Key);
    if (It == State.DetectMemo.end()) {
      counter("serve.cache.detect.misses").inc();
      return nullptr;
    }
    counter("serve.cache.detect.hits").inc();
    return &It->second.Results;
  };
  Hooks.StoreDetect = [this](uint64_t Key,
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
    // Printed at every log level, like the daemon's refusal to start: an
    // operator must learn that the cache was dropped.
    std::fprintf(stderr, "serve: starting cold: %s\n",
                 Loaded.error().str().c_str());
    return;
  }
  State = Loaded.take();
  LoadedFromDisk = true;
  Changed = false;
  NARADA_LOG_INFO("serve: cache loaded: %zu detect results",
                  State.DetectMemo.size());
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
