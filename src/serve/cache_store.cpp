#include "serve/cache_store.hpp"

#include <algorithm>
#include <fstream>

#include "io/checkpoint.hpp"

namespace trdse::serve {

void touchScope(ScopeLru& lru, const std::string& scope) {
  const auto it = std::find(lru.begin(), lru.end(), scope);
  if (it != lru.end()) lru.erase(it);
  lru.insert(lru.begin(), scope);
}

void saveCacheFile(const std::string& path,
                   const eval::SharedEvalCache& cache, const ScopeLru& lru) {
  io::CheckpointWriter w(kCacheStoreKind);
  cache.saveState(w.section("cache"));
  io::SectionWriter& l = w.section("lru");
  l.u64(lru.size());
  for (const std::string& s : lru) l.str(s);
  w.writeFile(path);
}

bool loadCacheFile(const std::string& path, eval::SharedEvalCache& cache,
                   ScopeLru& lru) {
  {
    std::ifstream probe(path);
    if (!probe.good()) return false;
  }
  io::CheckpointReader reader = io::CheckpointReader::fromFile(path);
  reader.expectKind(kCacheStoreKind);
  io::SectionReader c = reader.section("cache");
  cache.restoreState(c);
  io::SectionReader l = reader.section("lru");
  const std::uint64_t n = l.count(8);  // length-prefixed scope names
  lru.clear();
  lru.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) lru.push_back(l.str());
  return true;
}

std::vector<std::string> enforceBudget(eval::SharedEvalCache& cache,
                                       const ScopeLru& lru,
                                       std::uint64_t budgetBytes,
                                       const std::vector<std::string>& pinned) {
  std::vector<std::string> evicted;
  if (budgetBytes == 0) return evicted;
  std::uint64_t bytes = cache.approxBytes();
  if (bytes <= budgetBytes) return evicted;
  const std::vector<std::string> names = cache.scopeNames();
  // Walk the LRU order from the cold end; scope ids come from the registered
  // name list (an LRU entry whose scope was never registered here is a
  // leftover from an evicted past life — nothing to drop).
  for (auto it = lru.rbegin(); it != lru.rend() && bytes > budgetBytes; ++it) {
    if (std::find(pinned.begin(), pinned.end(), *it) != pinned.end()) continue;
    const auto name = std::find(names.begin(), names.end(), *it);
    if (name == names.end()) continue;
    const std::size_t scope =
        static_cast<std::size_t>(name - names.begin());
    const std::size_t scopeBytes = cache.approxScopeBytes(scope);
    if (cache.evictScope(scope) == 0) continue;
    bytes -= std::min<std::uint64_t>(bytes, scopeBytes);
    evicted.push_back(*it);
  }
  return evicted;
}

}  // namespace trdse::serve
