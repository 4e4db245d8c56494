//===- smt/RefutationStore.cpp - Cross-engine refutation sharing --------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/RefutationStore.h"

#include <algorithm>

using namespace morpheus;

namespace {

/// Default per-store entry cap: 1M keys is ~48MB of unordered_set at the
/// default load factor — generous for one example's refutation universe
/// (a full suite task records thousands to low millions).
constexpr size_t DefaultMaxEntries = 1 << 20;

} // namespace

RefutationStore::RefutationStore(size_t MaxEntries)
    : MaxEntries(MaxEntries ? MaxEntries : DefaultMaxEntries) {}

bool RefutationStore::isRefuted(uint64_t QueryHash) const {
  Shard &S = shardFor(QueryHash);
  bool Found;
  {
    MutexLock Lock(S.M);
    Found = S.Keys.count(QueryHash) != 0;
  }
  (Found ? Hits : Misses).fetch_add(1, std::memory_order_relaxed);
  return Found;
}

void RefutationStore::recordRefuted(uint64_t QueryHash) {
  Shard &S = shardFor(QueryHash);
  MutexLock Lock(S.M);
  if (S.Keys.size() >= MaxEntries / NumShards)
    return; // best-effort: full shard drops the fact, never corrupts it
  if (S.Keys.insert(QueryHash).second)
    Inserts.fetch_add(1, std::memory_order_relaxed);
}

RefutationStore::Stats RefutationStore::stats() const {
  Stats Out;
  Out.Hits = Hits.load(std::memory_order_relaxed);
  Out.Misses = Misses.load(std::memory_order_relaxed);
  Out.Inserts = Inserts.load(std::memory_order_relaxed);
  Out.Restored = Restored.load(std::memory_order_relaxed);
  Out.Entries = size();
  return Out;
}

std::vector<uint64_t> RefutationStore::keys() const {
  std::vector<uint64_t> Out;
  Out.reserve(size());
  for (const Shard &S : Shards) {
    MutexLock Lock(S.M);
    Out.insert(Out.end(), S.Keys.begin(), S.Keys.end());
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

size_t RefutationStore::restoreKeys(const std::vector<uint64_t> &Keys) {
  size_t Stored = 0;
  for (uint64_t Key : Keys) {
    Shard &S = shardFor(Key);
    MutexLock Lock(S.M);
    if (S.Keys.size() >= MaxEntries / NumShards)
      continue;
    if (S.Keys.insert(Key).second)
      ++Stored;
  }
  Restored.fetch_add(Stored, std::memory_order_relaxed);
  return Stored;
}

size_t RefutationStore::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    MutexLock Lock(S.M);
    N += S.Keys.size();
  }
  return N;
}
