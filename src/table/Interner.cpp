//===- table/Interner.cpp - Global string interner ---------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "table/Interner.h"

#include <algorithm>
#include <cassert>

using namespace morpheus;

StringInterner &StringInterner::global() {
  static StringInterner *Instance = new StringInterner(); // never destroyed
  return *Instance;
}

uint32_t StringInterner::intern(std::string_view S) {
  MutexLock Lock(M);
  ++Lookups;
  auto It = Ids.find(S);
  if (It != Ids.end())
    return It->second;

  size_t Id = Count.load(std::memory_order_relaxed);
  assert(Id < MaxChunks * ChunkSize && "interner full");
  size_t Chunk = Id >> ChunkBits;
  if (Chunk == Chunks.size()) {
    Chunks.push_back(std::make_unique<std::string[]>(ChunkSize));
    ChunkTable[Chunk].store(Chunks.back().get(), std::memory_order_release);
  }
  std::string &Slot = Chunks[Chunk][Id & (ChunkSize - 1)];
  Slot.assign(S.data(), S.size());
  // The map key views the pooled string, so it stays valid forever.
  Ids.emplace(std::string_view(Slot), uint32_t(Id));
  // Publish the id only after the slot holds the text (release pairs with
  // the acquire in size()/text() readers). The rank snapshot is NOT
  // invalidated: it stays correct for the ids it covers; the new id
  // text-compares until the next (growth-triggered) rebuild.
  Count.store(Id + 1, std::memory_order_release);
  return uint32_t(Id);
}

uint64_t StringInterner::lookups() const {
  MutexLock Lock(M);
  return Lookups;
}

const std::string &StringInterner::text(uint32_t Id) const {
  assert(Id < Count.load(std::memory_order_acquire) && "unknown string id");
  std::string *Chunk =
      ChunkTable[Id >> ChunkBits].load(std::memory_order_acquire);
  return Chunk[Id & (ChunkSize - 1)];
}

const std::vector<uint32_t> *StringInterner::ranks() const {
  const std::vector<uint32_t> *R = Ranks.load(std::memory_order_acquire);
  size_t N = Count.load(std::memory_order_acquire);
  // A snapshot stays valid for the ids it covers (their relative text
  // order never changes); ids past its end text-compare in less(). Only
  // rebuild once the uncovered tail has grown geometrically, so a search
  // that mints strings between sorts triggers O(log N) rebuilds total and
  // the retained snapshot history stays O(N) words.
  size_t Covered = R ? R->size() : 0;
  if (R && N - Covered <= 64 + Covered / 2)
    return R;
  MutexLock Lock(M);
  R = Ranks.load(std::memory_order_acquire);
  N = Count.load(std::memory_order_acquire);
  Covered = R ? R->size() : 0;
  if (R && N - Covered <= 64 + Covered / 2)
    return R;
  std::vector<uint32_t> Order(N);
  for (uint32_t I = 0; I != N; ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return text(A) < text(B);
  });
  auto Table = std::make_unique<std::vector<uint32_t>>(N);
  for (uint32_t Rank = 0; Rank != N; ++Rank)
    (*Table)[Order[Rank]] = Rank;
  R = Table.get();
  // Retired snapshots stay alive: a reader may hold the previous pointer.
  RankHistory.push_back(std::move(Table));
  Ranks.store(R, std::memory_order_release);
  return R;
}

bool StringInterner::less(uint32_t A, uint32_t B) const {
  if (A == B)
    return false;
  const std::vector<uint32_t> *R = ranks();
  if (A < R->size() && B < R->size())
    return (*R)[A] < (*R)[B];
  // An id minted after the snapshot: fall back to an exact text compare.
  return text(A) < text(B);
}
