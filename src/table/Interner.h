//===- table/Interner.h - Global string interner ----------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The string side of the columnar table engine. Every string that enters a
/// table cell or a column name is interned into a process-global,
/// append-only pool and represented by a 32-bit id, which makes Value a
/// trivially copyable 16-byte scalar whose equality and hashing are integer
/// ops. A numeric cell's canonical printed form gets an id here too, but
/// only the first time a thread meets that number: Value::canonicalToken
/// answers repeats from a per-thread cache.
///
/// Interning happens once, where a string is first minted (table parse, a
/// name term, a kernel building a genuinely new cell); from there its id
/// travels with the column or cell. Every intern() call takes the mutex,
/// hits included, and lookups() counts them so a regression that puts
/// interning back on the synthesis hot path shows up as a number.
///
/// Ordering: string ids are handed out in first-intern order, not sort
/// order, because the pool grows during search (unite/separate/gather mint
/// new strings). Instead the interner maintains a *rank table* — the
/// permutation that sorts all interned texts — rebuilt lazily the first
/// time an ordered comparison runs after an insert. In the steady state of
/// the synthesis inner loop (no new strings between sorts) an ordered
/// comparison is two array loads and an integer compare.
///
/// Thread safety: interning takes a mutex; id -> text lookup is lock-free
/// (chunked, append-only storage: a published id's slot is never moved),
/// which keeps the portfolio's search threads off each other's backs.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_TABLE_INTERNER_H
#define MORPHEUS_TABLE_INTERNER_H

#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace morpheus {

class StringInterner {
public:
  /// The process-wide pool. All Values in all tables share it, so ids are
  /// comparable across tables, searches and portfolio threads.
  static StringInterner &global();

  /// Returns the id of \p S, interning it on first sight. Ids are dense,
  /// starting at 0.
  uint32_t intern(std::string_view S);

  /// The text of a previously interned id. Lock-free; the reference stays
  /// valid for the process lifetime.
  const std::string &text(uint32_t Id) const;

  /// Lexicographic byte order of the interned texts, as an integer compare
  /// against the lazily maintained rank table.
  bool less(uint32_t A, uint32_t B) const;

  /// Number of interned strings.
  size_t size() const { return Count.load(std::memory_order_acquire); }

  /// Number of intern() calls so far, hits included.
  uint64_t lookups() const;

private:
  StringInterner() = default;

  static constexpr unsigned ChunkBits = 12; // 4096 strings per chunk
  static constexpr size_t ChunkSize = size_t(1) << ChunkBits;
  static constexpr size_t MaxChunks = 1 << 18; // 2^30 ids: plenty

  const std::vector<uint32_t> *ranks() const;

  mutable Mutex M;
  std::unordered_map<std::string_view, uint32_t> Ids GUARDED_BY(M);
  uint64_t Lookups GUARDED_BY(M) = 0;
  std::vector<std::unique_ptr<std::string[]>> Chunks GUARDED_BY(M);
  /// Lock-free mirror of Chunks for readers: slot I is published (with
  /// release order) before any id in chunk I escapes intern(). Ordering
  /// contract: intern() writes the slot text, release-stores the chunk
  /// pointer, then release-stores Count; text()/size() acquire-load, so a
  /// reader that observes id < Count also observes the slot's bytes.
  std::atomic<std::string *> ChunkTable[MaxChunks] = {};
  std::atomic<size_t> Count{0};
  /// Sorted-rank snapshot; null while stale. Retired snapshots are kept
  /// alive (readers may still hold the raw pointer mid-comparison).
  mutable std::atomic<const std::vector<uint32_t> *> Ranks{nullptr};
  mutable std::vector<std::unique_ptr<const std::vector<uint32_t>>>
      RankHistory GUARDED_BY(M);
};

} // namespace morpheus

#endif // MORPHEUS_TABLE_INTERNER_H
