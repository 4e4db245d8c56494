//===- tests/RefutationStoreTest.cpp - Cross-engine refutation store ----------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the concurrent RefutationStore (record/consult, stats,
/// capacity) plus a thread stress test that CI runs under
/// ThreadSanitizer: many writers and readers hammering one store over an
/// overlapping key space, with full-set verification at the end.
/// Deduction-level integration (a store wired between two engines) lives
/// in SpecDeduceTest; whole-suite soundness parity with warm stores in
/// WarmRestartTest.
///
//===----------------------------------------------------------------------===//

#include "smt/RefutationStore.h"

#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace morpheus;

namespace {

TEST(RefutationStore, RecordsAndServes) {
  RefutationStore S;
  EXPECT_FALSE(S.isRefuted(42));
  S.recordRefuted(42);
  EXPECT_TRUE(S.isRefuted(42));
  EXPECT_FALSE(S.isRefuted(43));
  S.recordRefuted(42); // idempotent
  EXPECT_EQ(S.size(), 1u);

  RefutationStore::Stats St = S.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 2u);
  EXPECT_EQ(St.Inserts, 1u);
  EXPECT_EQ(St.Entries, 1u);
}

TEST(RefutationStore, CapacityDropsInsertsNeverCorrupts) {
  // Tiny cap: 16 shards -> 2 keys per shard.
  RefutationStore S(/*MaxEntries=*/32);
  for (uint64_t K = 0; K != 10000; ++K)
    S.recordRefuted(K * 0x9e3779b97f4a7c15ULL);
  EXPECT_LE(S.size(), 32u);
  // Everything that was admitted is still served correctly.
  size_t Served = 0;
  for (uint64_t K = 0; K != 10000; ++K)
    Served += S.isRefuted(K * 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(Served, S.size());
}

/// Concurrency stress (run under TSan in CI): writers insert disjoint key
/// ranges while readers probe the full space, then every thread's keys
/// must be present and counted exactly once.
TEST(RefutationStore, ConcurrentStress) {
  RefutationStore S;
  constexpr unsigned Writers = 4, Readers = 4;
  constexpr uint64_t KeysPerWriter = 5000;

  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != Writers; ++W)
    Threads.emplace_back([&, W] {
      for (uint64_t K = 0; K != KeysPerWriter; ++K)
        S.recordRefuted((uint64_t(W) << 32 | K) * 0x9e3779b97f4a7c15ULL);
    });
  for (unsigned R = 0; R != Readers; ++R)
    Threads.emplace_back([&, R] {
      // Probe across every writer's range while writes are in flight; the
      // answers are allowed to be "not yet", never wrong or torn.
      uint64_t Seen = 0;
      for (uint64_t K = 0; K != KeysPerWriter; ++K)
        for (unsigned W = 0; W != Writers; ++W)
          Seen +=
              S.isRefuted((uint64_t(W) << 32 | K) * 0x9e3779b97f4a7c15ULL);
      EXPECT_LE(Seen, uint64_t(Writers) * KeysPerWriter);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(S.size(), size_t(Writers) * KeysPerWriter);
  for (unsigned W = 0; W != Writers; ++W)
    for (uint64_t K = 0; K != KeysPerWriter; ++K)
      EXPECT_TRUE(
          S.isRefuted((uint64_t(W) << 32 | K) * 0x9e3779b97f4a7c15ULL));
  EXPECT_EQ(S.stats().Inserts, uint64_t(Writers) * KeysPerWriter);
}

} // namespace
