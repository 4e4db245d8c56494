//===- cluster/HashRing.h - Consistent hashing over worker shards -*- C++ -*-=//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard map of the cluster tier: a classic consistent-hash ring with
/// virtual nodes, mapping problem fingerprints to worker indices. Each
/// worker owns VirtualNodes points on the ring (hashes of its index), so
/// load spreads evenly and adding/removing one worker remaps only ~1/N of
/// the fingerprint space — repeated and sibling problems keep landing on
/// the node that already holds their ResultCache entries and durable warm
/// state (the affinity the whole tier exists for). walk() yields the
/// failover order: the owner first, then each next distinct worker
/// clockwise, so the coordinator can skip shards that are down while
/// keeping the assignment deterministic.
///
/// Placement is pure arithmetic over (index, VirtualNodes) — coordinator
/// restarts and every coordinator replica agree on the map for free.
/// Loop-thread-confined in ClusterClient; the class itself is immutable
/// after construction and trivially thread-safe to read.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_CLUSTER_HASHRING_H
#define MORPHEUS_CLUSTER_HASHRING_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace morpheus {

class HashRing {
public:
  /// \p Workers entries get \p VirtualNodes ring points each.
  explicit HashRing(unsigned Workers, unsigned VirtualNodes = 64) {
    Points.reserve(size_t(Workers) * VirtualNodes);
    for (unsigned W = 0; W != Workers; ++W)
      for (unsigned V = 0; V != VirtualNodes; ++V)
        Points.push_back({mix((uint64_t(W) << 32) | V), int(W)});
    std::sort(Points.begin(), Points.end());
  }

  /// The worker owning \p Fp (first ring point clockwise). -1 when empty.
  int owner(uint64_t Fp) const {
    if (Points.empty())
      return -1;
    return at(lowerBound(Fp));
  }

  /// The failover order for \p Fp: the owner, then each next *distinct*
  /// worker clockwise. At most \p Max entries (every worker when the ring
  /// is smaller than that).
  std::vector<int> walk(uint64_t Fp, size_t Max) const {
    std::vector<int> Out;
    if (Points.empty())
      return Out;
    size_t I = lowerBound(Fp);
    for (size_t Seen = 0; Seen != Points.size() && Out.size() < Max; ++Seen) {
      int W = at((I + Seen) % Points.size());
      if (std::find(Out.begin(), Out.end(), W) == Out.end())
        Out.push_back(W);
    }
    return Out;
  }

private:
  /// splitmix64 finalizer: the ring needs dispersion, not security.
  static uint64_t mix(uint64_t X) {
    X += 0x9E3779B97F4A7C15ULL;
    X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
    X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
    return X ^ (X >> 31);
  }

  size_t lowerBound(uint64_t Fp) const {
    auto It = std::lower_bound(
        Points.begin(), Points.end(), std::pair<uint64_t, int>(Fp, -1),
        [](const auto &A, const auto &B) { return A.first < B.first; });
    return It == Points.end() ? 0 : size_t(It - Points.begin());
  }

  int at(size_t I) const { return Points[I].second; }

  std::vector<std::pair<uint64_t, int>> Points; ///< (ring point, worker)
};

} // namespace morpheus

#endif // MORPHEUS_CLUSTER_HASHRING_H
