//===- table/Hash.h - The repo-wide fingerprint mixers ----------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one home of the hash primitives every content-addressing layer
/// shares: table fingerprints (table/), example fingerprints and sketch
/// shape hashes (spec/, lang/), deduction query keys (smt/), and the
/// service problem fingerprint (service/). These keys feed each other —
/// table fingerprints fold into example and problem fingerprints — so all
/// layers must mix identically; edit here, nowhere else.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_TABLE_HASH_H
#define MORPHEUS_TABLE_HASH_H

#include <cstdint>
#include <string_view>

namespace morpheus {
namespace hashing {

/// splitmix64 finalizer: full-avalanche 64-bit mixer.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// Order-sensitive accumulate of \p V into \p H.
inline uint64_t fold(uint64_t H, uint64_t V) { return mix64(H ^ V); }

/// FNV-1a over bytes; stable across processes (identities that must hash
/// canonically — component names, deduce signatures — use this, never
/// std::hash or pointers).
inline uint64_t hashString(std::string_view S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S) {
    H ^= uint8_t(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

} // namespace hashing
} // namespace morpheus

#endif // MORPHEUS_TABLE_HASH_H
