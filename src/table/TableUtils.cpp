//===- table/TableUtils.cpp - Table set utilities ---------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "table/TableUtils.h"

using namespace morpheus;

TokenSet morpheus::headerTokens(const Table &T) {
  TokenSet Out;
  Out.reserve(T.numCols());
  for (const Column &C : T.schema().columns())
    Out.insert(C.NameId);
  return Out;
}

TokenSet morpheus::valueTokens(const Table &T) {
  TokenSet Out = headerTokens(T);
  Out.reserve(Out.size() + T.numRows() * T.numCols());
  for (size_t C = 0; C != T.numCols(); ++C)
    for (const Value &V : T.col(C))
      Out.insert(V.canonicalToken());
  return Out;
}

TokenSet morpheus::headerTokens(const std::vector<Table> &Tables) {
  TokenSet Out;
  for (const Table &T : Tables) {
    TokenSet S = headerTokens(T);
    Out.insert(S.begin(), S.end());
  }
  return Out;
}

TokenSet morpheus::valueTokens(const std::vector<Table> &Tables) {
  TokenSet Out;
  for (const Table &T : Tables) {
    TokenSet S = valueTokens(T);
    Out.insert(S.begin(), S.end());
  }
  return Out;
}

size_t morpheus::countNotIn(const TokenSet &A, const TokenSet &B) {
  size_t N = 0;
  for (uint32_t Tok : A)
    if (!B.count(Tok))
      ++N;
  return N;
}

std::vector<Value> morpheus::distinctColumnValues(const Table &T,
                                                  std::string_view Name) {
  std::vector<Value> Out;
  std::unordered_set<uint64_t> Seen;
  std::optional<size_t> Idx = T.schema().indexOf(Name);
  assert(Idx && "no such column");
  for (const Value &V : T.col(*Idx))
    if (Seen.insert(V.typedToken()).second)
      Out.push_back(V);
  return Out;
}

std::vector<std::vector<size_t>> RowGrouping::memberLists() const {
  std::vector<std::vector<size_t>> Groups(FirstRow.size());
  for (size_t R = 0; R != GroupOf.size(); ++R)
    Groups[GroupOf[R]].push_back(R);
  return Groups;
}

RowGrouping morpheus::groupRowsBy(const Table &T,
                                  const std::vector<size_t> &KeyIdx) {
  // Token each key column once (columnar scans keep the interner lookups
  // sequential), then bucket rows by a hash of the typed-token tuple.
  std::vector<std::vector<uint64_t>> Keys(KeyIdx.size());
  for (size_t K = 0; K != KeyIdx.size(); ++K) {
    Keys[K].reserve(T.numRows());
    for (const Value &V : T.col(KeyIdx[K]))
      Keys[K].push_back(V.typedToken());
  }
  auto Equal = [&](size_t A, size_t B) {
    for (size_t K = 0; K != Keys.size(); ++K)
      if (Keys[K][A] != Keys[K][B])
        return false;
    return true;
  };
  const size_t N = T.numRows();
  RowGrouping G;
  G.GroupOf.resize(N);

  if (N == 0)
    return G;
  // The per-row key hash is an FNV-1a fold over the key columns, and the
  // bucket map is a flat open-addressing table. Group identity is decided
  // by Equal over the full key tuples, never by the hash, and rows are
  // scanned in order — so groups are numbered by first appearance no
  // matter how probing lays them out.
  std::vector<uint64_t> Hs(N, 0xcbf29ce484222325ULL);
  for (const std::vector<uint64_t> &Key : Keys)
    for (size_t R = 0; R != N; ++R)
      Hs[R] = (Hs[R] ^ Key[R]) * 0x100000001b3ULL;

  size_t Cap = 16;
  while (Cap < 2 * N)
    Cap *= 2;
  constexpr uint32_t Empty = UINT32_MAX;
  std::vector<uint32_t> SlotGid(Cap, Empty);
  std::vector<uint64_t> SlotHash(Cap);
  for (size_t R = 0; R != N; ++R) {
    size_t S = size_t(Hs[R]) & (Cap - 1);
    for (;;) {
      uint32_t Gid = SlotGid[S];
      if (Gid == Empty) {
        Gid = uint32_t(G.FirstRow.size());
        G.FirstRow.push_back(R);
        SlotGid[S] = Gid;
        SlotHash[S] = Hs[R];
        G.GroupOf[R] = Gid;
        break;
      }
      if (SlotHash[S] == Hs[R] && Equal(G.FirstRow[Gid], R)) {
        G.GroupOf[R] = Gid;
        break;
      }
      S = (S + 1) & (Cap - 1);
    }
  }
  return G;
}
