//===- ngram/NGramModel.cpp - Statistical cost model -------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "ngram/NGramModel.h"

#include <cmath>

using namespace morpheus;

static const char *StartTok = "<s>";
static const char *EndTok = "</s>";

void NGramModel::train(const std::vector<std::string> &Sentence) {
  std::string Prev = StartTok;
  Vocab[StartTok];
  for (const std::string &W : Sentence) {
    ++Counts[Prev][W];
    ++Totals[Prev];
    ++Vocab[W];
    Prev = W;
  }
  ++Counts[Prev][EndTok];
  ++Totals[Prev];
  ++Vocab[EndTok];
}

double NGramModel::transitionCost(const std::string &Prev,
                                  const std::string &Next) const {
  // Laplace smoothing: (count + 1) / (total + |V| + 1). The +1 in the
  // denominator accounts for out-of-vocabulary successors.
  double V = double(Vocab.size()) + 1.0;
  double Count = 0, Total = 0;
  auto TotIt = Totals.find(Prev);
  if (TotIt != Totals.end()) {
    Total = TotIt->second;
    auto RowIt = Counts.find(Prev);
    auto It = RowIt->second.find(Next);
    if (It != RowIt->second.end())
      Count = It->second;
  }
  return -std::log((Count + 1.0) / (Total + V));
}

double NGramModel::score(const std::vector<std::string> &Sentence) const {
  double Cost = 0;
  std::string Prev = StartTok;
  for (const std::string &W : Sentence) {
    Cost += transitionCost(Prev, W);
    Prev = W;
  }
  return Cost + transitionCost(Prev, EndTok);
}

NGramModel::Table::Table(const NGramModel &M,
                         const std::vector<std::string> &Words)
    : N(Words.size()), Costs((N + 1) * (N + 1)) {
  for (size_t P = 0; P <= N; ++P)
    for (size_t X = 0; X <= N; ++X)
      Costs[P * (N + 1) + X] = M.transitionCost(P == N ? StartTok : Words[P],
                                                X == N ? EndTok : Words[X]);
}

const NGramModel &NGramModel::standard() {
  static NGramModel Model = [] {
    NGramModel M;
    // Embedded corpus of pipeline skeletons; each line mirrors a shape
    // that recurs in tidyr/dplyr answers on Stackoverflow. Frequencies
    // encode idiom strength (e.g. summarise follows group_by far more
    // often than it follows spread).
    const std::vector<std::vector<std::string>> Corpus = {
        {"group_by", "summarise"},
        {"group_by", "summarise"},
        {"group_by", "summarise"},
        {"group_by", "summarise", "mutate"},
        {"group_by", "summarise", "mutate"},
        {"filter", "group_by", "summarise"},
        {"filter", "group_by", "summarise", "mutate"},
        {"filter", "group_by", "summarise", "mutate"},
        {"group_by", "summarise", "filter"},
        {"group_by", "mutate"},
        {"group_by", "mutate", "filter"},
        {"gather", "spread"},
        {"gather", "unite", "spread"},
        {"gather", "unite", "spread"},
        {"gather", "separate", "spread"},
        {"gather", "separate", "spread"},
        {"spread", "select"},
        {"separate", "spread"},
        {"unite", "spread"},
        {"gather", "group_by", "summarise"},
        {"gather", "filter"},
        {"gather", "spread", "select"},
        {"mutate", "select"},
        {"mutate", "filter"},
        {"mutate", "mutate"},
        {"filter", "select"},
        {"filter", "mutate"},
        {"filter", "summarise"},
        {"select", "filter"},
        {"select", "group_by", "summarise"},
        {"inner_join", "filter"},
        {"inner_join", "group_by", "summarise"},
        {"inner_join", "select"},
        {"inner_join", "mutate"},
        {"gather", "inner_join", "filter"},
        {"gather", "gather", "inner_join"},
        {"spread", "mutate"},
        {"spread", "mutate"},
        {"separate", "spread", "mutate"},
        {"gather", "unite", "spread", "mutate"},
        {"gather", "separate", "spread"},
        {"gather", "inner_join", "group_by", "summarise"},
        {"inner_join", "filter", "arrange"},
        {"filter", "arrange"},
        {"arrange", "select"},
        {"summarise", "arrange"},
        {"group_by", "summarise", "arrange"},
        {"distinct", "select"},
        {"select", "distinct"},
        {"filter", "distinct"},
    };
    for (const auto &Sentence : Corpus)
      M.train(Sentence);
    return M;
  }();
  return Model;
}
