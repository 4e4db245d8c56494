//===- ngram/NGramModel.h - Statistical cost model --------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 2-gram cost model of Section 8. The paper trains SRILM on code
/// snippets where each snippet is a "sentence" of table-transformer
/// "words"; the model scores hypotheses so the worklist explores the most
/// promising one first. We implement a self-contained bigram model with
/// Laplace smoothing trained on an embedded corpus of idiomatic
/// tidyr/dplyr pipelines (DESIGN.md §1 documents this substitution).
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_NGRAM_NGRAMMODEL_H
#define MORPHEUS_NGRAM_NGRAMMODEL_H

#include <map>
#include <string>
#include <vector>

namespace morpheus {

/// Bigram model over component-name sentences with add-one smoothing.
class NGramModel {
public:
  /// Builds an empty (uniform) model; call train() to add sentences.
  NGramModel() = default;

  /// Adds one sentence (a component sequence) to the corpus.
  void train(const std::vector<std::string> &Sentence);

  /// Negative log-probability of \p Sentence under the model, including
  /// the start/end markers. Lower is more likely.
  double score(const std::vector<std::string> &Sentence) const;

  /// -log P(Next | Prev) with Laplace smoothing.
  double transitionCost(const std::string &Prev,
                        const std::string &Next) const;

  /// transitionCost over a fixed vocabulary, precomputed into a dense
  /// table so a hot caller scores a sentence by word index with no string
  /// work. Index size() stands for the start marker as Prev and for the
  /// end marker as Next; score() of a sentence equals the same
  /// left-to-right sum of cost() entries, bit for bit.
  class Table {
  public:
    Table(const NGramModel &M, const std::vector<std::string> &Words);
    /// The marker index: sentence start as Prev, sentence end as Next.
    size_t marker() const { return N; }
    double cost(size_t Prev, size_t Next) const {
      return Costs[Prev * (N + 1) + Next];
    }

  private:
    size_t N;
    std::vector<double> Costs;
  };

  /// The model used by the paper-style experiments: trained on an embedded
  /// corpus of pipeline skeletons mirroring common Stackoverflow answers
  /// (group_by|>summarise, gather|>spread, filter-first chains, ...).
  static const NGramModel &standard();

private:
  std::map<std::string, std::map<std::string, unsigned>> Counts;
  std::map<std::string, unsigned> Totals;
  std::map<std::string, unsigned> Vocab;
};

} // namespace morpheus

#endif // MORPHEUS_NGRAM_NGRAMMODEL_H
