//===- bench/bench_micro.cpp - Micro-benchmarks (google-benchmark) ------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the pieces whose costs Section 9 discusses: the
/// component evaluator (the paper's R-interpreter bottleneck, 68% of its
/// runtime), the DEDUCE SMT query, the abstraction function α, and type
/// inhabitation enumeration.
///
//===----------------------------------------------------------------------===//

#include "interp/Components.h"
#include "smt/Deduce.h"
#include "suite/Task.h"
#include "synth/Inhabitation.h"
#include "table/TableUtils.h"

#include <benchmark/benchmark.h>

using namespace morpheus;
using namespace morpheus::pb;

namespace {

Table wideTable(size_t Rows) {
  std::vector<Row> Data;
  for (size_t I = 0; I != Rows; ++I)
    Data.push_back({str("id" + std::to_string(I)), num(double(I)),
                    num(double(I * 2)), num(double(I % 7))});
  return makeTable({{"id", CellType::Str},
                    {"a", CellType::Num},
                    {"b", CellType::Num},
                    {"c", CellType::Num}},
                   std::move(Data));
}

void BM_GatherSpreadRoundTrip(benchmark::State &State) {
  Table In = wideTable(size_t(State.range(0)));
  HypPtr P = spread(gather(in(0), "key", "val", {"a", "b", "c"}), "key",
                    "val");
  for (auto _ : State) {
    auto T = P->evaluate({In});
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_GatherSpreadRoundTrip)->Arg(10)->Arg(100)->Arg(1000);

void BM_GroupSummarise(benchmark::State &State) {
  Table In = wideTable(size_t(State.range(0)));
  HypPtr P = summarise(groupBy(in(0), {"c"}), "total", "sum", "a");
  for (auto _ : State) {
    auto T = P->evaluate({In});
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_GroupSummarise)->Arg(10)->Arg(100)->Arg(1000);

void BM_InnerJoin(benchmark::State &State) {
  Table A = wideTable(size_t(State.range(0)));
  Table B = makeTable({{"c", CellType::Num}, {"tag", CellType::Str}},
                      {{num(0), str("even")},
                       {num(1), str("odd")},
                       {num(2), str("two")},
                       {num(3), str("three")},
                       {num(4), str("four")},
                       {num(5), str("five")},
                       {num(6), str("six")}});
  HypPtr P = innerJoin(in(0), in(1));
  for (auto _ : State) {
    auto T = P->evaluate({A, B});
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_InnerJoin)->Arg(10)->Arg(100);

void BM_Abstraction(benchmark::State &State) {
  Table In = wideTable(size_t(State.range(0)));
  ExampleBase Base = ExampleBase::fromInputs({In});
  for (auto _ : State) {
    AttrValues A = abstractTable(In, Base);
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_Abstraction)->Arg(10)->Arg(100)->Arg(1000);

void BM_DeduceSatisfiable(benchmark::State &State) {
  Table In = wideTable(50);
  HypPtr GT = summarise(groupBy(in(0), {"c"}), "total", "sum", "a");
  Table Out = *GT->evaluate({In});
  DeductionEngine E({In}, Out);
  HypPtr H = Hypothesis::apply(
      StandardComponents::get().find("summarise"),
      {Hypothesis::apply(StandardComponents::get().find("group_by"),
                         {Hypothesis::input(0),
                          Hypothesis::valueHole(ParamKind::Cols)}),
       Hypothesis::valueHole(ParamKind::NewName),
       Hypothesis::valueHole(ParamKind::Agg)});
  for (auto _ : State) {
    bool R = E.deduce(H, SpecLevel::Spec2, true);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_DeduceSatisfiable);

void BM_DeduceRefuted(benchmark::State &State) {
  // The Appendix Example 13 refutation: spread straight off the input.
  Table In = wideTable(50);
  Table Out = makeTable({{"brand_new1", CellType::Num},
                         {"brand_new2", CellType::Num}},
                        {{num(-1), num(-2)}});
  DeductionEngine E({In}, Out);
  HypPtr H = Hypothesis::apply(
      StandardComponents::get().find("spread"),
      {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::ColName),
       Hypothesis::valueHole(ParamKind::ColName)});
  for (auto _ : State) {
    bool R = E.deduce(H, SpecLevel::Spec2, true);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_DeduceRefuted);

void BM_InhabitationPred(benchmark::State &State) {
  Table In = wideTable(size_t(State.range(0)));
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  Inhabitation Inhab(Lib);
  for (auto _ : State) {
    size_t Count = 0;
    Inhab.enumerate(ParamKind::Pred, {In}, In, 0, [&](TermPtr) {
      ++Count;
      return true;
    });
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_InhabitationPred)->Arg(10)->Arg(100);

void BM_InhabitationColsOrdered(benchmark::State &State) {
  Table In = wideTable(20);
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  Inhabitation Inhab(Lib);
  for (auto _ : State) {
    size_t Count = 0;
    Inhab.enumerate(ParamKind::ColsOrdered, {In}, In, 0, [&](TermPtr) {
      ++Count;
      return true;
    });
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_InhabitationColsOrdered);

//===----------------------------------------------------------------------===//
// Candidate-check / table-equality: the operation the synthesizer runs
// millions of times per task, on candidates fresh from component evaluation.
//===----------------------------------------------------------------------===//

/// A pool of candidate tables shaped like the output: one true match (in a
/// different row order) and near-misses differing in a single cell.
std::vector<Table> candidatePool(const Table &Output) {
  std::vector<Table> Pool;
  size_t N = Output.numRows();
  // The match, rotated.
  std::vector<Row> Rotated;
  for (size_t R = 0; R != N; ++R)
    Rotated.push_back(Output.row((R + N / 2) % N));
  Pool.push_back(Table(Output.schema(), Rotated));
  // 15 near-misses: one numeric cell nudged.
  for (size_t K = 1; K != 16; ++K) {
    std::vector<Row> Rows;
    for (size_t R = 0; R != N; ++R)
      Rows.push_back(Output.row(R));
    Rows[K % N][1] = num(Rows[K % N][1].num() + double(K));
    Pool.push_back(Table(Output.schema(), Rows));
  }
  return Pool;
}

void BM_CandidateCheckColumnar(benchmark::State &State) {
  Table Output = wideTable(size_t(State.range(0)));
  std::vector<Table> Pool = candidatePool(Output);
  // Candidate tables arrive fresh from component evaluation, so their
  // fingerprints are not yet cached: rebuild the table wrapper around the
  // shared columns each check (resets the caches; the cells never copy).
  std::vector<std::vector<ColumnPtr>> Cols;
  for (const Table &T : Pool) {
    std::vector<ColumnPtr> Handles;
    for (size_t C = 0; C != T.numCols(); ++C)
      Handles.push_back(T.colHandle(C));
    Cols.push_back(std::move(Handles));
  }
  uint64_t OutputFp = Output.fingerprint();
  Output.sortedPermutation(); // warmed once per search, as in checkCandidate
  size_t Matches = 0;
  for (auto _ : State) {
    for (size_t I = 0; I != Pool.size(); ++I) {
      Table Fresh(Pool[I].schema(), Cols[I], Pool[I].numRows());
      Matches += Fresh.fingerprint() == OutputFp &&
                 Fresh.equalsUnordered(Output);
    }
    benchmark::DoNotOptimize(Matches);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) * int64_t(Pool.size()));
}
BENCHMARK(BM_CandidateCheckColumnar)->Arg(16)->Arg(64)->Arg(256);

// The equalsUnordered hot call site (SqlSynthesizer::tryQuery) compares a
// stream of fresh candidate tables against ONE expected output: the output's
// fingerprint and canonical permutation are cached, so each call pays only
// for the fresh side. Matching tables are the worst case (a mismatch stops at
// the fingerprint).

void BM_TableEqualityColumnar(benchmark::State &State) {
  Table A = wideTable(size_t(State.range(0)));
  std::vector<Row> Rotated;
  for (size_t R = 0; R != A.numRows(); ++R)
    Rotated.push_back(A.row((R + A.numRows() / 2) % A.numRows()));
  Table B(A.schema(), Rotated);
  B.fingerprint();        // the expected output's caches warm once...
  B.sortedPermutation();
  std::vector<ColumnPtr> ACols;
  for (size_t C = 0; C != A.numCols(); ++C)
    ACols.push_back(A.colHandle(C));
  for (auto _ : State) {
    // ...while every candidate arrives fresh and uncached.
    Table FA(A.schema(), ACols, A.numRows());
    bool Eq = FA.equalsUnordered(B);
    benchmark::DoNotOptimize(Eq);
  }
}
BENCHMARK(BM_TableEqualityColumnar)->Arg(16)->Arg(64)->Arg(256);

void BM_Fingerprint(benchmark::State &State) {
  Table T = wideTable(size_t(State.range(0)));
  std::vector<ColumnPtr> Cols;
  for (size_t C = 0; C != T.numCols(); ++C)
    Cols.push_back(T.colHandle(C));
  for (auto _ : State) {
    Table Fresh(T.schema(), Cols, T.numRows());
    benchmark::DoNotOptimize(Fresh.fingerprint());
  }
}
BENCHMARK(BM_Fingerprint)->Arg(16)->Arg(64)->Arg(256);

//===----------------------------------------------------------------------===//
// Columnar hot paths: a sketch's last-hole candidate loop with and without
// the components' header gates, filter's row-wise predicate loop, and
// group-by's open-addressing key table.
//===----------------------------------------------------------------------===//

/// One last-hole candidate loop, as SearchContext::fillLastHole runs it for
/// a root component: every term the enumerator offers for the hole, over
/// shared table arguments, checked against the example output. The output
/// is a near miss (filter's result with one cell nudged), so no candidate
/// matches and neither arm early-exits: filter candidates with the right
/// row count reach the exact check, everything else has a wrong header.
/// Kernel-only arm: every candidate runs its kernel, then the check.
/// Gated arm: TableTransformer::mayYield first, the kernel only on a pass.
void candidateCheckArm(benchmark::State &State, bool Gated) {
  Table In = wideTable(size_t(State.range(0)));
  Table Output = *filter(in(0), "c", "<", num(4))->evaluate({In});
  {
    std::vector<Row> Rows;
    for (size_t R = 0; R != Output.numRows(); ++R)
      Rows.push_back(Output.row(R));
    Rows[0][1] = num(Rows[0][1].num() + 0.5);
    Output = Table(Output.schema(), Rows);
  }
  uint64_t OutputFp = Output.fingerprint();
  Output.sortedPermutation();

  const StandardComponents &SC = StandardComponents::get();
  ComponentLibrary Lib = SC.tidyDplyr();
  Inhabitation Inhab(Lib);
  struct Loop {
    const TableTransformer *X;
    std::vector<TermPtr> Fixed; // filled holes; the last slot varies
    std::vector<TermPtr> Terms;
  };
  std::vector<Loop> Loops;
  auto AddLoop = [&](const char *Name, ParamKind Kind,
                     std::vector<TermPtr> Fixed) {
    Loop L{SC.find(Name), std::move(Fixed), {}};
    L.Fixed.push_back(nullptr);
    Inhab.enumerate(Kind, {In}, Output, 0, [&](TermPtr T) {
      L.Terms.push_back(std::move(T));
      return true;
    });
    Loops.push_back(std::move(L));
  };
  AddLoop("filter", ParamKind::Pred, {});
  AddLoop("select", ParamKind::ColsOrdered, {});
  AddLoop("arrange", ParamKind::ColsOrdered, {});
  AddLoop("gather", ParamKind::Cols,
          {Term::nameLit("key"), Term::nameLit("val")});
  AddLoop("mutate", ParamKind::NumExpr, {Term::nameLit("d")});

  std::vector<Table> Tables{In};
  size_t Candidates = 0, Matches = 0;
  for (auto _ : State) {
    for (Loop &L : Loops) {
      for (const TermPtr &T : L.Terms) {
        L.Fixed.back() = T;
        ++Candidates;
        if (Gated && !L.X->mayYield(Tables, L.Fixed, Output))
          continue;
        std::optional<Table> C = L.X->apply(Tables, L.Fixed);
        Matches += C && C->numRows() == Output.numRows() &&
                   C->schema() == Output.schema() &&
                   C->fingerprint() == OutputFp && C->equalsUnordered(Output);
      }
    }
    benchmark::DoNotOptimize(Matches);
  }
  State.SetItemsProcessed(int64_t(Candidates));
}

void BM_CandidateCheckKernelOnly(benchmark::State &State) {
  candidateCheckArm(State, /*Gated=*/false);
}
BENCHMARK(BM_CandidateCheckKernelOnly)->Arg(16)->Arg(64)->Arg(256);

void BM_CandidateCheckGated(benchmark::State &State) {
  candidateCheckArm(State, /*Gated=*/true);
}
BENCHMARK(BM_CandidateCheckGated)->Arg(16)->Arg(64)->Arg(256);

void BM_Filter(benchmark::State &State) {
  Table In = wideTable(size_t(State.range(0)));
  HypPtr P = filter(in(0), "c", "<", num(4)); // keeps ~4/7 of the rows
  for (auto _ : State) {
    auto T = P->evaluate({In});
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_Filter)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GroupBy(benchmark::State &State) {
  Table In = wideTable(size_t(State.range(0)));
  std::vector<size_t> Keys = {0, 3}; // str id (all distinct) + num c (mod 7)
  for (auto _ : State) {
    RowGrouping G = groupRowsBy(In, Keys);
    benchmark::DoNotOptimize(G);
  }
}
BENCHMARK(BM_GroupBy)->Arg(100)->Arg(1000)->Arg(10000);

} // namespace

BENCHMARK_MAIN();
