//===- spec/Abstraction.h - The abstraction function α ----------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstraction function α of Section 6: maps a concrete table to the
/// abstract attribute values the deduction engine constrains. Following
/// Appendix A Example 13, `newCols`/`newVals` are computed against base
/// sets formed from ALL input example tables: Sh (their column names) and
/// Sc (their column names plus printed cell values). `group` is a purely
/// abstract attribute — it is never derived from a concrete table (the
/// paper sets the output's group to a fresh positive variable even though
/// the output is concrete); input tables get group = 1.
///
/// The base sets are sets of interned canonical tokens (TableUtils), so
/// membership tests inside α are integer hash probes, not string compares.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SPEC_ABSTRACTION_H
#define MORPHEUS_SPEC_ABSTRACTION_H

#include "lang/Spec.h"
#include "table/TableUtils.h"

#include <memory>
#include <vector>

namespace morpheus {

/// The base sets Sh (headers) and Sc (headers + values) of the input
/// example tables, fixed for the duration of one synthesis problem.
struct ExampleBase {
  TokenSet Headers;
  TokenSet Values;

  static ExampleBase fromInputs(const std::vector<Table> &Inputs);
};

/// α(T): the concrete attribute values of \p T relative to \p Base.
/// The returned Group field is set to 1 and must only be used for input
/// tables (see file comment).
AttrValues abstractTable(const Table &T, const ExampleBase &Base);

/// 64-bit content fingerprint of one example E = (Inputs, Output): an
/// order-sensitive fold of the tables' fingerprints (input position is
/// observable through program variables). Everything a DEDUCE verdict
/// depends on beyond the query itself is a function of the example, so
/// this names the scope of any fact deduction derives (the service tags
/// its bus events with it).
uint64_t exampleFingerprint(const std::vector<Table> &Inputs,
                            const Table &Output);

/// Everything about one example that deduction precomputes: the base
/// sets, the abstractions α(Ti) of every input (with group pinned to 1
/// per Appendix A), and α(Tout). Immutable once built, so one context is
/// shared by every portfolio member / search thread solving the example
/// instead of each DeductionEngine recomputing α N times per solve.
struct ExampleContext {
  std::vector<Table> Inputs;
  Table Output;
  ExampleBase Base;
  std::vector<AttrValues> InputAbs;
  AttrValues OutputAbs;
  uint64_t Fingerprint = 0; ///< exampleFingerprint(Inputs, Output)

  static std::shared_ptr<const ExampleContext>
  make(std::vector<Table> Inputs, Table Output);
};

} // namespace morpheus

#endif // MORPHEUS_SPEC_ABSTRACTION_H
