//===- smt/SpecCompiler.h - Compiled spec constraint templates --*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tier 1 of the deduction substrate: per (component, spec level), the
/// SpecFormula is compiled ONCE into a Z3 constraint template over fixed
/// placeholder attribute variables, and every later deduce call merely
/// *instantiates* the template — a hash-consed Z3_substitute over the
/// per-node attribute variables — instead of re-walking the SpecExpr tree
/// and re-encoding atom by atom.
///
/// The compiler also owns the two other example-independent encodings the
/// old DeductionEngine rebuilt on every call:
///  - the domain axioms of one table node (row >= 0, col >= 1, ...),
///    compiled once over a placeholder node;
///  - the group-free projection of each spec (the atoms the concrete fast
///    path can evaluate directly), cached so the hot fastCheck never
///    re-filters atoms.
///
/// Z3 ASTs are context-bound, so a SpecCompiler is per-context. The
/// context, its solver and this compiler form a *core* that deduction
/// engines lease from a process-wide pool (smt/Deduce.cpp) and hand back
/// when they die, so "once" means once per core — a core serves up to 256
/// solves — rather than once per solve. Because templates outlive the
/// solve that compiled them, the cache keys on TableTransformer::specId(),
/// which is never reused, not on the component's address: a freed user
/// component's address may be taken by a new one with a different spec.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SMT_SPECCOMPILER_H
#define MORPHEUS_SMT_SPECCOMPILER_H

#include "lang/Component.h"

#include <cstdint>
#include <unordered_map>
#include <vector>
#include <z3++.h>

namespace morpheus {

/// Attribute variables (or constants) of one table-typed node.
struct NodeVars {
  z3::expr Row, Col, Group, NewCols, NewVals;

  z3::expr get(TableAttr A) const {
    switch (A) {
    case TableAttr::Row:
      return Row;
    case TableAttr::Col:
      return Col;
    case TableAttr::Group:
      return Group;
    case TableAttr::NewCols:
      return NewCols;
    case TableAttr::NewVals:
      return NewVals;
    }
    return Row;
  }
};

/// A compiled constraint over placeholder variables, instantiated by
/// substitution. Placeholders use a '$' prefix so they can never collide
/// with the engine's per-position variables (r1, c5, ...).
struct SpecTemplate {
  /// The conjunction of the formula's atoms over the placeholders
  /// ($a0_r, ..., $y_nv); `true` when the spec has no atoms.
  z3::expr Formula;
  /// The placeholder variables, in substitution order: 5 per table
  /// argument, then 5 for the result.
  z3::expr_vector Params;
  /// No atoms — instantiate() callers can skip the solver assert.
  bool Trivial = true;
  /// The group-free atoms of the source formula, for the concrete fast
  /// path (the group attribute is abstract and never concretely known).
  SpecFormula NonGroup;

  SpecTemplate(z3::context &Ctx) : Formula(Ctx), Params(Ctx) {}

  /// The template with the placeholders replaced by \p Args / \p Result.
  z3::expr instantiate(const std::vector<NodeVars> &Args,
                       const NodeVars &Result) const;
};

/// Per-context template cache. Not thread-safe (neither is the context).
/// The counters are cumulative over the compiler's life; engines report
/// their own share as the difference since they leased it.
class SpecCompiler {
public:
  explicit SpecCompiler(z3::context &Ctx);

  /// The compiled template for \p X's spec at \p Level; compiled on first
  /// request, returned from cache afterwards.
  const SpecTemplate &get(const TableTransformer *X, SpecLevel Level);

  /// The domain axioms of one table node, instantiated for \p N: attrs
  /// nonnegative, at least one column and group, every new column name is
  /// a new value, new column names are column names.
  z3::expr axiomsFor(const NodeVars &N) const;

  uint64_t compilations() const { return Compilations; }
  uint64_t hits() const { return Hits; }

private:
  z3::context &Ctx;
  /// Key: TableTransformer::specId(), one slot per spec level.
  std::unordered_map<uint64_t, std::vector<SpecTemplate>> Cache;
  /// Placeholder node for the axiom template.
  NodeVars AxiomNode;
  z3::expr AxiomTemplate;
  z3::expr_vector AxiomParams;
  uint64_t Compilations = 0;
  uint64_t Hits = 0;

  NodeVars placeholderNode(const std::string &Prefix) const;
  SpecTemplate compile(const SpecFormula &F, unsigned NumTableArgs);
};

} // namespace morpheus

#endif // MORPHEUS_SMT_SPECCOMPILER_H
