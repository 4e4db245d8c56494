//===- smt/SpecCompiler.cpp - Compiled spec constraint templates --------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SpecCompiler.h"

using namespace morpheus;

namespace {

bool mentionsGroup(const SpecExpr &E) {
  switch (E.K) {
  case SpecExpr::Kind::Const:
    return false;
  case SpecExpr::Kind::Attr:
    return E.Attr == TableAttr::Group;
  default:
    return mentionsGroup(*E.Lhs) || mentionsGroup(*E.Rhs);
  }
}

z3::expr compileExpr(z3::context &Ctx, const SpecExpr &E,
                     const std::vector<NodeVars> &Args,
                     const NodeVars &Result) {
  switch (E.K) {
  case SpecExpr::Kind::Const:
    return Ctx.int_val(int64_t(E.ConstVal));
  case SpecExpr::Kind::Attr: {
    const NodeVars &N = E.ArgIndex < 0 ? Result : Args[size_t(E.ArgIndex)];
    return N.get(E.Attr);
  }
  case SpecExpr::Kind::Add:
    return compileExpr(Ctx, *E.Lhs, Args, Result) +
           compileExpr(Ctx, *E.Rhs, Args, Result);
  case SpecExpr::Kind::Sub:
    return compileExpr(Ctx, *E.Lhs, Args, Result) -
           compileExpr(Ctx, *E.Rhs, Args, Result);
  case SpecExpr::Kind::Min: {
    z3::expr L = compileExpr(Ctx, *E.Lhs, Args, Result);
    z3::expr R = compileExpr(Ctx, *E.Rhs, Args, Result);
    return z3::ite(L <= R, L, R);
  }
  case SpecExpr::Kind::Max: {
    z3::expr L = compileExpr(Ctx, *E.Lhs, Args, Result);
    z3::expr R = compileExpr(Ctx, *E.Rhs, Args, Result);
    return z3::ite(L >= R, L, R);
  }
  }
  return Ctx.int_val(0);
}

z3::expr compileAtom(z3::context &Ctx, const SpecAtom &A,
                     const std::vector<NodeVars> &Args,
                     const NodeVars &Result) {
  z3::expr L = compileExpr(Ctx, *A.Lhs, Args, Result);
  z3::expr R = compileExpr(Ctx, *A.Rhs, Args, Result);
  switch (A.Op) {
  case SpecCmp::EQ:
    return L == R;
  case SpecCmp::LT:
    return L < R;
  case SpecCmp::LE:
    return L <= R;
  case SpecCmp::GT:
    return L > R;
  case SpecCmp::GE:
    return L >= R;
  }
  return L == R;
}

void appendNode(z3::expr_vector &Out, const NodeVars &N) {
  Out.push_back(N.Row);
  Out.push_back(N.Col);
  Out.push_back(N.Group);
  Out.push_back(N.NewCols);
  Out.push_back(N.NewVals);
}

} // namespace

z3::expr SpecTemplate::instantiate(const std::vector<NodeVars> &Args,
                                   const NodeVars &Result) const {
  z3::expr_vector Dst(Formula.ctx());
  for (const NodeVars &A : Args)
    appendNode(Dst, A);
  appendNode(Dst, Result);
  assert(Dst.size() == Params.size() &&
         "argument count does not match the compiled template");
  // substitute() is non-const in z3++ but purely functional: it builds a
  // new (hash-consed) AST and leaves the template untouched.
  return const_cast<z3::expr &>(Formula).substitute(
      const_cast<z3::expr_vector &>(Params), Dst);
}

NodeVars SpecCompiler::placeholderNode(const std::string &Prefix) const {
  auto Var = [&](const char *Attr) {
    return Ctx.int_const((Prefix + Attr).c_str());
  };
  return {Var("_r"), Var("_c"), Var("_g"), Var("_nc"), Var("_nv")};
}

SpecCompiler::SpecCompiler(z3::context &Ctx)
    : Ctx(Ctx), AxiomNode(placeholderNode("$n")), AxiomTemplate(Ctx),
      AxiomParams(Ctx) {
  const NodeVars &N = AxiomNode;
  AxiomTemplate = N.Row >= 0 && N.Col >= 1 && N.Group >= 1 &&
                  N.NewCols >= 0 && N.NewVals >= N.NewCols &&
                  N.NewCols <= N.Col;
  appendNode(AxiomParams, N);
}

z3::expr SpecCompiler::axiomsFor(const NodeVars &N) const {
  z3::expr_vector Dst(Ctx);
  appendNode(Dst, N);
  return const_cast<z3::expr &>(AxiomTemplate)
      .substitute(const_cast<z3::expr_vector &>(AxiomParams), Dst);
}

SpecTemplate SpecCompiler::compile(const SpecFormula &F,
                                   unsigned NumTableArgs) {
  SpecTemplate T(Ctx);
  std::vector<NodeVars> Args;
  Args.reserve(NumTableArgs);
  for (unsigned I = 0; I != NumTableArgs; ++I)
    Args.push_back(placeholderNode("$a" + std::to_string(I)));
  NodeVars Result = placeholderNode("$y");

  z3::expr_vector Conj(Ctx);
  for (const SpecAtom &A : F.Atoms) {
    Conj.push_back(compileAtom(Ctx, A, Args, Result));
    if (!mentionsGroup(*A.Lhs) && !mentionsGroup(*A.Rhs))
      T.NonGroup.Atoms.push_back(A);
  }
  T.Trivial = F.Atoms.empty();
  T.Formula = T.Trivial ? Ctx.bool_val(true) : z3::mk_and(Conj);
  for (const NodeVars &A : Args)
    appendNode(T.Params, A);
  appendNode(T.Params, Result);
  return T;
}

const SpecTemplate &SpecCompiler::get(const TableTransformer *X,
                                      SpecLevel Level) {
  size_t Slot = Level == SpecLevel::Spec1 ? 0 : 1;
  uint64_t Key = X->specId();
  auto It = Cache.find(Key);
  if (It == Cache.end()) {
    std::vector<SpecTemplate> Slots;
    Slots.reserve(2);
    for (SpecLevel L : {SpecLevel::Spec1, SpecLevel::Spec2})
      Slots.push_back(compile(X->spec(L), X->numTableArgs()));
    Compilations += 2;
    It = Cache.emplace(Key, std::move(Slots)).first;
  } else {
    ++Hits;
  }
  return It->second[Slot];
}
