//===- smt/SpecCompiler.cpp - Spec formulas to Z3 ---------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "smt/SpecCompiler.h"

using namespace morpheus;

z3::expr morpheus::compileExpr(z3::context &Ctx, const SpecExpr &E,
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

z3::expr morpheus::compileAtom(z3::context &Ctx, const SpecAtom &A,
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

z3::expr morpheus::encodeSpec(z3::context &Ctx, const SpecFormula &F,
                              const std::vector<NodeVars> &Args,
                              const NodeVars &Result) {
  if (F.isTrue())
    return Ctx.bool_val(true);
  z3::expr_vector Conj(Ctx);
  for (const SpecAtom &A : F.Atoms)
    Conj.push_back(compileAtom(Ctx, A, Args, Result));
  return z3::mk_and(Conj);
}

z3::expr morpheus::nodeAxioms(const NodeVars &N) {
  return N.Row >= 0 && N.Col >= 1 && N.Group >= 1 && N.NewCols >= 0 &&
         N.NewVals >= N.NewCols && N.NewCols <= N.Col;
}
