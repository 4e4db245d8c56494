//===- lang/Spec.cpp - First-order component specifications -----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Spec.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace morpheus;

std::string_view morpheus::tableAttrName(TableAttr A) {
  switch (A) {
  case TableAttr::Row:
    return "row";
  case TableAttr::Col:
    return "col";
  case TableAttr::Group:
    return "group";
  case TableAttr::NewCols:
    return "newCols";
  case TableAttr::NewVals:
    return "newVals";
  }
  return "?";
}

SpecExprPtr SpecExpr::constant(int64_t C) {
  auto E = std::make_shared<SpecExpr>();
  E->K = Kind::Const;
  E->ConstVal = C;
  return E;
}

SpecExprPtr SpecExpr::attr(int ArgIndex, TableAttr A) {
  auto E = std::make_shared<SpecExpr>();
  E->K = Kind::Attr;
  E->ArgIndex = ArgIndex;
  E->Attr = A;
  return E;
}

SpecExprPtr SpecExpr::binary(Kind K, SpecExprPtr L, SpecExprPtr R) {
  assert(K != Kind::Const && K != Kind::Attr && "binary kind expected");
  auto E = std::make_shared<SpecExpr>();
  E->K = K;
  E->Lhs = std::move(L);
  E->Rhs = std::move(R);
  return E;
}

std::string SpecExpr::toString() const {
  switch (K) {
  case Kind::Const:
    return std::to_string(ConstVal);
  case Kind::Attr: {
    std::string Base = ArgIndex < 0
                           ? std::string("Tout")
                           : "Tin" + std::to_string(ArgIndex + 1);
    return Base + "." + std::string(tableAttrName(Attr));
  }
  case Kind::Add:
    return Lhs->toString() + " + " + Rhs->toString();
  case Kind::Sub:
    return Lhs->toString() + " - " + Rhs->toString();
  case Kind::Min:
    return "Min(" + Lhs->toString() + ", " + Rhs->toString() + ")";
  case Kind::Max:
    return "Max(" + Lhs->toString() + ", " + Rhs->toString() + ")";
  }
  return "?";
}

static std::string_view cmpName(SpecCmp Op) {
  switch (Op) {
  case SpecCmp::EQ:
    return "=";
  case SpecCmp::LT:
    return "<";
  case SpecCmp::LE:
    return "<=";
  case SpecCmp::GT:
    return ">";
  case SpecCmp::GE:
    return ">=";
  }
  return "?";
}

std::string SpecAtom::toString() const {
  return Lhs->toString() + " " + std::string(cmpName(Op)) + " " +
         Rhs->toString();
}

std::string SpecFormula::toString() const {
  if (isTrue())
    return "true";
  std::ostringstream OS;
  for (size_t I = 0; I != Atoms.size(); ++I)
    OS << (I ? " /\\ " : "") << Atoms[I].toString();
  return OS.str();
}

static bool mentionsGroup(const SpecExpr &E) {
  switch (E.K) {
  case SpecExpr::Kind::Const:
    return false;
  case SpecExpr::Kind::Attr:
    return E.Attr == TableAttr::Group;
  default:
    return mentionsGroup(*E.Lhs) || mentionsGroup(*E.Rhs);
  }
}

bool morpheus::mentionsGroup(const SpecAtom &A) {
  return ::mentionsGroup(*A.Lhs) || ::mentionsGroup(*A.Rhs);
}

SpecFormula morpheus::groupFree(const SpecFormula &F) {
  SpecFormula Out;
  for (const SpecAtom &A : F.Atoms)
    if (!mentionsGroup(A))
      Out.Atoms.push_back(A);
  return Out;
}

int64_t AttrValues::get(TableAttr A) const {
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
  return 0;
}

static int64_t evalExpr(const SpecExpr &E, const std::vector<AttrValues> &Args,
                        const AttrValues &Result) {
  switch (E.K) {
  case SpecExpr::Kind::Const:
    return E.ConstVal;
  case SpecExpr::Kind::Attr: {
    if (E.ArgIndex < 0)
      return Result.get(E.Attr);
    assert(size_t(E.ArgIndex) < Args.size() && "spec arg out of range");
    return Args[E.ArgIndex].get(E.Attr);
  }
  case SpecExpr::Kind::Add:
    return evalExpr(*E.Lhs, Args, Result) + evalExpr(*E.Rhs, Args, Result);
  case SpecExpr::Kind::Sub:
    return evalExpr(*E.Lhs, Args, Result) - evalExpr(*E.Rhs, Args, Result);
  case SpecExpr::Kind::Min:
    return std::min(evalExpr(*E.Lhs, Args, Result),
                    evalExpr(*E.Rhs, Args, Result));
  case SpecExpr::Kind::Max:
    return std::max(evalExpr(*E.Lhs, Args, Result),
                    evalExpr(*E.Rhs, Args, Result));
  }
  return 0;
}

bool morpheus::evalSpec(const SpecFormula &F,
                        const std::vector<AttrValues> &Args,
                        const AttrValues &Result) {
  for (const SpecAtom &A : F.Atoms) {
    int64_t L = evalExpr(*A.Lhs, Args, Result);
    int64_t R = evalExpr(*A.Rhs, Args, Result);
    bool Ok = false;
    switch (A.Op) {
    case SpecCmp::EQ:
      Ok = L == R;
      break;
    case SpecCmp::LT:
      Ok = L < R;
      break;
    case SpecCmp::LE:
      Ok = L <= R;
      break;
    case SpecCmp::GT:
      Ok = L > R;
      break;
    case SpecCmp::GE:
      Ok = L >= R;
      break;
    }
    if (!Ok)
      return false;
  }
  return true;
}
