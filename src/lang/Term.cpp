//===- lang/Term.cpp - First-order terms ------------------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Term.h"

#include <sstream>

using namespace morpheus;

std::string_view morpheus::paramKindName(ParamKind K) {
  switch (K) {
  case ParamKind::Cols:
    return "cols";
  case ParamKind::ColsOrdered:
    return "cols!";
  case ParamKind::ColName:
    return "colname";
  case ParamKind::NewName:
    return "newname";
  case ParamKind::Pred:
    return "row->bool";
  case ParamKind::Agg:
    return "agg";
  case ParamKind::NumExpr:
    return "numexpr";
  }
  return "?";
}

TermPtr Term::constant(Value V) {
  auto T = std::make_shared<Term>();
  T->K = Kind::Const;
  T->ConstVal = std::move(V);
  return T;
}

TermPtr Term::colRef(std::string Col) {
  uint32_t Id = StringInterner::global().intern(Col);
  return colRef(std::move(Col), Id);
}

TermPtr Term::colRef(std::string Col, uint32_t ColId) {
  auto T = std::make_shared<Term>();
  T->K = Kind::ColRef;
  T->Name = std::move(Col);
  T->NameId = ColId;
  return T;
}

TermPtr Term::colsLit(std::vector<std::string> Cols) {
  auto T = std::make_shared<Term>();
  T->K = Kind::ColsLit;
  T->Cols = std::move(Cols);
  return T;
}

TermPtr Term::nameLit(std::string Name) {
  uint32_t Id = StringInterner::global().intern(Name);
  return nameLit(std::move(Name), Id);
}

TermPtr Term::nameLit(std::string Name, uint32_t NameId) {
  auto T = std::make_shared<Term>();
  T->K = Kind::NameLit;
  T->Name = std::move(Name);
  T->NameId = NameId;
  return T;
}

TermPtr Term::app(const ValueTransformer *Fn, std::vector<TermPtr> Args) {
  assert(Fn && "null value transformer");
  auto T = std::make_shared<Term>();
  T->K = Kind::App;
  T->Fn = Fn;
  T->Args = std::move(Args);
  return T;
}

std::string Term::toString() const {
  switch (K) {
  case Kind::Const:
    return ConstVal.isStr() ? "\"" + ConstVal.toString() + "\""
                            : ConstVal.toString();
  case Kind::ColRef:
  case Kind::NameLit:
    return Name;
  case Kind::ColsLit: {
    std::ostringstream OS;
    for (size_t I = 0; I != Cols.size(); ++I)
      OS << (I ? ", " : "") << Cols[I];
    return OS.str();
  }
  case Kind::App: {
    if (Fn->printsInfix() && Args.size() == 2)
      return Args[0]->toString() + " " + Fn->name() + " " +
             Args[1]->toString();
    std::ostringstream OS;
    OS << Fn->name() << '(';
    for (size_t I = 0; I != Args.size(); ++I)
      OS << (I ? ", " : "") << Args[I]->toString();
    OS << ')';
    return OS.str();
  }
  }
  return "?";
}

ValueTransformer::ValueTransformer(std::string Name, unsigned Arity,
                                   CellType ResultType, ScalarFn Fn,
                                   bool InfixPrint)
    : Name(std::move(Name)), Arity(Arity), ResultType(ResultType),
      Aggregate(false), InfixPrint(InfixPrint), Scalar(std::move(Fn)) {}

ValueTransformer ValueTransformer::makeAggregate(std::string Name,
                                                 unsigned Arity,
                                                 AggregateFn Fn) {
  ValueTransformer VT;
  VT.Name = std::move(Name);
  VT.Arity = Arity;
  VT.ResultType = CellType::Num;
  VT.Aggregate = true;
  VT.Agg = std::move(Fn);
  return VT;
}

std::optional<Value>
ValueTransformer::applyScalar(const std::vector<Value> &Args) const {
  assert(!Aggregate && "scalar application of an aggregate operator");
  if (Args.size() != Arity)
    return std::nullopt;
  return Scalar(Args);
}

std::optional<Value>
ValueTransformer::applyAggregate(const std::vector<Value> &Column) const {
  assert(Aggregate && "aggregate application of a scalar operator");
  return Agg(Column);
}

std::optional<Value> morpheus::evalTerm(const Term &T,
                                        const EvalContext &Ctx) {
  switch (T.K) {
  case Term::Kind::Const:
    return T.ConstVal;
  case Term::Kind::NameLit:
    return Value::strOfId(T.NameId);
  case Term::Kind::ColsLit:
    return std::nullopt; // not a scalar; consumed structurally by components
  case Term::Kind::ColRef: {
    if (!Ctx.T || Ctx.RowIdx >= Ctx.T->numRows())
      return std::nullopt;
    std::optional<size_t> Idx = Ctx.T->schema().indexOf(T.NameId);
    if (!Idx)
      return std::nullopt;
    return Ctx.T->at(Ctx.RowIdx, *Idx);
  }
  case Term::Kind::App: {
    if (T.Fn->isAggregate()) {
      // Aggregates reduce a single column over the context group.
      if (!Ctx.T || !Ctx.GroupRows)
        return std::nullopt;
      std::vector<Value> Column;
      if (T.Fn->arity() == 1) {
        if (T.Args.size() != 1 || T.Args[0]->K != Term::Kind::ColRef)
          return std::nullopt;
        std::optional<size_t> Idx =
            Ctx.T->schema().indexOf(T.Args[0]->NameId);
        if (!Idx)
          return std::nullopt;
        const ColumnData &Cells = Ctx.T->col(*Idx);
        Column.reserve(Ctx.GroupRows->size());
        for (size_t R : *Ctx.GroupRows)
          Column.push_back(Cells[R]);
      } else {
        // n(): counts rows; represent the group size as a column of the
        // right length.
        Column.resize(Ctx.GroupRows->size());
      }
      return T.Fn->applyAggregate(Column);
    }
    std::vector<Value> Args;
    Args.reserve(T.Args.size());
    for (const TermPtr &A : T.Args) {
      std::optional<Value> V = evalTerm(*A, Ctx);
      if (!V)
        return std::nullopt;
      Args.push_back(std::move(*V));
    }
    return T.Fn->applyScalar(Args);
  }
  }
  return std::nullopt;
}
