//===- lang/Hypothesis.cpp - Refinement trees --------------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Hypothesis.h"

#include <atomic>
#include <sstream>

using namespace morpheus;

TableTransformer::~TableTransformer() = default;

uint64_t TableTransformer::nextSpecId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

const TableTransformer *
ComponentLibrary::findTable(std::string_view Name) const {
  for (const TableTransformer *T : TableTransformers)
    if (T->name() == Name)
      return T;
  return nullptr;
}

const ValueTransformer *
ComponentLibrary::findValue(std::string_view Name) const {
  for (const ValueTransformer *V : ValueTransformers)
    if (V->name() == Name)
      return V;
  return nullptr;
}

HypPtr Hypothesis::tblHole() {
  auto H = std::make_shared<Hypothesis>(Token());
  H->K = Kind::TblHole;
  H->NumTblHoles = 1;
  return H;
}

HypPtr Hypothesis::valueHole(ParamKind PK) {
  auto H = std::make_shared<Hypothesis>(Token());
  H->K = Kind::ValueHole;
  H->PKind = PK;
  H->NumValueHoles = 1;
  return H;
}

HypPtr Hypothesis::input(size_t InputIdx) {
  auto H = std::make_shared<Hypothesis>(Token());
  H->K = Kind::Input;
  H->InputIdx = InputIdx;
  return H;
}

HypPtr Hypothesis::filled(ParamKind PK, TermPtr T) {
  auto H = std::make_shared<Hypothesis>(Token());
  H->K = Kind::Filled;
  H->PKind = PK;
  H->FilledTerm = std::move(T);
  return H;
}

HypPtr Hypothesis::apply(const TableTransformer *X,
                         std::vector<HypPtr> Children) {
  assert(X && "null component");
  assert(Children.size() == X->numTableArgs() + X->valueParams().size() &&
         "child count does not match component signature");
  auto H = std::make_shared<Hypothesis>(Token());
  H->K = Kind::Apply;
  H->Comp = X;
  H->Children = std::move(Children);
  H->NumApplies = 1;
  for (const HypPtr &C : H->Children) {
    H->NumApplies += C->NumApplies;
    H->NumTblHoles += C->NumTblHoles;
    H->NumValueHoles += C->NumValueHoles;
  }
  return H;
}

HypPtr Hypothesis::applyWithHoles(const TableTransformer *X) {
  std::vector<HypPtr> Children;
  for (unsigned I = 0; I != X->numTableArgs(); ++I)
    Children.push_back(tblHole());
  for (ParamKind PK : X->valueParams())
    Children.push_back(valueHole(PK));
  return apply(X, std::move(Children));
}

bool Hypothesis::isSketch() const { return numTblHoles() == 0; }

bool Hypothesis::isCompleteProgram() const {
  return numTblHoles() == 0 && numValueHoles() == 0;
}

HypPtr Hypothesis::replaceLeftmostTblHole(HypPtr Replacement) const {
  if (K == Kind::TblHole)
    return Replacement;
  assert(K == Kind::Apply && "no table hole below this node");
  std::vector<HypPtr> NewChildren = Children;
  for (size_t I = 0; I != NewChildren.size(); ++I) {
    if (NewChildren[I]->numTblHoles() == 0)
      continue;
    NewChildren[I] = NewChildren[I]->replaceLeftmostTblHole(Replacement);
    return apply(Comp, std::move(NewChildren));
  }
  assert(false && "no table hole below this node");
  return nullptr;
}

static void enumerateSketches(const HypPtr &H, size_t NumInputs,
                              std::vector<HypPtr> &Out) {
  if (H->numTblHoles() == 0) {
    Out.push_back(H);
    return;
  }
  for (size_t I = 0; I != NumInputs; ++I)
    enumerateSketches(H->replaceLeftmostTblHole(Hypothesis::input(I)),
                      NumInputs, Out);
}

std::vector<HypPtr> Hypothesis::sketches(size_t NumInputs) const {
  std::vector<HypPtr> Out;
  // Nodes do not derive from enable_shared_from_this; rebuild a cheap
  // alias.
  HypPtr Self;
  if (K == Kind::TblHole)
    Self = tblHole();
  else if (K == Kind::Apply)
    Self = apply(Comp, Children);
  else
    Self = nullptr;
  if (!Self)
    return Out;
  enumerateSketches(Self, NumInputs, Out);
  return Out;
}

std::optional<Table>
Hypothesis::evaluate(const std::vector<Table> &Inputs) const {
  switch (K) {
  case Kind::Input:
    if (InputIdx >= Inputs.size())
      return std::nullopt;
    return Inputs[InputIdx];
  case Kind::Apply: {
    std::vector<Table> TableArgs;
    std::vector<TermPtr> ValueArgs;
    for (const HypPtr &C : Children) {
      if (C->isTableTyped()) {
        std::optional<Table> T = C->evaluate(Inputs);
        if (!T)
          return std::nullopt;
        TableArgs.push_back(std::move(*T));
      } else if (C->K == Kind::Filled) {
        ValueArgs.push_back(C->FilledTerm);
      } else {
        return std::nullopt; // unfilled value hole
      }
    }
    if (TableArgs.size() != Comp->numTableArgs())
      return std::nullopt;
    return Comp->apply(TableArgs, ValueArgs);
  }
  case Kind::TblHole:
  case Kind::ValueHole:
  case Kind::Filled:
    return std::nullopt;
  }
  return std::nullopt;
}

void Hypothesis::collectComponentNames(std::vector<std::string> &Out) const {
  if (K != Kind::Apply)
    return;
  // Post-order: children before the node, so a nested application prints
  // in pipeline order (filter |> group_by |> summarise), matching how the
  // n-gram corpus sentences are written.
  for (const HypPtr &C : Children)
    C->collectComponentNames(Out);
  Out.push_back(Comp->name());
}

std::string Hypothesis::toString() const {
  switch (K) {
  case Kind::TblHole:
    return "?tbl";
  case Kind::ValueHole:
    return "?" + std::string(paramKindName(PKind));
  case Kind::Input:
    return "x" + std::to_string(InputIdx);
  case Kind::Filled:
    return FilledTerm->toString();
  case Kind::Apply: {
    std::ostringstream OS;
    OS << Comp->name() << '(';
    for (size_t I = 0; I != Children.size(); ++I)
      OS << (I ? ", " : "") << Children[I]->toString();
    OS << ')';
    return OS.str();
  }
  }
  return "?";
}

