//===- support/Simd.h - The kernel tier name --------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The name of the engine's kernel tier. There is one: the columnar hot
/// path is plain loops over Value (table/Value.h), which the compiler is
/// free to vectorize for the build's target. The benchmark's meta line
/// (perfbench/runner.cpp) stamps simdLevelName(activeSimdLevel()) and is the
/// only caller of these names.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SUPPORT_SIMD_H
#define MORPHEUS_SUPPORT_SIMD_H

#include <string_view>

namespace morpheus {
namespace simd {

enum class SimdLevel : int { Scalar = 0 };

constexpr SimdLevel activeSimdLevel() { return SimdLevel::Scalar; }

constexpr std::string_view simdLevelName(SimdLevel) { return "scalar"; }

} // namespace simd
} // namespace morpheus

#endif // MORPHEUS_SUPPORT_SIMD_H
