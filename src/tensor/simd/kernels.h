#ifndef DAREC_TENSOR_SIMD_KERNELS_H_
#define DAREC_TENSOR_SIMD_KERNELS_H_

#include <cstdint>

#include "core/cpu_features.h"

namespace darec::tensor::simd {

/// Register-tile geometry of the blocked matmul (tensor/matrix.cc splits
/// row strips on kRowTile boundaries; the per-ISA kernels tile inside).
inline constexpr int64_t kMatMulRowTile = 4;   // C rows per register tile
inline constexpr int64_t kMatMulColTile = 32;  // C cols per register tile

/// Independent double accumulators of KernelTable::exp_row_sum.
inline constexpr int64_t kExpSumLanes = 16;

/// The ISA-specialized inner loops of the tensor hot path. One table per
/// compiled tier (scalar / AVX2+FMA / AVX-512F); tensor/matrix.cc calls
/// through the table returned by Kernels().
///
/// Bitwise contract: every implementation performs the exact same
/// per-element operation sequence as the scalar tier — multiply then add
/// (no FMA contraction), inner-dimension accumulation in ascending order —
/// so all tiers produce bit-identical results. The wider tiers only
/// vectorize across *independent* output elements, which never reorders a
/// per-element chain. Enforced by cpu_features_test and the golden traces.
///
/// The int8 kernels accumulate in exact int32 arithmetic, so they are
/// bitwise identical across tiers *regardless* of summation order — the
/// vectorizer is free to reassociate their reduction loops. The single
/// float op in i8_dequant_row keeps the fixed per-element order rule.
struct KernelTable {
  /// C rows [r0, r1) += A rows [r0, r1) · B, row-major; A is ·×k, B is
  /// k×n, C is ·×n (leading dimensions == logical widths).
  void (*matmul_row_range)(const float* a, const float* b, float* c,
                           int64_t k, int64_t n, int64_t r0, int64_t r1);
  /// dst[i] += scale * src[i] for i in [0, n).
  void (*axpy)(float* dst, const float* src, float scale, int64_t n);
  /// dst[i] *= scale for i in [0, n).
  void (*scale)(float* dst, float scale, int64_t n);
  /// dst[i] *= src[i] for i in [0, n).
  void (*hadamard)(float* dst, const float* src, int64_t n);
  /// drow[j] = max(a_norm + b_norms[j] - 2 * prow[j], 0) for j in [0, n) —
  /// the assembly loop of PairwiseSquaredDistances.
  void (*pairwise_assemble)(float* drow, const float* prow,
                            const float* b_norms, float a_norm, int64_t n);
  /// scores[j] = Σ_p user[p] * items[j*dim + p] for j in [0, num_items) —
  /// one quantized query row against a row-major int8 item block, int32
  /// accumulation (exact; products ≤ 127² so any widening scheme fits).
  void (*i8_score_row)(const int8_t* user, const int8_t* items, int64_t dim,
                       int64_t num_items, int32_t* scores);
  /// dst[j] = (user_scale * item_scales[j]) * float(scores[j]) for j in
  /// [0, n) — per-row symmetric dequantization of an int32 score row.
  void (*i8_dequant_row)(float* dst, const int32_t* scores,
                         const float* item_scales, float user_scale,
                         int64_t n);

  // --- Fused-traversal bodies (expression fusion, DESIGN.md §14) ---
  //
  // Each fused kernel performs the exact per-element float sequence of the
  // eager op chain it replaces (named in its comment), so fused ≡ eager
  // bitwise. Reductions accumulate in double in ascending flat order on one
  // thread — the same serial contract as SumAll/SumSquares — which keeps
  // them trivially tier- and thread-count-invariant; the grad kernels run
  // over independent output elements and may vectorize freely. Any grad
  // output pointer may be null to skip that input (constant operands).

  /// Σ_i double(d)·d with d = a[i] + (-1.0f)*b[i] — SumSquares(Sub(a, b)).
  double (*fused_sub_sumsq)(const float* a, const float* b, int64_t n);
  /// da[i] = (a[i] + (-1.0f)*b[i]) * scale; db[i] = da[i] * (-1.0f) —
  /// the backward of SumSquares(Sub(a, b)) with incoming scale.
  void (*fused_sub_grad)(float* da, float* db, const float* a, const float* b,
                         float scale, int64_t n);
  /// Σ_i double(u·u) with u = x[i] (+ bias when has_bias) — the float
  /// square then double accumulation of Sum(Square(AddScalar?(x, bias))).
  double (*fused_square_sum)(const float* x, float bias, int has_bias,
                             int64_t n);
  /// dx[i] = g * (2.0f * u) — the backward of the chain above.
  void (*fused_square_sum_grad)(float* dx, const float* x, float bias,
                                int has_bias, float g, int64_t n);
  /// Σ_i double(exp(((x[i]*s1) + b1) * s2)) —
  /// Sum(Exp(ScalarMul(AddScalar(ScalarMul(x, s1), b1), s2))). Writes each
  /// exp result to y[i] so the backward never re-evaluates exp.
  double (*fused_exp_affine_sum)(const float* x, float s1, float b1, float s2,
                                 float* y, int64_t n);
  /// dx[i] = ((g * y[i]) * s2) * s1 over the forward's stashed y.
  void (*fused_exp_affine_grad)(float* dx, const float* y, float s1, float s2,
                                float g, int64_t n);
  /// One row of RowSum(Mul(RowL2Normalize(a), RowL2Normalize(b))): norms as
  /// float(sqrt(Σ double(v)·v)), rows below eps pass through, dot as a
  /// double accumulation of the float products. Writes the two row norms to
  /// norms[0] (na) and norms[1] (nb) for the backward pass.
  float (*fused_cosine_row)(const float* a, const float* b, int64_t cols,
                            float eps, float* norms);
  /// Backward of one cosine row: reuses the forward's stashed norms and
  /// applies the RowSum → Mul → RowL2Normalize gradient chain.
  void (*fused_cosine_row_grad)(float* da, float* db, const float* a,
                                const float* b, float g, int64_t cols,
                                float eps, const float* norms);
  /// One row of RowSum(Mul(a, b)): Σ_c double(a[c]*b[c]).
  float (*fused_rowdot_row)(const float* a, const float* b, int64_t cols);
  /// da[c] = g * b[c]; db[c] = g * a[c].
  void (*fused_rowdot_row_grad)(float* da, float* db, const float* a,
                                const float* b, float g, int64_t cols);

  /// y[i] = exp(x[i] * scale - shift) for i in [0, n), returning Σ_i y[i]
  /// as a kExpSumLanes-lane blocked double sum (lane i % kExpSumLanes, lanes
  /// combined in ascending order). The exp is range reduction plus a
  /// polynomial in plain float arithmetic (no libm call), so it vectorizes
  /// and is bitwise identical across tiers; it is within 1 ulp of std::exp
  /// on the normal range, exactly 0 for inputs below ln(FLT_MIN) (masked
  /// -inf entries included), +inf above ln(FLT_MAX), NaN for NaN. `y` may
  /// alias `x` exactly (in-place).
  double (*exp_row_sum)(const float* x, float scale, float shift, float* y,
                        int64_t n);
  const char* name;
};

extern const KernelTable kScalarKernels;
extern const KernelTable kAvx2Kernels;
extern const KernelTable kAvx512Kernels;

/// The table for an explicit level (bench sweeps).
const KernelTable& KernelsFor(core::SimdLevel level);

/// The table for core::ActiveSimdLevel(). Re-resolved on every call (one
/// relaxed atomic load), so SetSimdLevelForTest switches take effect
/// immediately; callers hoist the reference out of their chunk loops.
const KernelTable& Kernels();

}  // namespace darec::tensor::simd

#endif  // DAREC_TENSOR_SIMD_KERNELS_H_
