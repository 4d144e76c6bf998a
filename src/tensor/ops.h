#ifndef DAREC_TENSOR_OPS_H_
#define DAREC_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace darec::tensor {

// Differentiable operations. Each returns a new Variable whose node records
// how to push gradients back to its inputs. Shapes are validated eagerly.

// --- Linear algebra -----------------------------------------------------

/// C = op(a) * op(b) with optional transposes.
Variable MatMul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);

/// C = s * b where `s` is a constant sparse matrix (gradient flows to b
/// only). `s` must outlive the backward pass; it is held by shared_ptr.
Variable SpMM(std::shared_ptr<const CsrMatrix> s, const Variable& b);

// --- Elementwise / broadcast --------------------------------------------

Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
/// Elementwise product.
Variable Mul(const Variable& a, const Variable& b);
/// a + b with b a 1 x cols row vector broadcast over a's rows (bias add).
Variable AddRowBroadcast(const Variable& a, const Variable& b);
Variable ScalarMul(const Variable& a, float s);
Variable AddScalar(const Variable& a, float s);

Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float negative_slope = 0.01f);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Exp(const Variable& a);
/// Natural log of (a + eps); eps guards against log(0).
Variable Log(const Variable& a, float eps = 1e-12f);
Variable Square(const Variable& a);
/// Elementwise |a|; gradient is sign(a) (0 at 0).
Variable Abs(const Variable& a);
/// ln(1 + e^x), numerically stable.
Variable Softplus(const Variable& a);

/// Scales each row of `a` to unit L2 norm; rows with norm < eps pass through.
Variable RowL2Normalize(const Variable& a, float eps = 1e-12f);

/// Stops gradient flow: returns a constant holding a copy of a's value.
Variable Detach(const Variable& a);

/// Inverted dropout: zeroes each element with probability drop_prob and
/// scales survivors by 1/(1-drop_prob). drop_prob == 0 is a no-op.
Variable Dropout(const Variable& a, float drop_prob, core::Rng& rng);

// --- Structure ------------------------------------------------------------

/// Vertically stacks a (r_a x c) over b (r_b x c).
Variable ConcatRows(const Variable& a, const Variable& b);
/// Rows [start, start+count) of a.
Variable SliceRows(const Variable& a, int64_t start, int64_t count);
/// out[i] = a[indices[i]]; gradient scatter-adds (duplicates accumulate).
Variable GatherRows(const Variable& a, std::vector<int64_t> indices);

// --- Reductions -----------------------------------------------------------

/// Sum of all elements -> 1x1.
Variable Sum(const Variable& a);
/// Mean of all elements -> 1x1.
Variable Mean(const Variable& a);
/// Squared Frobenius norm -> 1x1.
Variable SumSquares(const Variable& a);
/// Per-row sum -> rows x 1.
Variable RowSum(const Variable& a);

/// Row-wise softmax.
Variable SoftmaxRows(const Variable& a);
/// Per-row log-sum-exp -> rows x 1 (numerically stable).
Variable RowLogSumExp(const Variable& a);
/// Main diagonal of a square matrix -> rows x 1.
Variable TakeDiagonal(const Variable& a);

// --- Composite losses / helpers -------------------------------------------

/// Mean of several same-shaped variables (e.g. LightGCN layer pooling).
Variable MeanOf(const std::vector<Variable>& vars);

/// Row dot products -> rows x 1 (ranking scores from paired embeddings).
Variable RowDot(const Variable& a, const Variable& b);

/// Row-wise cosine similarity -> rows x 1.
Variable CosineRowSimilarity(const Variable& a, const Variable& b);

/// BPR pairwise loss: mean softplus(neg - pos) over rows (inputs Bx1).
Variable BprLoss(const Variable& pos_scores, const Variable& neg_scores);

/// InfoNCE with in-batch negatives: rows of a and b are positives of each
/// other; both are L2-normalized internally; logits scaled by 1/temperature.
Variable InfoNceLoss(const Variable& a, const Variable& b, float temperature);

/// Mean squared error over all elements.
Variable MseLoss(const Variable& a, const Variable& b);

/// L2 regularization: 0.5 * sum of squared elements over the given variables.
Variable L2Penalty(const std::vector<Variable>& vars);

/// Softmax relational distillation as one node (the sharpened form of the
/// paper's Eq. 4–5, DESIGN.md §5). With S = student·studentᵀ and
/// T = teacher·teacherᵀ, row i's logits are S_ij/τ and T_ij/τ over j ≠ i
/// (the self-similarity is masked); the teacher's row softmax t_i is the
/// target of the student's row log-softmax:
///   loss = (1/n) Σ_i Σ_{j≠i} t_ij (lse_i − S_ij/τ).
/// `teacher` is a constant: gradients reach `student` only. The forward
/// keeps the two unnormalized row-softmax tables (2·n² pooled floats) for
/// backward. Row sums are 16-lane blocked doubles and row losses are added
/// serially, so value and gradient are bitwise independent of thread count
/// and SIMD tier. Requires n ≥ 2 rows.
Variable SoftmaxStructureDistillation(const Variable& student,
                                      const Matrix& teacher,
                                      float temperature);

// --- Fused-traversal ops (expression fusion, DESIGN.md §14) ----------------
//
// Each op materializes a whole elementwise/reduction chain in one pass and
// records a single graph node whose backward re-expands to the chain's
// per-op gradients — forward value, parameter gradients, and accumulation
// order are bitwise identical to the eager composition named in the comment.
// tensor/expr.cc emits these when pattern-matching recorded chains; they are
// public so the parity tests can drive them directly.

/// ≡ SumSquares(Sub(a, b)) -> 1x1.
Variable FusedSubSumSquares(const Variable& a, const Variable& b);
/// ≡ [ScalarMul(...)  if has_scale] Sum(Square([AddScalar(a, bias) if
/// has_bias])) -> 1x1. With has_scale this is Mean(Square(...)) when scale
/// is 1/size.
Variable FusedSquareSum(const Variable& a, bool has_bias, float bias,
                        bool has_scale, float scale);
/// ≡ Sum(Exp(ScalarMul(AddScalar(ScalarMul(a, s1), b1), s2))) -> 1x1.
Variable FusedExpAffineSum(const Variable& a, float s1, float b1, float s2);
/// ≡ RowSum(Mul(RowL2Normalize(a, eps), RowL2Normalize(b, eps))) -> rows x 1.
Variable FusedCosineRowSimilarity(const Variable& a, const Variable& b,
                                  float eps = 1e-12f);
/// ≡ RowSum(Mul(a, b)) -> rows x 1.
Variable FusedRowDot(const Variable& a, const Variable& b);

/// Thread-local count of fused ops executed since thread start — lets tests
/// assert that a chain actually took the fused path rather than matching
/// bitwise by falling back to the eager replay.
int64_t FusedOpsExecuted();

}  // namespace darec::tensor

#endif  // DAREC_TENSOR_OPS_H_
