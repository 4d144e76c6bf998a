#ifndef DAREC_TENSOR_MATRIX_H_
#define DAREC_TENSOR_MATRIX_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "tensor/alloc_stats.h"

namespace darec::tensor {

/// Dense row-major float matrix — the single numeric container used by the
/// whole project (vectors are 1-column or 1-row matrices).
///
/// The class itself is a passive value type; numeric kernels live in free
/// functions below and in ops.h (autograd). All shape mismatches are
/// programmer errors and abort via DARE_CHECK.
class Matrix {
 public:
  /// Creates an empty (0x0) matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Creates a rows x cols matrix initialized to zero.
  Matrix(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
    DARE_CHECK_GE(rows, 0);
    DARE_CHECK_GE(cols, 0);
    const size_t n = static_cast<size_t>(rows * cols);
    if (n > 0) AllocStats::Record(static_cast<int64_t>(n * sizeof(float)));
    data_.assign(n, 0.0f);
  }

  Matrix(const Matrix& other) : rows_(other.rows_), cols_(other.cols_) {
    if (!other.data_.empty()) {
      AllocStats::Record(static_cast<int64_t>(other.data_.size() * sizeof(float)));
    }
    data_ = other.data_;
  }
  Matrix& operator=(const Matrix& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Matrix(Matrix&& other) noexcept
      : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
    other.rows_ = 0;
    other.cols_ = 0;
  }
  Matrix& operator=(Matrix&& other) noexcept {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = std::move(other.data_);
    other.rows_ = 0;
    other.cols_ = 0;
    return *this;
  }

  /// Creates a rows x cols matrix filled with `value`.
  static Matrix Full(int64_t rows, int64_t cols, float value);
  /// Creates an identity matrix of size n.
  static Matrix Identity(int64_t n);
  /// Adopts `values` (row-major). Requires values.size() == rows * cols.
  static Matrix FromVector(int64_t rows, int64_t cols, std::vector<float> values);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }
  /// Heap capacity in elements (≥ size(); survives ClearKeepCapacity).
  int64_t capacity() const { return static_cast<int64_t>(data_.capacity()); }
  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& operator()(int64_t r, int64_t c) {
    DARE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float operator()(int64_t r, int64_t c) const {
    DARE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// Raw pointer to the first element of row `r`.
  float* Row(int64_t r) {
    DARE_DCHECK(r >= 0 && r < rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(int64_t r) const {
    DARE_DCHECK(r >= 0 && r < rows_);
    return data_.data() + r * cols_;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void Fill(float value);
  /// Sets every element to zero.
  void SetZero() { Fill(0.0f); }

  /// Ensures capacity for at least `min_elements` without changing shape.
  void Reserve(int64_t min_elements) {
    if (min_elements > capacity()) {
      AllocStats::Record(min_elements * static_cast<int64_t>(sizeof(float)));
      data_.reserve(static_cast<size_t>(min_elements));
    }
  }

  /// Reshapes to rows x cols and zero-fills, reusing existing capacity.
  /// Allocates only when capacity is insufficient.
  void ResetShape(int64_t rows, int64_t cols) {
    DARE_CHECK_GE(rows, 0);
    DARE_CHECK_GE(cols, 0);
    rows_ = rows;
    cols_ = cols;
    const size_t n = static_cast<size_t>(rows * cols);
    if (n > data_.capacity()) {
      AllocStats::Record(static_cast<int64_t>(n * sizeof(float)));
    }
    data_.assign(n, 0.0f);
  }

  /// Becomes empty (0x0) but keeps the heap buffer, so the next
  /// ResetShape/CopyFrom of a fitting size performs no allocation.
  void ClearKeepCapacity() {
    rows_ = 0;
    cols_ = 0;
    data_.clear();
  }

  /// Bitwise copy of `other` (shape and elements), reusing capacity.
  void CopyFrom(const Matrix& other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    if (other.data_.size() > data_.capacity()) {
      AllocStats::Record(static_cast<int64_t>(other.data_.size() * sizeof(float)));
    }
    data_.assign(other.data_.begin(), other.data_.end());
  }

  /// this += scale * other. Shapes must match.
  void AddInPlace(const Matrix& other, float scale = 1.0f);
  /// this *= scale.
  void ScaleInPlace(float scale);

  /// Copies row `src_row` of `src` into row `dst_row` of this.
  void CopyRowFrom(const Matrix& src, int64_t src_row, int64_t dst_row);

  /// Compact debug rendering ("2x3 [[1, 2, 3], [4, 5, 6]]"), truncated for
  /// large matrices.
  std::string DebugString(int64_t max_rows = 6, int64_t max_cols = 8) const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;
};

// ----------------------------------------------------------------------------
// Raw (non-autograd) kernels. Autograd ops in ops.h call these.
// ----------------------------------------------------------------------------

/// C = op(A) * op(B) where op is optional transposition.
Matrix MatMul(const Matrix& a, const Matrix& b, bool trans_a = false,
              bool trans_b = false);

/// Returns A + B (same shape).
Matrix Add(const Matrix& a, const Matrix& b);
/// Returns A - B (same shape).
Matrix Sub(const Matrix& a, const Matrix& b);
/// Returns elementwise A * B (same shape).
Matrix Hadamard(const Matrix& a, const Matrix& b);
/// Returns s * A.
Matrix Scale(const Matrix& a, float s);
/// Returns Aᵀ.
Matrix Transpose(const Matrix& a);

/// Sum of all elements.
float SumAll(const Matrix& a);
/// Sum of squared elements (squared Frobenius norm).
float SumSquares(const Matrix& a);
/// Maximum absolute element (0 for an empty matrix).
float MaxAbs(const Matrix& a);

/// Returns the L2 norm of each row as an r x 1 matrix.
Matrix RowNorms(const Matrix& a);
/// Returns A with each row scaled to unit L2 norm (rows with norm < eps are
/// left unscaled).
Matrix RowNormalize(const Matrix& a, float eps = 1e-12f);

/// Squared Euclidean distance between every pair of rows: D(i,j) =
/// ||a_i - b_j||². Returns a.rows() x b.rows().
Matrix PairwiseSquaredDistances(const Matrix& a, const Matrix& b);

/// True if matrices have the same shape and elements within `tol`.
bool AllClose(const Matrix& a, const Matrix& b, float tol = 1e-5f);

// ----------------------------------------------------------------------------
// Write-into kernel variants. Each fully owns the output's state: it reshapes
// `out` (reusing heap capacity — the whole point) and overwrites every
// element, so a pooled buffer with stale contents is a safe output. Results
// are bitwise identical to the value-returning kernels above, which are now
// thin wrappers over these. `out` must not alias an input.
// ----------------------------------------------------------------------------

/// out = a (bitwise).
void CopyInto(const Matrix& a, Matrix* out);
/// out = op(A) * op(B); transpose variants draw scratch from the global
/// Workspace instead of allocating.
void MatMulInto(const Matrix& a, const Matrix& b, bool trans_a, bool trans_b,
                Matrix* out);
/// out = Aᵀ.
void TransposeInto(const Matrix& a, Matrix* out);
/// out = A + B.
void AddInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = A - B.
void SubInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = A ∘ B (elementwise).
void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = s * A.
void ScaleInto(const Matrix& a, float s, Matrix* out);
/// out = A + s (elementwise scalar add).
void AddScalarInto(const Matrix& a, float s, Matrix* out);
/// out = A ∘ A (elementwise square).
void SquareInto(const Matrix& a, Matrix* out);
/// out = per-row L2 norms of A as rows x 1.
void RowNormsInto(const Matrix& a, Matrix* out);
/// out = A with rows scaled to unit norm (rows with norm < eps unscaled).
void RowNormalizeInto(const Matrix& a, Matrix* out, float eps = 1e-12f);
/// out(i,j) = ||a_i - b_j||²; scratch comes from the global Workspace.
void PairwiseSquaredDistancesInto(const Matrix& a, const Matrix& b, Matrix* out);

// ----------------------------------------------------------------------------
// Fused-traversal kernels (expression fusion, DESIGN.md §14). Each function
// is bitwise identical to the eager op composition named in its comment: the
// per-element float sequence and the serial double accumulation order match
// the eager kernels exactly, at every SIMD tier and thread count. Forward
// full reductions run single-threaded (the eager SumAll/SumSquares contract);
// per-row and per-element loops use the usual deterministic ParallelFor
// decomposition. Gradient outputs may be nullptr to skip that operand.
// ----------------------------------------------------------------------------

/// ≡ SumSquares(Sub(a, b)).
float FusedSubSumSquares(const Matrix& a, const Matrix& b);
/// Backward of the above: da = (a - b) * scale, db = -da (elementwise).
void FusedSubGradInto(const Matrix& a, const Matrix& b, float scale,
                      Matrix* da, Matrix* db);
/// ≡ SumAll(Square(A + bias)) when has_bias, else SumAll(Square(A)); note
/// this is the float-squared accumulation, distinct from SumSquares.
float FusedSquareSum(const Matrix& a, bool has_bias, float bias);
/// Backward: dx = g * (2 * (a + bias?)).
void FusedSquareSumGradInto(const Matrix& a, bool has_bias, float bias,
                            float g, Matrix* dx);
/// ≡ SumAll(Exp(((A * s1) + b1) * s2)) with the eager op's float staging.
/// Stashes the per-element exp results into `y` (same shape as `a`) so the
/// backward pass never re-evaluates exp.
float FusedExpAffineSum(const Matrix& a, float s1, float b1, float s2,
                        Matrix* y);
/// Backward over the forward's stashed y: dx = ((g * y) * s2) * s1.
void FusedExpAffineSumGradInto(const Matrix& y, float s1, float s2, float g,
                               Matrix* dx);
/// out (rows x 1) ≡ row-sums of Hadamard(RowNormalize(a, eps),
/// RowNormalize(b, eps)) — per-row cosine similarity in one pass. Stashes
/// the per-row norm pair (na, nb) into `norms` (rows x 2) for the backward.
void FusedCosineRowsInto(const Matrix& a, const Matrix& b, float eps,
                         Matrix* out, Matrix* norms);
/// Backward of the above; `g` is the rows x 1 upstream gradient and `norms`
/// the forward's stashed rows x 2 norm pairs.
void FusedCosineRowsGradInto(const Matrix& a, const Matrix& b, const Matrix& g,
                             float eps, const Matrix& norms, Matrix* da,
                             Matrix* db);
/// out (rows x 1) ≡ row-sums of Hadamard(a, b).
void FusedRowDotInto(const Matrix& a, const Matrix& b, Matrix* out);
/// Backward: da = g ⊗ b, db = g ⊗ a (g broadcast across each row).
void FusedRowDotGradInto(const Matrix& a, const Matrix& b, const Matrix& g,
                         Matrix* da, Matrix* db);

}  // namespace darec::tensor

#endif  // DAREC_TENSOR_MATRIX_H_
