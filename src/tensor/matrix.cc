#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/thread_pool.h"
#include "tensor/simd/kernels.h"
#include "tensor/workspace.h"

namespace darec::tensor {

namespace {

// Grain sizes for core::ParallelFor, tuned so a chunk is ≥ ~100µs of work
// (amortizing pool synchronization) while still splitting the hot shapes
// (N ≈ 1024, d ≈ 32–64) across 8 threads. Decompositions depend only on
// shapes — never on the pool size — so results are thread-count invariant.
constexpr int64_t kElemwiseGrain = 1 << 15;  // flat elements per chunk

// Rows per chunk for a row-parallel kernel whose per-row cost is
// `work_per_row` innermost operations.
int64_t RowGrain(int64_t work_per_row) {
  constexpr int64_t kTargetWorkPerChunk = 1 << 16;
  return std::max<int64_t>(1, kTargetWorkPerChunk / std::max<int64_t>(1, work_per_row));
}

}  // namespace

Matrix Matrix::Full(int64_t rows, int64_t cols, float value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::Identity(int64_t n) {
  Matrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::FromVector(int64_t rows, int64_t cols, std::vector<float> values) {
  DARE_CHECK_EQ(static_cast<int64_t>(values.size()), rows * cols);
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(values);
  return m;
}

void Matrix::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::AddInPlace(const Matrix& other, float scale) {
  DARE_CHECK(SameShape(other))
      << "AddInPlace shape mismatch: " << rows_ << "x" << cols_ << " vs "
      << other.rows_ << "x" << other.cols_;
  const float* src = other.data();
  float* dst = data();
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, size(), kElemwiseGrain, [&](int64_t b, int64_t e) {
    kt.axpy(dst + b, src + b, scale, e - b);
  });
}

void Matrix::ScaleInPlace(float scale) {
  float* dst = data();
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, size(), kElemwiseGrain, [&](int64_t b, int64_t e) {
    kt.scale(dst + b, scale, e - b);
  });
}

void Matrix::CopyRowFrom(const Matrix& src, int64_t src_row, int64_t dst_row) {
  DARE_CHECK_EQ(cols_, src.cols());
  std::copy(src.Row(src_row), src.Row(src_row) + cols_, Row(dst_row));
}

std::string Matrix::DebugString(int64_t max_rows, int64_t max_cols) const {
  std::ostringstream out;
  out << rows_ << "x" << cols_ << " [";
  int64_t show_rows = std::min(rows_, max_rows);
  for (int64_t r = 0; r < show_rows; ++r) {
    out << (r == 0 ? "[" : ", [");
    int64_t show_cols = std::min(cols_, max_cols);
    for (int64_t c = 0; c < show_cols; ++c) {
      if (c > 0) out << ", ";
      out << (*this)(r, c);
    }
    if (show_cols < cols_) out << ", ...";
    out << "]";
  }
  if (show_rows < rows_) out << ", ...";
  out << "]";
  return out.str();
}

namespace {

// ---------------------------------------------------------------------------
// Blocked matmul. One register-tiled C += A·B kernel (the ISA-dispatched
// simd::matmul_row_range); the transpose variants are reduced to it by
// materializing the (cheap, parallel) transpose of the smaller operand. Per
// output element the accumulation order over the inner dimension is always
// ascending p, independent of tiling, chunking, and ISA tier, so every path
// is bit-deterministic at any thread count.
// ---------------------------------------------------------------------------

constexpr int64_t kRowTile = simd::kMatMulRowTile;

// C += A · B with A [m,k], B [k,n]; cache/register-blocked, parallel over
// kRowTile-row strips.
void MatMulNnInto(const Matrix& a, const Matrix& b, Matrix& c) {
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  const int64_t strips = (m + kRowTile - 1) / kRowTile;
  const int64_t grain = RowGrain(kRowTile * k * n);
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, strips, grain, [&](int64_t s0, int64_t s1) {
    kt.matmul_row_range(a.data(), b.data(), c.data(), k, n, s0 * kRowTile,
                        std::min(m, s1 * kRowTile));
  });
}

}  // namespace

void CopyInto(const Matrix& a, Matrix* out) { out->CopyFrom(a); }

void MatMulInto(const Matrix& a, const Matrix& b, bool trans_a, bool trans_b,
                Matrix* out) {
  const int64_t a_rows = trans_a ? a.cols() : a.rows();
  const int64_t a_cols = trans_a ? a.rows() : a.cols();
  const int64_t b_rows = trans_b ? b.cols() : b.rows();
  const int64_t b_cols = trans_b ? b.rows() : b.cols();
  DARE_CHECK_EQ(a_cols, b_rows) << "MatMul inner-dimension mismatch";
  Workspace& ws = Workspace::Global();
  if (!trans_a && !trans_b) {
    out->ResetShape(a_rows, b_cols);
    MatMulNnInto(a, b, *out);
  } else if (trans_a && !trans_b) {
    ScratchMatrix at(ws, a.size());
    TransposeInto(a, at.get());
    out->ResetShape(a_rows, b_cols);
    MatMulNnInto(*at, b, *out);
  } else if (!trans_a && trans_b) {
    ScratchMatrix bt(ws, b.size());
    TransposeInto(b, bt.get());
    out->ResetShape(a_rows, b_cols);
    MatMulNnInto(a, *bt, *out);
  } else {
    // Aᵀ Bᵀ = (B A)ᵀ; rare path, materialize the transpose.
    ScratchMatrix ba(ws, b.rows() * a.cols());
    ba->ResetShape(b.rows(), a.cols());
    MatMulNnInto(b, a, *ba);
    TransposeInto(*ba, out);
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b, bool trans_a, bool trans_b) {
  Matrix c;
  MatMulInto(a, b, trans_a, trans_b, &c);
  return c;
}

void AddInto(const Matrix& a, const Matrix& b, Matrix* out) {
  DARE_CHECK(a.SameShape(b)) << "Add shape mismatch";
  out->CopyFrom(a);
  out->AddInPlace(b);
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix c;
  AddInto(a, b, &c);
  return c;
}

void SubInto(const Matrix& a, const Matrix& b, Matrix* out) {
  DARE_CHECK(a.SameShape(b)) << "Sub shape mismatch";
  out->CopyFrom(a);
  out->AddInPlace(b, -1.0f);
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix c;
  SubInto(a, b, &c);
  return c;
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out) {
  DARE_CHECK(a.SameShape(b)) << "Hadamard shape mismatch";
  out->CopyFrom(a);
  float* dst = out->data();
  const float* src = b.data();
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, out->size(), kElemwiseGrain, [&](int64_t lo, int64_t hi) {
    kt.hadamard(dst + lo, src + lo, hi - lo);
  });
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix c;
  HadamardInto(a, b, &c);
  return c;
}

void ScaleInto(const Matrix& a, float s, Matrix* out) {
  out->CopyFrom(a);
  out->ScaleInPlace(s);
}

Matrix Scale(const Matrix& a, float s) {
  Matrix c;
  ScaleInto(a, s, &c);
  return c;
}

void TransposeInto(const Matrix& a, Matrix* out) {
  out->ResetShape(a.cols(), a.rows());
  Matrix& t = *out;
  const int64_t rows = a.rows(), cols = a.cols();
  constexpr int64_t kTile = 64;  // 64×64 float tile = 16 KB, fits L1
  const int64_t row_tiles = (rows + kTile - 1) / kTile;
  const int64_t grain = RowGrain(kTile * cols);
  core::ParallelFor(0, row_tiles, grain, [&](int64_t t0, int64_t t1) {
    for (int64_t rt = t0; rt < t1; ++rt) {
      const int64_t r0 = rt * kTile, r1 = std::min(rows, r0 + kTile);
      for (int64_t c0 = 0; c0 < cols; c0 += kTile) {
        const int64_t c1 = std::min(cols, c0 + kTile);
        for (int64_t r = r0; r < r1; ++r) {
          const float* row = a.Row(r);
          for (int64_t c = c0; c < c1; ++c) t(c, r) = row[c];
        }
      }
    }
  });
}

Matrix Transpose(const Matrix& a) {
  Matrix t;
  TransposeInto(a, &t);
  return t;
}

float SumAll(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float SumSquares(const Matrix& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) acc += double(p[i]) * p[i];
  return static_cast<float>(acc);
}

float MaxAbs(const Matrix& a) {
  float best = 0.0f;
  const float* p = a.data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) best = std::max(best, std::fabs(p[i]));
  return best;
}

void RowNormsInto(const Matrix& a, Matrix* out) {
  out->ResetShape(a.rows(), 1);
  Matrix& norms = *out;
  const int64_t cols = a.cols();
  core::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = a.Row(r);
      double acc = 0.0;
      for (int64_t c = 0; c < cols; ++c) acc += double(row[c]) * row[c];
      norms(r, 0) = static_cast<float>(std::sqrt(acc));
    }
  });
}

Matrix RowNorms(const Matrix& a) {
  Matrix norms;
  RowNormsInto(a, &norms);
  return norms;
}

void RowNormalizeInto(const Matrix& a, Matrix* out, float eps) {
  out->CopyFrom(a);
  const int64_t cols = a.cols();
  core::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      float* row = out->Row(r);
      double acc = 0.0;
      for (int64_t c = 0; c < cols; ++c) acc += double(row[c]) * row[c];
      float norm = static_cast<float>(std::sqrt(acc));
      if (norm < eps) continue;
      float inv = 1.0f / norm;
      for (int64_t c = 0; c < cols; ++c) row[c] *= inv;
    }
  });
}

Matrix RowNormalize(const Matrix& a, float eps) {
  Matrix out;
  RowNormalizeInto(a, &out, eps);
  return out;
}

namespace {

// Per-row squared norms accumulated in float, ascending column order — the
// same element order the blocked matmul uses along its inner dimension, so
// ||x||² + ||x||² − 2⟨x,x⟩ cancels exactly and PairwiseSquaredDistances has
// a bitwise-zero diagonal for identical rows. Written into a rows x 1
// scratch matrix so the buffer pools.
void RowSquaredNormsFloatInto(const Matrix& a, Matrix* out) {
  out->ResetShape(a.rows(), 1);
  float* norms = out->data();
  const int64_t cols = a.cols();
  core::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      const float* row = a.Row(r);
      float acc = 0.0f;
      for (int64_t c = 0; c < cols; ++c) acc += row[c] * row[c];
      norms[r] = acc;
    }
  });
}

}  // namespace

void PairwiseSquaredDistancesInto(const Matrix& a, const Matrix& b, Matrix* out) {
  DARE_CHECK_EQ(a.cols(), b.cols());
  out->ResetShape(a.rows(), b.rows());
  if (a.rows() == 0 || b.rows() == 0 || a.cols() == 0) return;
  Matrix& d = *out;
  // ||x − y||² = ||x||² + ||y||² − 2⟨x,y⟩ over the blocked GEMM: 2·N²·d flops
  // at matmul throughput instead of 3·N²·d at scalar throughput. Negative
  // round-off is clamped to zero to keep the result a valid distance.
  Workspace& ws = Workspace::Global();
  ScratchMatrix bt(ws, b.size());
  TransposeInto(b, bt.get());
  ScratchMatrix prod(ws, a.rows() * b.rows());
  prod->ResetShape(a.rows(), b.rows());
  MatMulNnInto(a, *bt, *prod);
  ScratchMatrix a_norms(ws, a.rows());
  ScratchMatrix b_norms(ws, b.rows());
  RowSquaredNormsFloatInto(a, a_norms.get());
  RowSquaredNormsFloatInto(b, b_norms.get());
  const float* an_data = a_norms->data();
  const float* bn_data = b_norms->data();
  const int64_t nb = b.rows();
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, a.rows(), RowGrain(nb), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      kt.pairwise_assemble(d.Row(i), prod->Row(i), bn_data, an_data[i], nb);
    }
  });
}

Matrix PairwiseSquaredDistances(const Matrix& a, const Matrix& b) {
  Matrix d;
  PairwiseSquaredDistancesInto(a, b, &d);
  return d;
}

bool AllClose(const Matrix& a, const Matrix& b, float tol) {
  if (!a.SameShape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0, n = a.size(); i < n; ++i) {
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

void AddScalarInto(const Matrix& a, float s, Matrix* out) {
  out->CopyFrom(a);
  float* p = out->data();
  core::ParallelFor(0, out->size(), kElemwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) p[i] += s;
  });
}

void SquareInto(const Matrix& a, Matrix* out) {
  out->CopyFrom(a);
  float* p = out->data();
  core::ParallelFor(0, out->size(), kElemwiseGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) p[i] *= p[i];
  });
}

// ----------------------------------------------------------------------------
// Fused-traversal kernels. The full reductions stay single-threaded in flat
// ascending order (the SumAll/SumSquares contract); elementwise gradients and
// per-row kernels chunk with the usual shape-only deterministic grains.
// ----------------------------------------------------------------------------

float FusedSubSumSquares(const Matrix& a, const Matrix& b) {
  DARE_CHECK(a.SameShape(b)) << "FusedSubSumSquares shape mismatch";
  return static_cast<float>(
      simd::Kernels().fused_sub_sumsq(a.data(), b.data(), a.size()));
}

void FusedSubGradInto(const Matrix& a, const Matrix& b, float scale,
                      Matrix* da, Matrix* db) {
  DARE_CHECK(a.SameShape(b)) << "FusedSubGradInto shape mismatch";
  if (da != nullptr) da->ResetShape(a.rows(), a.cols());
  if (db != nullptr) db->ResetShape(a.rows(), a.cols());
  if (da == nullptr && db == nullptr) return;
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, a.size(), kElemwiseGrain, [&](int64_t lo, int64_t hi) {
    kt.fused_sub_grad(da ? da->data() + lo : nullptr,
                      db ? db->data() + lo : nullptr, a.data() + lo,
                      b.data() + lo, scale, hi - lo);
  });
}

float FusedSquareSum(const Matrix& a, bool has_bias, float bias) {
  return static_cast<float>(
      simd::Kernels().fused_square_sum(a.data(), bias, has_bias ? 1 : 0,
                                       a.size()));
}

void FusedSquareSumGradInto(const Matrix& a, bool has_bias, float bias,
                            float g, Matrix* dx) {
  dx->ResetShape(a.rows(), a.cols());
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, a.size(), kElemwiseGrain, [&](int64_t lo, int64_t hi) {
    kt.fused_square_sum_grad(dx->data() + lo, a.data() + lo, bias,
                             has_bias ? 1 : 0, g, hi - lo);
  });
}

float FusedExpAffineSum(const Matrix& a, float s1, float b1, float s2,
                        Matrix* y) {
  y->ResetShape(a.rows(), a.cols());
  return static_cast<float>(simd::Kernels().fused_exp_affine_sum(
      a.data(), s1, b1, s2, y->data(), a.size()));
}

void FusedExpAffineSumGradInto(const Matrix& y, float s1, float s2, float g,
                               Matrix* dx) {
  dx->ResetShape(y.rows(), y.cols());
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, y.size(), kElemwiseGrain, [&](int64_t lo, int64_t hi) {
    kt.fused_exp_affine_grad(dx->data() + lo, y.data() + lo, s1, s2, g,
                             hi - lo);
  });
}

void FusedCosineRowsInto(const Matrix& a, const Matrix& b, float eps,
                         Matrix* out, Matrix* norms) {
  DARE_CHECK(a.SameShape(b)) << "FusedCosineRowsInto shape mismatch";
  out->ResetShape(a.rows(), 1);
  norms->ResetShape(a.rows(), 2);
  Matrix& sims = *out;
  Matrix& norm_pairs = *norms;
  const int64_t cols = a.cols();
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, a.rows(), RowGrain(3 * cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      sims(r, 0) = kt.fused_cosine_row(a.Row(r), b.Row(r), cols, eps,
                                       norm_pairs.Row(r));
    }
  });
}

void FusedCosineRowsGradInto(const Matrix& a, const Matrix& b, const Matrix& g,
                             float eps, const Matrix& norms, Matrix* da,
                             Matrix* db) {
  DARE_CHECK(a.SameShape(b)) << "FusedCosineRowsGradInto shape mismatch";
  DARE_CHECK_EQ(g.rows(), a.rows());
  DARE_CHECK_EQ(g.cols(), 1);
  DARE_CHECK_EQ(norms.rows(), a.rows());
  DARE_CHECK_EQ(norms.cols(), 2);
  if (da != nullptr) da->ResetShape(a.rows(), a.cols());
  if (db != nullptr) db->ResetShape(a.rows(), a.cols());
  if (da == nullptr && db == nullptr) return;
  const int64_t cols = a.cols();
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, a.rows(), RowGrain(4 * cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      kt.fused_cosine_row_grad(da ? da->Row(r) : nullptr,
                               db ? db->Row(r) : nullptr, a.Row(r), b.Row(r),
                               g(r, 0), cols, eps, norms.Row(r));
    }
  });
}

void FusedRowDotInto(const Matrix& a, const Matrix& b, Matrix* out) {
  DARE_CHECK(a.SameShape(b)) << "FusedRowDotInto shape mismatch";
  out->ResetShape(a.rows(), 1);
  Matrix& dots = *out;
  const int64_t cols = a.cols();
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      dots(r, 0) = kt.fused_rowdot_row(a.Row(r), b.Row(r), cols);
    }
  });
}

void FusedRowDotGradInto(const Matrix& a, const Matrix& b, const Matrix& g,
                         Matrix* da, Matrix* db) {
  DARE_CHECK(a.SameShape(b)) << "FusedRowDotGradInto shape mismatch";
  DARE_CHECK_EQ(g.rows(), a.rows());
  DARE_CHECK_EQ(g.cols(), 1);
  if (da != nullptr) da->ResetShape(a.rows(), a.cols());
  if (db != nullptr) db->ResetShape(a.rows(), a.cols());
  if (da == nullptr && db == nullptr) return;
  const int64_t cols = a.cols();
  const simd::KernelTable& kt = simd::Kernels();
  core::ParallelFor(0, a.rows(), RowGrain(2 * cols), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      kt.fused_rowdot_row_grad(da ? da->Row(r) : nullptr,
                               db ? db->Row(r) : nullptr, a.Row(r), b.Row(r),
                               g(r, 0), cols);
    }
  });
}

}  // namespace darec::tensor
