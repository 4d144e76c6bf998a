#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "core/thread_pool.h"
#include "tensor/expr.h"
#include "tensor/simd/kernels.h"
#include "tensor/workspace.h"

namespace darec::tensor {
namespace {

/// True if gradients should be pushed into `node`: it is either a gradient
/// sink (parameter) or an interior node whose own backward will forward them.
bool NeedsGrad(const std::shared_ptr<Node>& node) {
  return node->requires_grad() || node->has_backward();
}

/// The pool every op draws scratch from.
Workspace& Ws() { return Workspace::Global(); }

/// Creates the result Variable for an op with a zero-filled rows x cols
/// value: an arena slot with pooled storage when a GraphContext is current,
/// a fresh heap node otherwise. The op then writes the value in place
/// (usually via an *Into kernel) and calls FinishOp.
Variable NewResult(int64_t rows, int64_t cols) {
  if (GraphContext* ctx = GraphContext::Current()) {
    return Variable(ctx->NewNode(rows, cols, /*requires_grad=*/false));
  }
  return Variable(Matrix(rows, cols), /*requires_grad=*/false);
}

/// Wires parents and the backward closure when any parent needs gradients.
void FinishOp(Variable& out, std::vector<std::shared_ptr<Node>> parents,
              BackwardFn backward) {
  bool any_grad = false;
  for (const auto& p : parents) any_grad = any_grad || NeedsGrad(p);
  if (any_grad) {
    out.node()->set_parents(std::move(parents));
    out.node()->set_backward(std::move(backward));
  }
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b, bool trans_a, bool trans_b) {
  const int64_t out_rows = trans_a ? a.cols() : a.rows();
  const int64_t out_cols = trans_b ? b.rows() : b.cols();
  Variable out = NewResult(out_rows, out_cols);
  MatMulInto(a.value(), b.value(), trans_a, trans_b, &out.mutable_value());
  auto an = a.node();
  auto bn = b.node();
  FinishOp(out, {an, bn}, [an, bn, trans_a, trans_b](Node& o) {
    const Matrix& g = o.grad();
    if (NeedsGrad(an)) {
      ScratchMatrix da(Ws(), an->value().size());
      if (!trans_a && !trans_b) {
        MatMulInto(g, bn->value(), false, true, da.get());  // G Bᵀ
      } else if (trans_a && !trans_b) {
        MatMulInto(bn->value(), g, false, true, da.get());  // B Gᵀ
      } else if (!trans_a && trans_b) {
        MatMulInto(g, bn->value(), false, false, da.get());  // G B
      } else {
        MatMulInto(bn->value(), g, true, true, da.get());  // Bᵀ Gᵀ
      }
      an->AccumulateGrad(*da);
    }
    if (NeedsGrad(bn)) {
      ScratchMatrix db(Ws(), bn->value().size());
      if (!trans_a && !trans_b) {
        MatMulInto(an->value(), g, true, false, db.get());  // Aᵀ G
      } else if (trans_a && !trans_b) {
        MatMulInto(an->value(), g, false, false, db.get());  // A G
      } else if (!trans_a && trans_b) {
        MatMulInto(g, an->value(), true, false, db.get());  // Gᵀ A
      } else {
        MatMulInto(g, an->value(), true, true, db.get());  // Gᵀ Aᵀ
      }
      bn->AccumulateGrad(*db);
    }
  });
  return out;
}

Variable SpMM(std::shared_ptr<const CsrMatrix> s, const Variable& b) {
  DARE_CHECK(s != nullptr);
  Variable out = NewResult(s->rows(), b.cols());
  s->MultiplyInto(b.value(), &out.mutable_value());
  auto bn = b.node();
  FinishOp(out, {bn}, [s, bn](Node& o) {
    if (!NeedsGrad(bn)) return;
    ScratchMatrix db(Ws(), bn->value().size());
    s->TransposeMultiplyInto(o.grad(), db.get());
    bn->AccumulateGrad(*db);
  });
  return out;
}

Variable Add(const Variable& a, const Variable& b) {
  Variable out = NewResult(a.rows(), a.cols());
  AddInto(a.value(), b.value(), &out.mutable_value());
  auto an = a.node();
  auto bn = b.node();
  FinishOp(out, {an, bn}, [an, bn](Node& o) {
    if (NeedsGrad(an)) an->AccumulateGrad(o.grad());
    if (NeedsGrad(bn)) bn->AccumulateGrad(o.grad());
  });
  return out;
}

Variable Sub(const Variable& a, const Variable& b) {
  Variable out = NewResult(a.rows(), a.cols());
  SubInto(a.value(), b.value(), &out.mutable_value());
  auto an = a.node();
  auto bn = b.node();
  FinishOp(out, {an, bn}, [an, bn](Node& o) {
    if (NeedsGrad(an)) an->AccumulateGrad(o.grad());
    if (NeedsGrad(bn)) {
      ScratchMatrix db(Ws(), o.grad().size());
      ScaleInto(o.grad(), -1.0f, db.get());
      bn->AccumulateGrad(*db);
    }
  });
  return out;
}

Variable Mul(const Variable& a, const Variable& b) {
  Variable out = NewResult(a.rows(), a.cols());
  HadamardInto(a.value(), b.value(), &out.mutable_value());
  auto an = a.node();
  auto bn = b.node();
  FinishOp(out, {an, bn}, [an, bn](Node& o) {
    if (NeedsGrad(an)) {
      ScratchMatrix da(Ws(), o.grad().size());
      HadamardInto(o.grad(), bn->value(), da.get());
      an->AccumulateGrad(*da);
    }
    if (NeedsGrad(bn)) {
      ScratchMatrix db(Ws(), o.grad().size());
      HadamardInto(o.grad(), an->value(), db.get());
      bn->AccumulateGrad(*db);
    }
  });
  return out;
}

Variable AddRowBroadcast(const Variable& a, const Variable& b) {
  DARE_CHECK_EQ(b.rows(), 1);
  DARE_CHECK_EQ(a.cols(), b.cols());
  Variable out = NewResult(a.rows(), a.cols());
  Matrix& value = out.mutable_value();
  CopyInto(a.value(), &value);
  for (int64_t r = 0; r < value.rows(); ++r) {
    float* row = value.Row(r);
    const float* bias = b.value().Row(0);
    for (int64_t c = 0; c < value.cols(); ++c) row[c] += bias[c];
  }
  auto an = a.node();
  auto bn = b.node();
  FinishOp(out, {an, bn}, [an, bn](Node& o) {
    const Matrix& g = o.grad();
    if (NeedsGrad(an)) an->AccumulateGrad(g);
    if (NeedsGrad(bn)) {
      ScratchMatrix db(Ws(), 1, g.cols());
      for (int64_t r = 0; r < g.rows(); ++r) {
        const float* grow = g.Row(r);
        float* drow = db->Row(0);
        for (int64_t c = 0; c < g.cols(); ++c) drow[c] += grow[c];
      }
      bn->AccumulateGrad(*db);
    }
  });
  return out;
}

Variable ScalarMul(const Variable& a, float s) {
  Variable out = NewResult(a.rows(), a.cols());
  ScaleInto(a.value(), s, &out.mutable_value());
  auto an = a.node();
  FinishOp(out, {an}, [an, s](Node& o) {
    if (!NeedsGrad(an)) return;
    ScratchMatrix da(Ws(), o.grad().size());
    ScaleInto(o.grad(), s, da.get());
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable AddScalar(const Variable& a, float s) {
  Variable out = NewResult(a.rows(), a.cols());
  AddScalarInto(a.value(), s, &out.mutable_value());
  auto an = a.node();
  FinishOp(out, {an}, [an](Node& o) {
    if (NeedsGrad(an)) an->AccumulateGrad(o.grad());
  });
  return out;
}

namespace {

/// Shared implementation for unary elementwise ops: `fwd` maps input to
/// output; `dfn(x, y)` returns dy/dx given input x and output y.
template <typename Fwd, typename Dfn>
Variable UnaryElementwise(const Variable& a, Fwd fwd, Dfn dfn) {
  Variable out = NewResult(a.rows(), a.cols());
  Matrix& value = out.mutable_value();
  CopyInto(a.value(), &value);
  float* p = value.data();
  for (int64_t i = 0, n = value.size(); i < n; ++i) p[i] = fwd(p[i]);
  auto an = a.node();
  FinishOp(out, {an}, [an, dfn](Node& o) {
    if (!NeedsGrad(an)) return;
    ScratchMatrix da(Ws(), o.grad().size());
    CopyInto(o.grad(), da.get());
    float* dp = da->data();
    const float* xp = an->value().data();
    const float* yp = o.value().data();
    for (int64_t i = 0, n = da->size(); i < n; ++i) dp[i] *= dfn(xp[i], yp[i]);
    an->AccumulateGrad(*da);
  });
  return out;
}

}  // namespace

Variable Relu(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable LeakyRelu(const Variable& a, float negative_slope) {
  return UnaryElementwise(
      a, [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x > 0.0f ? 1.0f : negative_slope; });
}

Variable Sigmoid(const Variable& a) {
  return UnaryElementwise(
      a,
      [](float x) {
        // Split by sign for numerical stability.
        if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
        float e = std::exp(x);
        return e / (1.0f + e);
      },
      [](float, float y) { return y * (1.0f - y); });
}

Variable Tanh(const Variable& a) {
  return UnaryElementwise(a, [](float x) { return std::tanh(x); },
                          [](float, float y) { return 1.0f - y * y; });
}

Variable Exp(const Variable& a) {
  return UnaryElementwise(a, [](float x) { return std::exp(x); },
                          [](float, float y) { return y; });
}

Variable Log(const Variable& a, float eps) {
  return UnaryElementwise(a, [eps](float x) { return std::log(x + eps); },
                          [eps](float x, float) { return 1.0f / (x + eps); });
}

Variable Square(const Variable& a) {
  // Forward through the write-into kernel; backward is the usual
  // elementwise dy/dx = 2x (same bits as the UnaryElementwise form).
  Variable out = NewResult(a.rows(), a.cols());
  SquareInto(a.value(), &out.mutable_value());
  auto an = a.node();
  FinishOp(out, {an}, [an](Node& o) {
    if (!NeedsGrad(an)) return;
    ScratchMatrix da(Ws(), o.grad().size());
    CopyInto(o.grad(), da.get());
    float* dp = da->data();
    const float* xp = an->value().data();
    for (int64_t i = 0, n = da->size(); i < n; ++i) dp[i] *= 2.0f * xp[i];
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable Abs(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}

Variable Softplus(const Variable& a) {
  return UnaryElementwise(
      a,
      [](float x) {
        // log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}).
        return std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
      },
      [](float x, float) {
        if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
        float e = std::exp(x);
        return e / (1.0f + e);
      });
}

Variable RowL2Normalize(const Variable& a, float eps) {
  const Matrix& x = a.value();
  ScratchMatrix norms(Ws(), x.rows());
  RowNormsInto(x, norms.get());
  Variable out = NewResult(x.rows(), x.cols());
  Matrix& value = out.mutable_value();
  CopyInto(x, &value);
  for (int64_t r = 0; r < x.rows(); ++r) {
    float n = (*norms)(r, 0);
    if (n < eps) continue;
    float inv = 1.0f / n;
    float* row = value.Row(r);
    for (int64_t c = 0; c < x.cols(); ++c) row[c] *= inv;
  }
  auto an = a.node();
  FinishOp(out, {an}, [an, norms = std::move(norms), eps](Node& o) {
    if (!NeedsGrad(an)) return;
    const Matrix& g = o.grad();
    const Matrix& y = o.value();
    ScratchMatrix da(Ws(), g.rows(), g.cols());
    for (int64_t r = 0; r < g.rows(); ++r) {
      float n = (*norms)(r, 0);
      const float* grow = g.Row(r);
      float* drow = da->Row(r);
      if (n < eps) {
        // Forward was identity on this row.
        std::copy(grow, grow + g.cols(), drow);
        continue;
      }
      const float* yrow = y.Row(r);
      double dot = 0.0;
      for (int64_t c = 0; c < g.cols(); ++c) dot += double(grow[c]) * yrow[c];
      float inv = 1.0f / n;
      for (int64_t c = 0; c < g.cols(); ++c) {
        drow[c] = (grow[c] - static_cast<float>(dot) * yrow[c]) * inv;
      }
    }
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable Detach(const Variable& a) {
  Variable out = NewResult(a.rows(), a.cols());
  CopyInto(a.value(), &out.mutable_value());
  return out;
}

Variable Dropout(const Variable& a, float drop_prob, core::Rng& rng) {
  DARE_CHECK(drop_prob >= 0.0f && drop_prob < 1.0f);
  if (drop_prob == 0.0f) return a;
  const float keep = 1.0f - drop_prob;
  const float scale = 1.0f / keep;
  ScratchMatrix mask(Ws(), a.rows(), a.cols());
  float* mp = mask->data();
  for (int64_t i = 0, n = mask->size(); i < n; ++i) {
    mp[i] = rng.Bernoulli(keep) ? scale : 0.0f;
  }
  Variable out = NewResult(a.rows(), a.cols());
  HadamardInto(a.value(), *mask, &out.mutable_value());
  auto an = a.node();
  FinishOp(out, {an}, [an, mask = std::move(mask)](Node& o) {
    if (!NeedsGrad(an)) return;
    ScratchMatrix da(Ws(), o.grad().size());
    HadamardInto(o.grad(), *mask, da.get());
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable ConcatRows(const Variable& a, const Variable& b) {
  DARE_CHECK_EQ(a.cols(), b.cols());
  Variable out = NewResult(a.rows() + b.rows(), a.cols());
  Matrix& value = out.mutable_value();
  for (int64_t r = 0; r < a.rows(); ++r) value.CopyRowFrom(a.value(), r, r);
  for (int64_t r = 0; r < b.rows(); ++r) value.CopyRowFrom(b.value(), r, a.rows() + r);
  auto an = a.node();
  auto bn = b.node();
  const int64_t a_rows = a.rows();
  const int64_t b_rows = b.rows();
  FinishOp(out, {an, bn}, [an, bn, a_rows, b_rows](Node& o) {
    const Matrix& g = o.grad();
    if (NeedsGrad(an)) {
      ScratchMatrix da(Ws(), a_rows, g.cols());
      for (int64_t r = 0; r < a_rows; ++r) da->CopyRowFrom(g, r, r);
      an->AccumulateGrad(*da);
    }
    if (NeedsGrad(bn)) {
      ScratchMatrix db(Ws(), b_rows, g.cols());
      for (int64_t r = 0; r < b_rows; ++r) db->CopyRowFrom(g, a_rows + r, r);
      bn->AccumulateGrad(*db);
    }
  });
  return out;
}

Variable SliceRows(const Variable& a, int64_t start, int64_t count) {
  DARE_CHECK(start >= 0 && count >= 0 && start + count <= a.rows())
      << "SliceRows [" << start << ", " << start + count << ") of " << a.rows();
  Variable out = NewResult(count, a.cols());
  Matrix& value = out.mutable_value();
  for (int64_t r = 0; r < count; ++r) value.CopyRowFrom(a.value(), start + r, r);
  auto an = a.node();
  const int64_t total_rows = a.rows();
  FinishOp(out, {an}, [an, start, count, total_rows](Node& o) {
    if (!NeedsGrad(an)) return;
    const Matrix& g = o.grad();
    ScratchMatrix da(Ws(), total_rows, g.cols());
    for (int64_t r = 0; r < count; ++r) da->CopyRowFrom(g, r, start + r);
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable GatherRows(const Variable& a, std::vector<int64_t> indices) {
  for (int64_t idx : indices) {
    DARE_CHECK(idx >= 0 && idx < a.rows()) << "gather index " << idx << " out of range";
  }
  Variable out = NewResult(static_cast<int64_t>(indices.size()), a.cols());
  Matrix& value = out.mutable_value();
  for (size_t i = 0; i < indices.size(); ++i) {
    value.CopyRowFrom(a.value(), indices[i], static_cast<int64_t>(i));
  }
  auto an = a.node();
  const int64_t total_rows = a.rows();
  FinishOp(out, {an}, [an, indices = std::move(indices), total_rows](Node& o) {
    if (!NeedsGrad(an)) return;
    const Matrix& g = o.grad();
    ScratchMatrix da(Ws(), total_rows, g.cols());
    for (size_t i = 0; i < indices.size(); ++i) {
      const float* grow = g.Row(static_cast<int64_t>(i));
      float* drow = da->Row(indices[i]);
      for (int64_t c = 0; c < g.cols(); ++c) drow[c] += grow[c];
    }
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable Sum(const Variable& a) {
  Variable out = NewResult(1, 1);
  out.mutable_value()(0, 0) = SumAll(a.value());
  auto an = a.node();
  FinishOp(out, {an}, [an](Node& o) {
    if (!NeedsGrad(an)) return;
    ScratchMatrix da(Ws(), an->value().size());
    da->ResetShape(an->value().rows(), an->value().cols());
    da->Fill(o.grad()(0, 0));
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable Mean(const Variable& a) {
  DARE_CHECK_GT(a.value().size(), 0);
  return ScalarMul(Sum(a), 1.0f / static_cast<float>(a.value().size()));
}

Variable SumSquares(const Variable& a) {
  Variable out = NewResult(1, 1);
  out.mutable_value()(0, 0) = SumSquares(a.value());
  auto an = a.node();
  FinishOp(out, {an}, [an](Node& o) {
    if (!NeedsGrad(an)) return;
    ScratchMatrix da(Ws(), an->value().size());
    ScaleInto(an->value(), 2.0f * o.grad()(0, 0), da.get());
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable RowSum(const Variable& a) {
  Variable out = NewResult(a.rows(), 1);
  Matrix& value = out.mutable_value();
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float* row = a.value().Row(r);
    double acc = 0.0;
    for (int64_t c = 0; c < a.cols(); ++c) acc += row[c];
    value(r, 0) = static_cast<float>(acc);
  }
  auto an = a.node();
  FinishOp(out, {an}, [an](Node& o) {
    if (!NeedsGrad(an)) return;
    const Matrix& g = o.grad();
    ScratchMatrix da(Ws(), an->value().rows(), an->value().cols());
    for (int64_t r = 0; r < da->rows(); ++r) {
      float gv = g(r, 0);
      float* drow = da->Row(r);
      for (int64_t c = 0; c < da->cols(); ++c) drow[c] = gv;
    }
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable SoftmaxRows(const Variable& a) {
  Variable out = NewResult(a.rows(), a.cols());
  Matrix& value = out.mutable_value();
  CopyInto(a.value(), &value);
  for (int64_t r = 0; r < value.rows(); ++r) {
    float* row = value.Row(r);
    float max_v = row[0];
    for (int64_t c = 1; c < value.cols(); ++c) max_v = std::max(max_v, row[c]);
    double sum = 0.0;
    for (int64_t c = 0; c < value.cols(); ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < value.cols(); ++c) row[c] *= inv;
  }
  auto an = a.node();
  FinishOp(out, {an}, [an](Node& o) {
    if (!NeedsGrad(an)) return;
    const Matrix& g = o.grad();
    const Matrix& y = o.value();
    ScratchMatrix da(Ws(), g.rows(), g.cols());
    for (int64_t r = 0; r < g.rows(); ++r) {
      const float* grow = g.Row(r);
      const float* yrow = y.Row(r);
      double dot = 0.0;
      for (int64_t c = 0; c < g.cols(); ++c) dot += double(grow[c]) * yrow[c];
      float* drow = da->Row(r);
      for (int64_t c = 0; c < g.cols(); ++c) {
        drow[c] = yrow[c] * (grow[c] - static_cast<float>(dot));
      }
    }
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable RowLogSumExp(const Variable& a) {
  const Matrix& x = a.value();
  Variable out = NewResult(x.rows(), 1);
  Matrix& value = out.mutable_value();
  ScratchMatrix softmax(Ws(), x.rows(), x.cols());
  for (int64_t r = 0; r < x.rows(); ++r) {
    const float* row = x.Row(r);
    float max_v = row[0];
    for (int64_t c = 1; c < x.cols(); ++c) max_v = std::max(max_v, row[c]);
    double sum = 0.0;
    float* srow = softmax->Row(r);
    for (int64_t c = 0; c < x.cols(); ++c) {
      srow[c] = std::exp(row[c] - max_v);
      sum += srow[c];
    }
    value(r, 0) = max_v + static_cast<float>(std::log(sum));
    float inv = static_cast<float>(1.0 / sum);
    for (int64_t c = 0; c < x.cols(); ++c) srow[c] *= inv;
  }
  auto an = a.node();
  FinishOp(out, {an}, [an, softmax = std::move(softmax)](Node& o) {
    if (!NeedsGrad(an)) return;
    const Matrix& g = o.grad();
    ScratchMatrix da(Ws(), softmax->size());
    CopyInto(*softmax, da.get());
    for (int64_t r = 0; r < da->rows(); ++r) {
      float gv = g(r, 0);
      float* drow = da->Row(r);
      for (int64_t c = 0; c < da->cols(); ++c) drow[c] *= gv;
    }
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable TakeDiagonal(const Variable& a) {
  DARE_CHECK_EQ(a.rows(), a.cols()) << "TakeDiagonal requires a square matrix";
  Variable out = NewResult(a.rows(), 1);
  Matrix& value = out.mutable_value();
  for (int64_t r = 0; r < a.rows(); ++r) value(r, 0) = a.value()(r, r);
  auto an = a.node();
  FinishOp(out, {an}, [an](Node& o) {
    if (!NeedsGrad(an)) return;
    const Matrix& g = o.grad();
    ScratchMatrix da(Ws(), an->value().rows(), an->value().cols());
    for (int64_t r = 0; r < da->rows(); ++r) (*da)(r, r) = g(r, 0);
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable MeanOf(const std::vector<Variable>& vars) {
  DARE_CHECK(!vars.empty());
  Variable acc = vars[0];
  for (size_t i = 1; i < vars.size(); ++i) acc = Add(acc, vars[i]);
  return ScalarMul(acc, 1.0f / static_cast<float>(vars.size()));
}

Variable RowDot(const Variable& a, const Variable& b) {
  if (expr::RecorderActive()) return RowSum(Mul(a, b));
  return expr::Eval(expr::RowSum(expr::Mul(expr::In(a), expr::In(b))));
}

Variable CosineRowSimilarity(const Variable& a, const Variable& b) {
  if (expr::RecorderActive()) {
    return RowSum(Mul(RowL2Normalize(a), RowL2Normalize(b)));
  }
  return expr::Eval(expr::RowSum(expr::Mul(expr::RowL2Normalize(expr::In(a)),
                                           expr::RowL2Normalize(expr::In(b)))));
}

Variable BprLoss(const Variable& pos_scores, const Variable& neg_scores) {
  DARE_CHECK_EQ(pos_scores.rows(), neg_scores.rows());
  DARE_CHECK_EQ(pos_scores.cols(), 1);
  DARE_CHECK_EQ(neg_scores.cols(), 1);
  // -log σ(pos - neg) == softplus(neg - pos).
  return Mean(Softplus(Sub(neg_scores, pos_scores)));
}

Variable InfoNceLoss(const Variable& a, const Variable& b, float temperature) {
  DARE_CHECK_EQ(a.rows(), b.rows());
  DARE_CHECK_EQ(a.cols(), b.cols());
  DARE_CHECK_GT(temperature, 0.0f);
  Variable na = RowL2Normalize(a);
  Variable nb = RowL2Normalize(b);
  Variable logits = ScalarMul(MatMul(na, nb, false, true), 1.0f / temperature);
  return Mean(Sub(RowLogSumExp(logits), TakeDiagonal(logits)));
}

Variable MseLoss(const Variable& a, const Variable& b) {
  DARE_CHECK(a.value().SameShape(b.value()));
  DARE_CHECK_GT(a.value().size(), 0);
  const float inv = 1.0f / static_cast<float>(a.value().size());
  if (expr::RecorderActive()) return ScalarMul(SumSquares(Sub(a, b)), inv);
  return expr::Eval(expr::ScalarMul(
      expr::SumSquares(expr::Sub(expr::In(a), expr::In(b))), inv));
}

Variable L2Penalty(const std::vector<Variable>& vars) {
  DARE_CHECK(!vars.empty());
  Variable acc = SumSquares(vars[0]);
  for (size_t i = 1; i < vars.size(); ++i) acc = Add(acc, SumSquares(vars[i]));
  return ScalarMul(acc, 0.5f);
}

namespace {

constexpr int64_t kLanes = simd::kExpSumLanes;

/// Row maxima of `a` and `b` (n each) in one pass. Lane-blocked so the
/// compiler can keep kLanes running maxima in vector registers; max is
/// exact, so the blocking does not change the result. NaN entries are
/// skipped here and surface through exp instead.
void RowMax2(const float* a, const float* b, int64_t n, float* max_a,
             float* max_b) {
  float la[kLanes];
  float lb[kLanes];
  for (int64_t l = 0; l < kLanes; ++l) {
    la[l] = -std::numeric_limits<float>::infinity();
    lb[l] = -std::numeric_limits<float>::infinity();
  }
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) {
      la[l] = a[j + l] > la[l] ? a[j + l] : la[l];
      lb[l] = b[j + l] > lb[l] ? b[j + l] : lb[l];
    }
  }
  for (int64_t l = 0; j + l < n; ++l) {
    la[l] = a[j + l] > la[l] ? a[j + l] : la[l];
    lb[l] = b[j + l] > lb[l] ? b[j + l] : lb[l];
  }
  float ma = la[0];
  float mb = lb[0];
  for (int64_t l = 1; l < kLanes; ++l) {
    ma = la[l] > ma ? la[l] : ma;
    mb = lb[l] > mb ? lb[l] : mb;
  }
  *max_a = ma;
  *max_b = mb;
}

/// Σ_j v[j]·(m − s[j]·inv_tau) over kLanes double lanes: the teacher-weighted
/// distance of the student logits below their row max. Every term is ≥ 0,
/// so nothing cancels. At the masked entry (s = −inf, v = 0) the distance is
/// clamped to FLT_MAX so the term is 0, not 0·inf.
double CrossRowSum(const float* v, const float* s, float inv_tau, float m,
                   int64_t n) {
  constexpr float kBig = std::numeric_limits<float>::max();
  double acc[kLanes] = {};
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) {
      float d = m - s[j + l] * inv_tau;
      d = d < kBig ? d : kBig;
      acc[l] += static_cast<double>(v[j + l] * d);
    }
  }
  for (int64_t l = 0; j + l < n; ++l) {
    float d = m - s[j + l] * inv_tau;
    d = d < kBig ? d : kBig;
    acc[l] += static_cast<double>(v[j + l] * d);
  }
  double sum = 0.0;
  for (int64_t l = 0; l < kLanes; ++l) sum += acc[l];
  return sum;
}

}  // namespace

Variable SoftmaxStructureDistillation(const Variable& student,
                                      const Matrix& teacher,
                                      float temperature) {
  const Matrix& x = student.value();
  const int64_t n = x.rows();
  DARE_CHECK_EQ(teacher.rows(), n);
  DARE_CHECK_GT(n, 1) << "distillation masks each row's self-similarity, so "
                         "it needs at least two rows";
  DARE_CHECK_GT(temperature, 0.0f);
  const float inv_tau = 1.0f / temperature;

  // Row i of the Gram matrix S (T) is formed and turned in place into the
  // unnormalized row softmax u_ij = exp(S_ij/τ − m_i) (v_ij for T) while it
  // is still in cache: each 4-row strip runs the blocked GEMM kernel, then
  // the row pass. 1/Σ_j u_ij and 1/Σ_j v_ij are kept per row in `inv_sums`.
  const int64_t d = x.cols();
  ScratchMatrix xt(Ws(), x.size());
  ScratchMatrix yt(Ws(), teacher.size());
  TransposeInto(x, xt.get());
  TransposeInto(teacher, yt.get());
  ScratchMatrix u(Ws(), n, n);
  ScratchMatrix v(Ws(), n, n);
  ScratchMatrix inv_sums(Ws(), n, 2);
  // Per-row losses as doubles (two float slots each), summed serially below.
  ScratchMatrix row_loss(Ws(), 2 * n, 1);

  const simd::KernelTable& kt = simd::Kernels();
  constexpr int64_t kStrip = simd::kMatMulRowTile;
  const int64_t strips = (n + kStrip - 1) / kStrip;
  // About 64K multiply-adds per chunk (two GEMM rows plus the row pass).
  const int64_t grain = std::max<int64_t>(
      1, (int64_t{1} << 16) / (kStrip * n * (d + teacher.cols() + 8)));
  core::ParallelFor(0, strips, grain, [&](int64_t s0, int64_t s1) {
    const int64_t end = std::min(n, s1 * kStrip);
    for (int64_t i0 = s0 * kStrip; i0 < end; i0 += kStrip) {
      const int64_t i1 = std::min(n, i0 + kStrip);
      kt.matmul_row_range(x.data(), xt->data(), u->data(), d, n, i0, i1);
      kt.matmul_row_range(teacher.data(), yt->data(), v->data(),
                          teacher.cols(), n, i0, i1);
      for (int64_t i = i0; i < i1; ++i) {
        float* urow = u->Row(i);
        float* vrow = v->Row(i);
        urow[i] = -std::numeric_limits<float>::infinity();
        vrow[i] = -std::numeric_limits<float>::infinity();
        float s_max = 0.0f;
        float t_max = 0.0f;
        RowMax2(urow, vrow, n, &s_max, &t_max);
        // max(s)·(1/τ) == max(s·(1/τ)): rounding is monotone.
        const float ms = s_max * inv_tau;
        const float mt = t_max * inv_tau;
        const double w = kt.exp_row_sum(vrow, inv_tau, mt, vrow, n);
        // Σ_j t_ij (lse_i − a_ij) = Σ_j v_ij (m_i − a_ij) / W_i + log Z_i,
        // read off the student logits before exp overwrites them.
        const double cross = CrossRowSum(vrow, urow, inv_tau, ms, n);
        const double z = kt.exp_row_sum(urow, inv_tau, ms, urow, n);
        const double loss = cross / w + std::log(z);
        std::memcpy(row_loss->data() + 2 * i, &loss, sizeof(loss));
        (*inv_sums)(i, 0) = static_cast<float>(1.0 / z);
        (*inv_sums)(i, 1) = static_cast<float>(1.0 / w);
      }
    }
  });
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    double loss;
    std::memcpy(&loss, row_loss->data() + 2 * i, sizeof(loss));
    total += loss;
  }

  Variable out = NewResult(1, 1);
  out.mutable_value()(0, 0) =
      static_cast<float>(total / static_cast<double>(n));
  auto sn = student.node();
  FinishOp(out, {sn},
           [sn, n, inv_tau, u = std::move(u), v = std::move(v),
            inv_sums = std::move(inv_sums)](Node& o) mutable {
    if (!NeedsGrad(sn)) return;
    // The forward's row loss is Σ_j v_ij (m_i − a_ij)/W_i + log Z_i, whose
    // exact derivative in a_ij is p_ij − t_ij. With S = X·Xᵀ the gradient
    // of X is (dS + dSᵀ)·X, dS = g/(nτ)·(p − t). One tiled pass overwrites
    // u with the symmetric dS + dSᵀ, then one GEMM. The diagonal is never
    // touched: the forward's masked exp left u_ii = +0 there.
    const float gs =
        (o.grad()(0, 0) * static_cast<float>(1.0 / static_cast<double>(n))) *
        inv_tau;
    Matrix& g = *u;
    const Matrix& vm = *v;
    const float* iz = inv_sums->data();  // (1/Z_i, 1/W_i) row pairs
    constexpr int64_t kTile = 32;
    const int64_t tiles = (n + kTile - 1) / kTile;
    core::ParallelFor(0, tiles, 1, [&](int64_t b0, int64_t b1) {
      // Mirror-side blocks are staged through L1-resident buffers: reading
      // them column-wise in place strides by whole rows.
      float gt[kTile][kTile];
      float vt[kTile][kTile];
      for (int64_t b = b0; b < b1; ++b) {
        const int64_t r0 = b * kTile;
        const int64_t r1 = std::min(n, r0 + kTile);
        for (int64_t c0 = r0; c0 < n; c0 += kTile) {
          const int64_t c1 = std::min(n, c0 + kTile);
          for (int64_t c = c0; c < c1; ++c) {
            std::copy(g.Row(c) + r0, g.Row(c) + r1, gt[c - c0]);
            std::copy(vm.Row(c) + r0, vm.Row(c) + r1, vt[c - c0]);
          }
          for (int64_t r = r0; r < r1; ++r) {
            float* grow = g.Row(r);
            const float* vrow = vm.Row(r);
            const float izr = iz[2 * r], iwr = iz[2 * r + 1];
            // Only pairs above the diagonal; the diagonal tile starts at r+1.
            for (int64_t c = std::max(c0, r + 1); c < c1; ++c) {
              const float mirror = gt[c - c0][r - r0] * iz[2 * c] -
                                   vt[c - c0][r - r0] * iz[2 * c + 1];
              const float dg = gs * ((grow[c] * izr - vrow[c] * iwr) + mirror);
              grow[c] = dg;
              gt[c - c0][r - r0] = dg;
            }
          }
          for (int64_t c = c0; c < c1; ++c) {
            const int64_t r_end = c0 == r0 ? std::min(c, r1) : r1;
            std::copy(gt[c - c0], gt[c - c0] + (r_end - r0), g.Row(c) + r0);
          }
        }
      }
    });
    ScratchMatrix dx(Ws(), sn->value().size());
    MatMulInto(g, sn->value(), false, false, dx.get());
    sn->AccumulateGrad(*dx);
  });
  return out;
}

// ---------------------------------------------------------------------------
// Fused-traversal ops. Each replaces a whole chain of the ops above with one
// node: the forward runs the chain's exact float sequence in a single pass
// (tensor/simd fused kernels), and the backward re-expands to the same
// per-op gradients in the same accumulation order the eager chain's
// closures would produce — so parameter gradients are bitwise identical
// and golden traces don't move.
// ---------------------------------------------------------------------------

namespace {

thread_local int64_t g_fused_ops_executed = 0;

void NoteFused() {
  ++g_fused_ops_executed;
  if (GraphContext* ctx = GraphContext::Current()) ctx->NoteFusedOp();
}

}  // namespace

int64_t FusedOpsExecuted() { return g_fused_ops_executed; }

Variable FusedSubSumSquares(const Variable& a, const Variable& b) {
  DARE_CHECK(a.value().SameShape(b.value()));
  NoteFused();
  Variable out = NewResult(1, 1);
  out.mutable_value()(0, 0) = FusedSubSumSquares(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  FinishOp(out, {an, bn}, [an, bn](Node& o) {
    const bool need_a = NeedsGrad(an);
    const bool need_b = NeedsGrad(bn);
    if (!need_a && !need_b) return;
    // Eager chain: SumSquares backward scales the Sub value by 2g; Sub
    // backward passes it to a and negates it into b, a first.
    const float scale = 2.0f * o.grad()(0, 0);
    ScratchMatrix da(Ws(), an->value().size());
    ScratchMatrix db(Ws(), bn->value().size());
    FusedSubGradInto(an->value(), bn->value(), scale,
                     need_a ? da.get() : nullptr, need_b ? db.get() : nullptr);
    if (need_a) an->AccumulateGrad(*da);
    if (need_b) bn->AccumulateGrad(*db);
  });
  return out;
}

Variable FusedSquareSum(const Variable& a, bool has_bias, float bias,
                        bool has_scale, float scale) {
  NoteFused();
  Variable out = NewResult(1, 1);
  const float sum = FusedSquareSum(a.value(), has_bias, bias);
  out.mutable_value()(0, 0) = has_scale ? sum * scale : sum;
  auto an = a.node();
  FinishOp(out, {an}, [an, has_bias, bias, has_scale, scale](Node& o) {
    if (!NeedsGrad(an)) return;
    // Eager chain: ScalarMul backward scales g, Sum backward broadcasts it,
    // Square backward multiplies by 2u, AddScalar backward passes through.
    const float g = has_scale ? o.grad()(0, 0) * scale : o.grad()(0, 0);
    ScratchMatrix da(Ws(), an->value().size());
    FusedSquareSumGradInto(an->value(), has_bias, bias, g, da.get());
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable FusedExpAffineSum(const Variable& a, float s1, float b1, float s2) {
  NoteFused();
  Variable out = NewResult(1, 1);
  // The exp results are stashed for the backward closure — exp is by far the
  // most expensive step of the chain and the eager path also evaluates it
  // only once (the Exp node keeps its output).
  ScratchMatrix y(Ws(), a.value().size());
  out.mutable_value()(0, 0) = FusedExpAffineSum(a.value(), s1, b1, s2, y.get());
  auto an = a.node();
  FinishOp(out, {an}, [an, s1, s2, y = std::move(y)](Node& o) mutable {
    if (!NeedsGrad(an)) return;
    const float g = o.grad()(0, 0);
    ScratchMatrix da(Ws(), an->value().size());
    FusedExpAffineSumGradInto(*y, s1, s2, g, da.get());
    an->AccumulateGrad(*da);
  });
  return out;
}

Variable FusedCosineRowSimilarity(const Variable& a, const Variable& b,
                                  float eps) {
  DARE_CHECK(a.value().SameShape(b.value()));
  NoteFused();
  Variable out = NewResult(a.rows(), 1);
  // The row norms computed by the forward pass are stashed for the backward
  // closure, which would otherwise re-derive them (two dots per row).
  ScratchMatrix norms(Ws(), a.rows() * 2);
  FusedCosineRowsInto(a.value(), b.value(), eps, &out.mutable_value(),
                      norms.get());
  auto an = a.node();
  auto bn = b.node();
  FinishOp(out, {an, bn},
           [an, bn, eps, norms = std::move(norms)](Node& o) mutable {
    const bool need_a = NeedsGrad(an);
    const bool need_b = NeedsGrad(bn);
    if (!need_a && !need_b) return;
    ScratchMatrix da(Ws(), an->value().size());
    ScratchMatrix db(Ws(), bn->value().size());
    FusedCosineRowsGradInto(an->value(), bn->value(), o.grad(), eps, *norms,
                            need_a ? da.get() : nullptr,
                            need_b ? db.get() : nullptr);
    // The eager chain visits RowL2Normalize(b) (higher id) before
    // RowL2Normalize(a), so b's gradient lands first.
    if (need_b) bn->AccumulateGrad(*db);
    if (need_a) an->AccumulateGrad(*da);
  });
  return out;
}

Variable FusedRowDot(const Variable& a, const Variable& b) {
  DARE_CHECK(a.value().SameShape(b.value()));
  NoteFused();
  Variable out = NewResult(a.rows(), 1);
  FusedRowDotInto(a.value(), b.value(), &out.mutable_value());
  auto an = a.node();
  auto bn = b.node();
  FinishOp(out, {an, bn}, [an, bn](Node& o) {
    const bool need_a = NeedsGrad(an);
    const bool need_b = NeedsGrad(bn);
    if (!need_a && !need_b) return;
    ScratchMatrix da(Ws(), an->value().size());
    ScratchMatrix db(Ws(), bn->value().size());
    FusedRowDotGradInto(an->value(), bn->value(), o.grad(),
                        need_a ? da.get() : nullptr,
                        need_b ? db.get() : nullptr);
    // Mul backward hits a before b in the eager chain.
    if (need_a) an->AccumulateGrad(*da);
    if (need_b) bn->AccumulateGrad(*db);
  });
  return out;
}

}  // namespace darec::tensor
