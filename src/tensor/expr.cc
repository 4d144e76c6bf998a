#include "tensor/expr.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "core/check.h"
#include "core/logging.h"
#include "tensor/ops.h"

namespace darec::tensor::expr {

// --- DAREC_FUSION toggle ----------------------------------------------------

namespace {

// -1 = not yet resolved; otherwise 0/1. Resolved lazily so the DAREC_FUSION
// override is honored no matter where the first Eval runs.
std::atomic<int> g_fusion_enabled{-1};
std::once_flag g_fusion_once;

}  // namespace

core::StatusOr<bool> ParseFusionMode(const std::string& value) {
  if (value == "on") return true;
  if (value == "off") return false;
  return core::Status::InvalidArgument("invalid fusion mode \"" + value +
                                       "\": expected on or off");
}

bool FusionModeFromEnvOrDie() {
  const char* env = std::getenv("DAREC_FUSION");
  if (env == nullptr) return true;
  const core::StatusOr<bool> parsed = ParseFusionMode(env);
  DARE_CHECK(parsed.ok()) << "DAREC_FUSION=" << env << ": "
                          << parsed.status().ToString();
  return *parsed;
}

bool FusionEnabled() {
  std::call_once(g_fusion_once, [] {
    const bool enabled = FusionModeFromEnvOrDie();
    g_fusion_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
    DARE_LOG(Info) << "expression fusion: " << (enabled ? "on" : "off")
                   << (std::getenv("DAREC_FUSION") != nullptr
                           ? " (DAREC_FUSION)"
                           : " (default)");
  });
  return g_fusion_enabled.load(std::memory_order_relaxed) != 0;
}

void SetFusionForTest(bool enabled) {
  FusionEnabled();  // Run the one-time init/logging first.
  g_fusion_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

// --- Recording --------------------------------------------------------------

namespace {

enum class OpKind : uint8_t {
  kInput,
  kAdd,
  kSub,
  kMul,
  kScalarMul,
  kAddScalar,
  kSquare,
  kAbs,
  kExp,
  kLog,
  kRowL2Normalize,
  kRowSum,
  kSum,
  kSumSquares,
  kMean,
};

struct ExNode {
  OpKind kind;
  int32_t a = -1;     // first operand (node index), -1 for kInput
  int32_t b = -1;     // second operand for binary ops
  float s0 = 0.0f;    // scalar operand / eps
  int64_t rows = 0;   // output shape
  int64_t cols = 0;
  Variable input;     // kInput only
};

// Per-thread recording. All vectors keep their capacity across Eval cycles,
// so steady-state training steps record and evaluate without allocating.
struct Recorder {
  std::vector<ExNode> nodes;
  std::vector<int32_t> uses;   // per-node consumer counts (built by Eval)
  std::vector<Variable> memo;  // per-node evaluated results (built by Eval)
  uint32_t gen = 1;            // bumped by Eval; stale handles are checked
  bool evaluating = false;
};

Recorder& Rec() {
  thread_local Recorder r;
  return r;
}

}  // namespace

/// The one friend of Expr: packs/unpacks the (index, generation) handle.
class RecorderAccess {
 public:
  static Expr Make(int32_t index, uint32_t gen) { return Expr(index, gen); }
  static int32_t Index(const Recorder& r, Expr e) {
    DARE_CHECK(e.index_ >= 0) << "null Expr handle";
    DARE_CHECK(e.gen_ == r.gen)
        << "stale Expr handle: the recording it belonged to was already "
           "evaluated (Eval ends a recording)";
    DARE_CHECK(e.index_ < static_cast<int32_t>(r.nodes.size()));
    return e.index_;
  }
};

namespace {

const ExNode& NodeAt(const Recorder& r, int32_t i) { return r.nodes[i]; }

Expr Push(Recorder& r, ExNode node) {
  DARE_CHECK(!r.evaluating) << "cannot record during Eval";
  const int32_t index = static_cast<int32_t>(r.nodes.size());
  r.nodes.push_back(std::move(node));
  return RecorderAccess::Make(index, r.gen);
}

Expr PushUnary(OpKind kind, Expr a, float s0 = 0.0f) {
  Recorder& r = Rec();
  const int32_t ia = RecorderAccess::Index(r, a);
  ExNode n;
  n.kind = kind;
  n.a = ia;
  n.s0 = s0;
  n.rows = NodeAt(r, ia).rows;
  n.cols = NodeAt(r, ia).cols;
  return Push(r, std::move(n));
}

Expr PushBinary(OpKind kind, Expr a, Expr b) {
  Recorder& r = Rec();
  const int32_t ia = RecorderAccess::Index(r, a);
  const int32_t ib = RecorderAccess::Index(r, b);
  DARE_CHECK(NodeAt(r, ia).rows == NodeAt(r, ib).rows &&
             NodeAt(r, ia).cols == NodeAt(r, ib).cols)
      << "expr shape mismatch: " << NodeAt(r, ia).rows << "x"
      << NodeAt(r, ia).cols << " vs " << NodeAt(r, ib).rows << "x"
      << NodeAt(r, ib).cols;
  ExNode n;
  n.kind = kind;
  n.a = ia;
  n.b = ib;
  n.rows = NodeAt(r, ia).rows;
  n.cols = NodeAt(r, ia).cols;
  return Push(r, std::move(n));
}

Expr PushReduction(OpKind kind, Expr a, int64_t rows, int64_t cols) {
  Recorder& r = Rec();
  const int32_t ia = RecorderAccess::Index(r, a);
  ExNode n;
  n.kind = kind;
  n.a = ia;
  n.rows = rows;
  n.cols = cols;
  return Push(r, std::move(n));
}

}  // namespace

Expr In(const Variable& v) {
  DARE_CHECK(!v.IsNull());
  Recorder& r = Rec();
  DARE_CHECK(!r.evaluating) << "cannot record during Eval";
  ExNode n;
  n.kind = OpKind::kInput;
  n.rows = v.rows();
  n.cols = v.cols();
  n.input = v;
  return Push(r, std::move(n));
}

Expr Add(Expr a, Expr b) { return PushBinary(OpKind::kAdd, a, b); }
Expr Sub(Expr a, Expr b) { return PushBinary(OpKind::kSub, a, b); }
Expr Mul(Expr a, Expr b) { return PushBinary(OpKind::kMul, a, b); }
Expr ScalarMul(Expr a, float s) { return PushUnary(OpKind::kScalarMul, a, s); }
Expr AddScalar(Expr a, float s) { return PushUnary(OpKind::kAddScalar, a, s); }
Expr Square(Expr a) { return PushUnary(OpKind::kSquare, a); }
Expr Abs(Expr a) { return PushUnary(OpKind::kAbs, a); }
Expr Exp(Expr a) { return PushUnary(OpKind::kExp, a); }
Expr Log(Expr a, float eps) { return PushUnary(OpKind::kLog, a, eps); }
Expr RowL2Normalize(Expr a, float eps) {
  return PushUnary(OpKind::kRowL2Normalize, a, eps);
}

Expr RowSum(Expr a) {
  Recorder& r = Rec();
  const int32_t ia = RecorderAccess::Index(r, a);
  return PushReduction(OpKind::kRowSum, a, NodeAt(r, ia).rows, 1);
}
Expr Sum(Expr a) { return PushReduction(OpKind::kSum, a, 1, 1); }
Expr SumSquares(Expr a) { return PushReduction(OpKind::kSumSquares, a, 1, 1); }
Expr Mean(Expr a) {
  Recorder& r = Rec();
  const int32_t ia = RecorderAccess::Index(r, a);
  DARE_CHECK_GT(NodeAt(r, ia).rows * NodeAt(r, ia).cols, 0);
  return PushReduction(OpKind::kMean, a, 1, 1);
}

bool RecorderActive() {
  const Recorder& r = Rec();
  return r.evaluating || !r.nodes.empty();
}

// --- Evaluation -------------------------------------------------------------

namespace {

bool SoleUse(const Recorder& r, int32_t i) { return r.uses[i] == 1; }

Variable EvalNode(Recorder& r, int32_t i, bool fuse);

/// Pattern-matches a reduction-rooted subchain onto one of the fused ops.
/// Returns a null Variable when the root doesn't match; every interior node
/// of a match must have exactly one consumer (otherwise another part of the
/// expression needs its materialized value and fusing would skip it).
Variable TryFuse(Recorder& r, int32_t i, bool fuse) {
  const ExNode& n = NodeAt(r, i);
  switch (n.kind) {
    case OpKind::kSumSquares: {
      const ExNode& c = NodeAt(r, n.a);
      if (c.kind == OpKind::kSub && SoleUse(r, n.a)) {
        Variable a = EvalNode(r, c.a, fuse);
        Variable b = EvalNode(r, c.b, fuse);
        return FusedSubSumSquares(a, b);
      }
      return Variable();
    }
    case OpKind::kSum:
    case OpKind::kMean: {
      const bool mean = n.kind == OpKind::kMean;
      const ExNode& c = NodeAt(r, n.a);
      // The eager Mean is ScalarMul(Sum(x), 1/size) — same scale expression.
      const float scale =
          mean ? 1.0f / static_cast<float>(c.rows * c.cols) : 0.0f;
      if (c.kind == OpKind::kSquare && SoleUse(r, n.a)) {
        const ExNode& g = NodeAt(r, c.a);
        if (g.kind == OpKind::kAddScalar && SoleUse(r, c.a)) {
          Variable x = EvalNode(r, g.a, fuse);
          return FusedSquareSum(x, /*has_bias=*/true, g.s0, mean, scale);
        }
        Variable x = EvalNode(r, c.a, fuse);
        return FusedSquareSum(x, /*has_bias=*/false, 0.0f, mean, scale);
      }
      if (!mean && c.kind == OpKind::kExp && SoleUse(r, n.a)) {
        const ExNode& m2 = NodeAt(r, c.a);
        if (m2.kind == OpKind::kScalarMul && SoleUse(r, c.a)) {
          const ExNode& ad = NodeAt(r, m2.a);
          if (ad.kind == OpKind::kAddScalar && SoleUse(r, m2.a)) {
            const ExNode& m1 = NodeAt(r, ad.a);
            if (m1.kind == OpKind::kScalarMul && SoleUse(r, ad.a)) {
              Variable x = EvalNode(r, m1.a, fuse);
              return FusedExpAffineSum(x, m1.s0, ad.s0, m2.s0);
            }
          }
        }
        return Variable();
      }
      return Variable();
    }
    case OpKind::kRowSum: {
      const ExNode& c = NodeAt(r, n.a);
      if (c.kind != OpKind::kMul || !SoleUse(r, n.a)) return Variable();
      const ExNode& p = NodeAt(r, c.a);
      const ExNode& q = NodeAt(r, c.b);
      if (p.kind == OpKind::kRowL2Normalize &&
          q.kind == OpKind::kRowL2Normalize && SoleUse(r, c.a) &&
          SoleUse(r, c.b) && p.s0 == q.s0) {
        Variable a = EvalNode(r, p.a, fuse);
        Variable b = EvalNode(r, q.a, fuse);
        return FusedCosineRowSimilarity(a, b, p.s0);
      }
      Variable a = EvalNode(r, c.a, fuse);
      Variable b = EvalNode(r, c.b, fuse);
      return FusedRowDot(a, b);
    }
    default:
      return Variable();
  }
}

/// Emits the single eager op for node `i` (children first, left to right) —
/// the exact op the handwritten eager composition would have called, so the
/// fusion-off path is the eager path.
Variable ReplayOne(Recorder& r, int32_t i, bool fuse) {
  const ExNode& n = NodeAt(r, i);
  switch (n.kind) {
    case OpKind::kInput:
      return n.input;
    case OpKind::kAdd: {
      Variable a = EvalNode(r, n.a, fuse);
      Variable b = EvalNode(r, n.b, fuse);
      return tensor::Add(a, b);
    }
    case OpKind::kSub: {
      Variable a = EvalNode(r, n.a, fuse);
      Variable b = EvalNode(r, n.b, fuse);
      return tensor::Sub(a, b);
    }
    case OpKind::kMul: {
      Variable a = EvalNode(r, n.a, fuse);
      Variable b = EvalNode(r, n.b, fuse);
      return tensor::Mul(a, b);
    }
    case OpKind::kScalarMul:
      return tensor::ScalarMul(EvalNode(r, n.a, fuse), n.s0);
    case OpKind::kAddScalar:
      return tensor::AddScalar(EvalNode(r, n.a, fuse), n.s0);
    case OpKind::kSquare:
      return tensor::Square(EvalNode(r, n.a, fuse));
    case OpKind::kAbs:
      return tensor::Abs(EvalNode(r, n.a, fuse));
    case OpKind::kExp:
      return tensor::Exp(EvalNode(r, n.a, fuse));
    case OpKind::kLog:
      return tensor::Log(EvalNode(r, n.a, fuse), n.s0);
    case OpKind::kRowL2Normalize:
      return tensor::RowL2Normalize(EvalNode(r, n.a, fuse), n.s0);
    case OpKind::kRowSum:
      return tensor::RowSum(EvalNode(r, n.a, fuse));
    case OpKind::kSum:
      return tensor::Sum(EvalNode(r, n.a, fuse));
    case OpKind::kSumSquares:
      return tensor::SumSquares(EvalNode(r, n.a, fuse));
    case OpKind::kMean:
      return tensor::Mean(EvalNode(r, n.a, fuse));
  }
  DARE_CHECK(false) << "unreachable";
  return Variable();
}

Variable EvalNode(Recorder& r, int32_t i, bool fuse) {
  if (!r.memo[i].IsNull()) return r.memo[i];
  Variable v;
  if (fuse) v = TryFuse(r, i, fuse);
  if (v.IsNull()) v = ReplayOne(r, i, fuse);
  r.memo[i] = v;
  return v;
}

}  // namespace

Variable Eval(Expr root) {
  Recorder& r = Rec();
  DARE_CHECK(!r.evaluating) << "Eval does not nest";
  const int32_t root_index = RecorderAccess::Index(r, root);
  r.evaluating = true;
  r.uses.assign(r.nodes.size(), 0);
  for (const ExNode& n : r.nodes) {
    if (n.a >= 0) ++r.uses[n.a];
    if (n.b >= 0) ++r.uses[n.b];
  }
  r.memo.assign(r.nodes.size(), Variable());
  Variable out = EvalNode(r, root_index, FusionEnabled());
  // End the recording: clear (keeping capacity) and invalidate handles.
  r.nodes.clear();
  r.uses.clear();
  r.memo.clear();
  r.evaluating = false;
  ++r.gen;
  return out;
}

}  // namespace darec::tensor::expr
