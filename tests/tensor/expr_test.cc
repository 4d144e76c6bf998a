// Expression-fusion contract tests (DESIGN.md §14): the DAREC_FUSION toggle
// parses/validates like DAREC_SIMD, and every recorded chain shape used by
// the model evaluates bitwise-identically fused vs replayed — across the
// compiled SIMD tiers and across thread counts — in both the forward value
// and every input gradient.
#include "tensor/expr.h"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/cpu_features.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/autograd.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace darec::tensor::expr {
namespace {

TEST(FusionModeTest, ParseAcceptsOnAndOff) {
  auto on = ParseFusionMode("on");
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(*on);
  auto off = ParseFusionMode("off");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(*off);
}

TEST(FusionModeTest, ParseRejectsGarbage) {
  for (const char* bad : {"", "ON", "Off", "true", "1", "on ", "enabled"}) {
    auto parsed = ParseFusionMode(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "' should not parse";
    EXPECT_EQ(parsed.status().code(), core::StatusCode::kInvalidArgument);
  }
}

TEST(FusionModeTest, EnvOverrideHonored) {
  setenv("DAREC_FUSION", "off", 1);
  EXPECT_FALSE(FusionModeFromEnvOrDie());
  setenv("DAREC_FUSION", "on", 1);
  EXPECT_TRUE(FusionModeFromEnvOrDie());
  unsetenv("DAREC_FUSION");
  EXPECT_TRUE(FusionModeFromEnvOrDie()) << "unset must default to on";
}

TEST(FusionModeDeathTest, EnvOverrideRejectsGarbage) {
  setenv("DAREC_FUSION", "fast", 1);
  EXPECT_DEATH(FusionModeFromEnvOrDie(), "DAREC_FUSION");
  setenv("DAREC_FUSION", "On", 1);
  EXPECT_DEATH(FusionModeFromEnvOrDie(), "DAREC_FUSION");
  unsetenv("DAREC_FUSION");
}

TEST(FusionModeTest, SetFusionForTestFlipsTheMode) {
  SetFusionForTest(false);
  EXPECT_FALSE(FusionEnabled());
  SetFusionForTest(true);
  EXPECT_TRUE(FusionEnabled());
}

TEST(ExprDeathTest, HandlesGoStaleAfterEval) {
  Variable a = Variable::Constant(Matrix::Full(2, 3, 1.5f));
  Expr recorded = Sum(In(a));
  (void)Eval(recorded);
  EXPECT_DEATH(Eval(recorded), "stale");
}

// --- Fused-vs-eager parity sweep -------------------------------------------

/// Deterministic inputs with mixed signs/magnitudes; `zero_row` forces one
/// all-zero row to exercise the RowL2Normalize eps passthrough.
Matrix TestInput(int64_t rows, int64_t cols, float offset, bool zero_row = false) {
  Matrix m(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const float base = 0.31f + 0.47f * static_cast<float>(r) -
                         0.29f * static_cast<float>(c) + offset;
      m(r, c) = base * ((r + c) % 3 == 0 ? -17.0f : 0.013f);
    }
  }
  if (zero_row && rows > 1) {
    for (int64_t c = 0; c < cols; ++c) m(1, c) = 0.0f;
  }
  return m;
}

std::vector<uint32_t> BitsOf(const Matrix& m) {
  std::vector<uint32_t> bits(static_cast<size_t>(m.size()));
  std::memcpy(bits.data(), m.data(), bits.size() * sizeof(uint32_t));
  return bits;
}

struct ChainCase {
  const char* name;
  int num_inputs;
  bool wants_fusion;  // False for chains that must fall back to replay.
  std::function<Variable(const std::vector<Variable>&)> build;
};

/// Every chain shape the model records, plus a fallback chain with no fused
/// pattern. Builders record through expr:: and Eval, exactly like the call
/// sites in darec/losses.cc and the rerouted composites in tensor/ops.cc.
std::vector<ChainCase> AllChains() {
  return {
      {"sub_sumsq", 2, true,
       [](const std::vector<Variable>& in) {
         return Eval(ScalarMul(SumSquares(Sub(In(in[0]), In(in[1]))), 0.125f));
       }},
      {"mean_square_bias", 1, true,
       [](const std::vector<Variable>& in) {
         return Eval(Mean(Square(AddScalar(In(in[0]), -1.0f))));
       }},
      {"sum_square", 1, true,
       [](const std::vector<Variable>& in) {
         return Eval(Sum(Square(In(in[0]))));
       }},
      {"exp_affine_sum", 1, true,
       [](const std::vector<Variable>& in) {
         return Eval(Log(ScalarMul(
             Sum(Exp(ScalarMul(AddScalar(ScalarMul(In(in[0]), -2.0f), 2.0f),
                               -2.0f))),
             0.25f)));
       }},
      {"cosine_rows", 2, true,
       [](const std::vector<Variable>& in) {
         return Eval(Mean(Square(
             RowSum(Mul(RowL2Normalize(In(in[0])), RowL2Normalize(In(in[1])))))));
       }},
      {"row_dot", 2, true,
       [](const std::vector<Variable>& in) {
         return Eval(Mean(RowSum(Mul(In(in[0]), In(in[1])))));
       }},
      {"fallback_abs", 2, false,
       [](const std::vector<Variable>& in) {
         return Eval(Sum(Abs(Sub(In(in[0]), In(in[1])))));
       }},
  };
}

struct ChainResult {
  std::vector<uint32_t> value_bits;
  std::vector<std::vector<uint32_t>> grad_bits;
};

ChainResult RunChain(const ChainCase& chain, int64_t rows, int64_t cols,
                     bool fused) {
  SetFusionForTest(fused);
  std::vector<Variable> inputs;
  for (int i = 0; i < chain.num_inputs; ++i) {
    inputs.push_back(Variable::Parameter(
        TestInput(rows, cols, 0.1f * static_cast<float>(i + 1), i == 0)));
  }
  const int64_t fused_before = FusedOpsExecuted();
  Variable loss = chain.build(inputs);
  const int64_t fused_delta = FusedOpsExecuted() - fused_before;
  if (fused && chain.wants_fusion) {
    EXPECT_GT(fused_delta, 0) << chain.name << " should have fused";
  } else {
    EXPECT_EQ(fused_delta, 0) << chain.name << " should not have fused";
  }
  Backward(loss);
  ChainResult result;
  result.value_bits = BitsOf(loss.value());
  for (const Variable& in : inputs) result.grad_bits.push_back(BitsOf(in.grad()));
  SetFusionForTest(true);
  return result;
}

class FusionParityTest : public ::testing::Test {
 protected:
  static std::vector<core::SimdLevel> AvailableLevels() {
    std::vector<core::SimdLevel> levels{core::SimdLevel::kScalar};
    if (core::HardwareSimdLevel() >= core::SimdLevel::kAvx2)
      levels.push_back(core::SimdLevel::kAvx2);
    if (core::HardwareSimdLevel() >= core::SimdLevel::kAvx512)
      levels.push_back(core::SimdLevel::kAvx512);
    return levels;
  }

  void TearDown() override {
    core::SetSimdLevelForTest(core::HardwareSimdLevel());
    core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());
    SetFusionForTest(true);
  }
};

TEST_F(FusionParityTest, FusedMatchesEagerBitwiseAcrossTiersAndThreads) {
  // Shapes: 1x1, primes, tile-exact, one-past-tile, tall-skinny.
  const int64_t shapes[][2] = {{1, 1}, {3, 5}, {7, 13}, {16, 16},
                               {17, 33}, {31, 8}, {64, 3}};
  for (const ChainCase& chain : AllChains()) {
    for (const auto& shape : shapes) {
      const int64_t rows = shape[0], cols = shape[1];
      // Baseline: replayed eager chain, scalar tier, single thread.
      core::SetSimdLevelForTest(core::SimdLevel::kScalar);
      core::ThreadPool::SetGlobalThreads(1);
      const ChainResult want = RunChain(chain, rows, cols, /*fused=*/false);
      for (core::SimdLevel level : AvailableLevels()) {
        core::SetSimdLevelForTest(level);
        for (int threads : {1, 8}) {
          core::ThreadPool::SetGlobalThreads(threads);
          for (bool fused : {false, true}) {
            const ChainResult got = RunChain(chain, rows, cols, fused);
            ASSERT_EQ(got.value_bits, want.value_bits)
                << chain.name << " value " << rows << "x" << cols << " "
                << core::SimdLevelName(level) << " threads=" << threads
                << " fused=" << fused;
            ASSERT_EQ(got.grad_bits.size(), want.grad_bits.size());
            for (size_t i = 0; i < want.grad_bits.size(); ++i) {
              ASSERT_EQ(got.grad_bits[i], want.grad_bits[i])
                  << chain.name << " grad[" << i << "] " << rows << "x" << cols
                  << " " << core::SimdLevelName(level) << " threads=" << threads
                  << " fused=" << fused;
            }
          }
        }
      }
    }
  }
}

TEST_F(FusionParityTest, ReroutedCompositesMatchRecordedChains) {
  // RowDot / CosineRowSimilarity / MseLoss now route through expr — their
  // values and grads must be bitwise-stable whether fusion is on or off.
  std::vector<uint32_t> want_value, want_ga, want_gb;
  for (bool fused : {false, true}) {
    SetFusionForTest(fused);
    Variable a = Variable::Parameter(TestInput(9, 7, 0.2f, true));
    Variable b = Variable::Parameter(TestInput(9, 7, -0.3f));
    Variable loss = tensor::Add(
        tensor::Add(tensor::Sum(tensor::RowDot(a, b)),
                    tensor::Sum(tensor::CosineRowSimilarity(a, b))),
        tensor::MseLoss(a, b));
    Backward(loss);
    if (!fused) {
      want_value = BitsOf(loss.value());
      want_ga = BitsOf(a.grad());
      want_gb = BitsOf(b.grad());
    } else {
      EXPECT_EQ(BitsOf(loss.value()), want_value);
      EXPECT_EQ(BitsOf(a.grad()), want_ga);
      EXPECT_EQ(BitsOf(b.grad()), want_gb);
    }
  }
  SetFusionForTest(true);
}

TEST(ExprTest, CompositeInsideRecordingDoesNotClobberIt) {
  // A composite op called while a recording is open must fall back to plain
  // eager composition instead of consuming the caller's recording.
  Variable a = Variable::Constant(Matrix::Full(4, 3, 0.5f));
  Variable b = Variable::Constant(Matrix::Full(4, 3, 0.25f));
  Expr open = Sub(In(a), In(b));  // Recording now active.
  EXPECT_TRUE(RecorderActive());
  Variable composite = tensor::MseLoss(a, b);  // Must not touch the recording.
  EXPECT_TRUE(RecorderActive());
  Variable recorded = Eval(SumSquares(open));
  EXPECT_FALSE(RecorderActive());
  const float n = static_cast<float>(a.value().size());
  EXPECT_EQ(composite.scalar(), recorded.scalar() * (1.0f / n));
}

}  // namespace
}  // namespace darec::tensor::expr
