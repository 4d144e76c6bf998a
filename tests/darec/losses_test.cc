#include "darec/losses.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "core/cpu_features.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "test_util.h"

namespace darec::model {
namespace {

using tensor::Matrix;
using tensor::Variable;

TEST(OrthogonalityLossTest, ZeroForOrthogonalRows) {
  Variable a = Variable::Parameter(Matrix::FromVector(2, 2, {1, 0, 0, 1}));
  Variable b = Variable::Parameter(Matrix::FromVector(2, 2, {0, 1, 1, 0}));
  EXPECT_NEAR(OrthogonalityLoss(a, b).scalar(), 0.0f, 1e-6f);
}

TEST(OrthogonalityLossTest, OneForParallelRows) {
  Variable a = Variable::Parameter(Matrix::FromVector(2, 2, {1, 1, 2, 0}));
  Variable b = Variable::Parameter(Matrix::FromVector(2, 2, {2, 2, 5, 0}));
  EXPECT_NEAR(OrthogonalityLoss(a, b).scalar(), 1.0f, 1e-5f);
  // Anti-parallel also penalized (cosine squared).
  Variable c = Variable::Parameter(Matrix::FromVector(2, 2, {-1, -1, -2, 0}));
  EXPECT_NEAR(OrthogonalityLoss(a, c).scalar(), 1.0f, 1e-5f);
}

TEST(OrthogonalityLossTest, GradientCheck) {
  core::Rng rng(1);
  std::vector<Variable> params{
      Variable::Parameter(tensor::RandomNormal(4, 3, 1.0f, rng)),
      Variable::Parameter(tensor::RandomNormal(4, 3, 1.0f, rng))};
  darec::testing::ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return OrthogonalityLoss(p[0], p[1]); },
      params);
}

TEST(OrthogonalityLossTest, MinimizationDecorrelates) {
  core::Rng rng(2);
  Variable a = Variable::Parameter(tensor::RandomNormal(8, 4, 1.0f, rng));
  Variable b = Variable::Parameter(tensor::RandomNormal(8, 4, 1.0f, rng));
  tensor::Adam adam({a, b}, 0.05f);
  const float initial = OrthogonalityLoss(a, b).scalar();
  for (int step = 0; step < 200; ++step) {
    adam.ZeroGrad();
    Backward(OrthogonalityLoss(a, b));
    adam.Step();
  }
  EXPECT_LT(OrthogonalityLoss(a, b).scalar(), initial * 0.05f);
}

TEST(UniformityLossTest, CollapsedPointsScoreHigh) {
  // Identical rows -> pairwise distance 0 -> log E exp(0) = 0, the maximum.
  Variable collapsed = Variable::Parameter(Matrix::Full(6, 4, 1.0f));
  EXPECT_NEAR(UniformityLoss(collapsed).scalar(), 0.0f, 1e-5f);

  // Antipodal points on the sphere: distance² = 4 -> well below 0.
  Matrix spread(2, 2);
  spread(0, 0) = 1.0f;
  spread(1, 0) = -1.0f;
  Variable v = Variable::Parameter(spread);
  EXPECT_LT(UniformityLoss(v).scalar(), -7.0f);
}

TEST(UniformityLossTest, GradientCheck) {
  core::Rng rng(3);
  std::vector<Variable> params{
      Variable::Parameter(tensor::RandomNormal(5, 3, 1.0f, rng))};
  darec::testing::ExpectGradientsMatch(
      [](const std::vector<Variable>& p) { return UniformityLoss(p[0]); }, params);
}

TEST(UniformityLossTest, MinimizationSpreadsPoints) {
  core::Rng rng(4);
  // Start clustered tightly; optimizing uniformity should spread them.
  Variable x = Variable::Parameter(tensor::RandomNormal(10, 3, 0.01f, rng));
  tensor::Adam adam({x}, 0.05f);
  const float initial = UniformityLoss(x).scalar();
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad();
    Backward(UniformityLoss(x));
    adam.Step();
  }
  EXPECT_LT(UniformityLoss(x).scalar(), initial - 1.0f);
}

TEST(GlobalStructureLossTest, ZeroWhenStructuresMatch) {
  core::Rng rng(5);
  Matrix base = tensor::RandomNormal(6, 4, 1.0f, rng);
  Variable a = Variable::Parameter(base);
  // Scaling rows does not change the normalized similarity structure.
  Matrix scaled = base;
  scaled.ScaleInPlace(3.0f);
  Variable b = Variable::Parameter(scaled);
  EXPECT_NEAR(GlobalStructureLoss(a, b).scalar(), 0.0f, 1e-6f);
}

TEST(GlobalStructureLossTest, PositiveWhenStructuresDiffer) {
  core::Rng rng(6);
  Variable a = Variable::Parameter(tensor::RandomNormal(6, 4, 1.0f, rng));
  Variable b = Variable::Parameter(tensor::RandomNormal(6, 4, 1.0f, rng));
  EXPECT_GT(GlobalStructureLoss(a, b).scalar(), 0.01f);
}

TEST(GlobalStructureLossTest, GradientCheck) {
  core::Rng rng(7);
  std::vector<Variable> params{
      Variable::Parameter(tensor::RandomNormal(4, 3, 1.0f, rng)),
      Variable::Parameter(tensor::RandomNormal(4, 3, 1.0f, rng))};
  darec::testing::ExpectGradientsMatch(
      [](const std::vector<Variable>& p) {
        return GlobalStructureLoss(p[0], p[1]);
      },
      params);
}

TEST(GlobalStructureLossTest, MinimizationAlignsStructures) {
  core::Rng rng(8);
  Matrix target = tensor::RandomNormal(8, 4, 1.0f, rng);
  Variable fixed = Variable::Constant(target);
  Variable moving = Variable::Parameter(tensor::RandomNormal(8, 4, 1.0f, rng));
  tensor::Adam adam({moving}, 0.02f);
  const float initial = GlobalStructureLoss(moving, fixed).scalar();
  for (int step = 0; step < 400; ++step) {
    adam.ZeroGrad();
    Backward(GlobalStructureLoss(moving, fixed));
    adam.Step();
  }
  EXPECT_LT(GlobalStructureLoss(moving, fixed).scalar(), initial * 0.1f);
}

TEST(GlobalStructureLossSoftmaxTest, LowerWhenStructuresMatch) {
  core::Rng rng(20);
  Matrix base = tensor::RandomNormal(10, 4, 1.0f, rng);
  Variable a = Variable::Parameter(base);
  Variable b = Variable::Parameter(base);
  Variable c = Variable::Parameter(tensor::RandomNormal(10, 4, 1.0f, rng));
  const float same = GlobalStructureLossSoftmax(a, b, 0.5f).scalar();
  const float different = GlobalStructureLossSoftmax(a, c, 0.5f).scalar();
  EXPECT_LT(same, different);
}

TEST(GlobalStructureLossSoftmaxTest, TeacherSideIsDetached) {
  core::Rng rng(21);
  Variable student = Variable::Parameter(tensor::RandomNormal(6, 3, 1.0f, rng));
  Variable teacher = Variable::Parameter(tensor::RandomNormal(6, 3, 1.0f, rng));
  Backward(GlobalStructureLossSoftmax(student, teacher, 0.5f));
  EXPECT_FALSE(student.grad().empty());
  EXPECT_TRUE(teacher.grad().empty());
}

TEST(GlobalStructureLossSoftmaxTest, GradientCheck) {
  core::Rng rng(22);
  std::vector<Variable> params{
      Variable::Parameter(tensor::RandomNormal(5, 3, 1.0f, rng))};
  Variable teacher = Variable::Constant(tensor::RandomNormal(5, 3, 1.0f, rng));
  darec::testing::ExpectGradientsMatch(
      [&teacher](const std::vector<Variable>& p) {
        return GlobalStructureLossSoftmax(p[0], teacher, 0.5f);
      },
      params);
}

TEST(GlobalStructureLossSoftmaxTest, MinimizationAlignsNeighborStructure) {
  core::Rng rng(23);
  Variable teacher = Variable::Constant(tensor::RandomNormal(12, 4, 1.0f, rng));
  Variable student = Variable::Parameter(tensor::RandomNormal(12, 4, 1.0f, rng));
  tensor::Adam adam({student}, 0.05f);
  const float initial = GlobalStructureLossSoftmax(student, teacher, 0.5f).scalar();
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad();
    Backward(GlobalStructureLossSoftmax(student, teacher, 0.5f));
    adam.Step();
  }
  EXPECT_LT(GlobalStructureLossSoftmax(student, teacher, 0.5f).scalar(),
            initial * 0.8f);
}

/// The eager op chain GlobalStructureLossSoftmax ran before it became one
/// node (tensor::SoftmaxStructureDistillation): a 1e4 diagonal mask matrix,
/// scaled logits, a detached teacher softmax, RowLogSumExp broadcast by a
/// rank-1 MatMul, and Sum(t ∘ (lse − s)) / n. Kept as the parity reference.
Variable EagerSoftmaxStructureLoss(const Variable& shared_cf,
                                   const Variable& shared_llm,
                                   float temperature) {
  const int64_t n = shared_cf.rows();
  const float inv_tau = 1.0f / temperature;
  Variable ncf = tensor::RowL2Normalize(shared_cf);
  Variable nllm = tensor::RowL2Normalize(shared_llm);
  Matrix mask(n, n);
  for (int64_t i = 0; i < n; ++i) mask(i, i) = 1e4f;
  Variable diag_mask = Variable::Constant(std::move(mask));
  Variable logits_cf = tensor::Sub(
      tensor::ScalarMul(tensor::MatMul(ncf, ncf, false, true), inv_tau),
      diag_mask);
  Variable logits_llm = tensor::Detach(tensor::Sub(
      tensor::ScalarMul(tensor::MatMul(nllm, nllm, false, true), inv_tau),
      diag_mask));
  Variable targets = tensor::SoftmaxRows(logits_llm);
  Variable lse_broadcast =
      tensor::MatMul(tensor::RowLogSumExp(logits_cf),
                     Variable::Constant(Matrix::Full(1, n, 1.0f)));
  return tensor::ScalarMul(
      tensor::Sum(tensor::Mul(targets, tensor::Sub(lse_broadcast, logits_cf))),
      1.0f / static_cast<float>(n));
}

struct LossAndGrad {
  float loss;
  Matrix grad;
};

template <typename LossFn>
LossAndGrad RunLoss(LossFn loss_fn, const Matrix& cf, const Matrix& llm,
                    float temperature) {
  Variable student = Variable::Parameter(cf);
  Variable teacher = Variable::Parameter(llm);
  Variable loss = loss_fn(student, teacher, temperature);
  Backward(loss);
  EXPECT_TRUE(teacher.grad().empty()) << "the teacher must stay detached";
  return {loss.scalar(), student.grad()};
}

uint32_t FloatBits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectBitwiseEqual(const LossAndGrad& a, const LossAndGrad& b) {
  EXPECT_EQ(FloatBits(a.loss), FloatBits(b.loss));
  ASSERT_TRUE(a.grad.SameShape(b.grad));
  for (int64_t i = 0; i < a.grad.size(); ++i) {
    ASSERT_EQ(FloatBits(a.grad.data()[i]), FloatBits(b.grad.data()[i]))
        << "gradient element " << i;
  }
}

TEST(GlobalStructureLossSoftmaxTest, FusedNodeMatchesTheEagerChain) {
  for (int64_t n : {2, 3, 17, 64, 300}) {
    for (float tau : {0.05f, 0.5f, 2.0f}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " tau=" + std::to_string(tau));
      core::Rng rng(100 + n);
      const Matrix cf = tensor::RandomNormal(n, 8, 1.0f, rng);
      const Matrix llm = tensor::RandomNormal(n, 8, 1.0f, rng);
      const LossAndGrad fused =
          RunLoss(GlobalStructureLossSoftmax, cf, llm, tau);
      const LossAndGrad eager =
          RunLoss(EagerSoftmaxStructureLoss, cf, llm, tau);
      EXPECT_NEAR(fused.loss, eager.loss,
                  1e-6f * std::fabs(eager.loss) + 1e-7f);
      ASSERT_TRUE(fused.grad.SameShape(eager.grad));
      for (int64_t i = 0; i < eager.grad.size(); ++i) {
        ASSERT_NEAR(fused.grad.data()[i], eager.grad.data()[i], 1e-5f)
            << "gradient element " << i;
      }
    }
  }
}

TEST(GlobalStructureLossSoftmaxTest, BitwiseIndependentOfThreadsAndSimdTier) {
  core::Rng rng(31);
  // 300 rows: several row chunks and a ragged 64-row backward tile.
  const Matrix cf = tensor::RandomNormal(300, 16, 1.0f, rng);
  const Matrix llm = tensor::RandomNormal(300, 16, 1.0f, rng);
  core::ThreadPool::SetGlobalThreads(1);
  core::SetSimdLevelForTest(core::SimdLevel::kScalar);
  const LossAndGrad reference =
      RunLoss(GlobalStructureLossSoftmax, cf, llm, 0.5f);
  for (int threads : {1, 8}) {
    core::ThreadPool::SetGlobalThreads(threads);
    for (core::SimdLevel level : {core::SimdLevel::kScalar,
                                  core::SimdLevel::kAvx2,
                                  core::SimdLevel::kAvx512}) {
      if (level > core::HardwareSimdLevel()) continue;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " simd=" + core::SimdLevelName(level));
      core::SetSimdLevelForTest(level);
      ExpectBitwiseEqual(RunLoss(GlobalStructureLossSoftmax, cf, llm, 0.5f),
                         reference);
    }
  }
  core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());
  core::SetSimdLevelForTest(core::SimdLevelFromEnvOrDie());
}

TEST(GlobalStructureLossSoftmaxTest, MaskedDiagonalContributesExactlyNothing) {
  // With two rows each row's only unmasked neighbor is the other row, so
  // student and teacher softmaxes are both one-hot on it: the loss and its
  // gradient are exactly zero. Any leak of the self-similarity would make
  // the student row softmax less than one-hot and both nonzero.
  core::Rng rng(32);
  const Matrix cf = tensor::RandomNormal(2, 5, 1.0f, rng);
  const Matrix llm = tensor::RandomNormal(2, 5, 1.0f, rng);
  const LossAndGrad result = RunLoss(GlobalStructureLossSoftmax, cf, llm, 0.5f);
  EXPECT_EQ(result.loss, 0.0f);
  for (int64_t i = 0; i < result.grad.size(); ++i) {
    EXPECT_EQ(result.grad.data()[i], 0.0f) << "gradient element " << i;
  }
}

TEST(GlobalStructureLossSoftmaxTest, NanRowMakesTheLossNonFinite) {
  // DivergenceGuard watches the step loss; a NaN embedding row must reach
  // it through this term rather than being masked away.
  core::Rng rng(33);
  Matrix cf = tensor::RandomNormal(6, 4, 1.0f, rng);
  const Matrix llm = tensor::RandomNormal(6, 4, 1.0f, rng);
  cf(3, 0) = std::numeric_limits<float>::quiet_NaN();
  Variable student = Variable::Parameter(cf);
  EXPECT_FALSE(std::isfinite(
      GlobalStructureLossSoftmax(student, Variable::Constant(llm), 0.5f)
          .scalar()));
  // Same for a NaN on the teacher side.
  Matrix bad_llm = llm;
  bad_llm(1, 2) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(std::isfinite(GlobalStructureLossSoftmax(
      Variable::Parameter(tensor::RandomNormal(6, 4, 1.0f, rng)),
      Variable::Constant(bad_llm), 0.5f).scalar()));
}

/// Two tight blobs near the given 3-D centers.
Matrix BlobsAt(core::Rng& rng, const float c0[3], const float c1[3]) {
  Matrix points(20, 3);
  for (int64_t i = 0; i < 20; ++i) {
    const float* center = i < 10 ? c0 : c1;
    for (int64_t d = 0; d < 3; ++d) {
      points(i, d) = center[d] + static_cast<float>(rng.Normal(0.0, 0.05));
    }
  }
  return points;
}

TEST(LocalStructureLossTest, MatchedClustersScoreLow) {
  core::Rng rng(9);
  // Cloud with mutually-orthogonal cluster directions: for identical
  // inputs the matched (diagonal) centers agree exactly and the unmatched
  // pairs are already orthogonal, so the loss is near zero.
  const float ex[3] = {5, 0, 0};
  const float ey[3] = {0, 5, 0};
  Matrix ortho = BlobsAt(rng, ex, ey);
  Variable a = Variable::Parameter(ortho);
  Variable b = Variable::Parameter(ortho);
  core::Rng loss_rng1(1), loss_rng2(1);
  const float same =
      LocalStructureLoss(a, b, 2, MatchingStrategy::kGreedy, 20, loss_rng1).scalar();
  EXPECT_LT(same, 0.05f);

  // A cloud whose two clusters both point along +x: one matched pair is
  // badly aligned, so the loss must be clearly larger.
  const float ex2[3] = {4.9f, 1, 0};
  Variable c = Variable::Parameter(BlobsAt(rng, ex, ex2));
  const float different =
      LocalStructureLoss(a, c, 2, MatchingStrategy::kGreedy, 20, loss_rng2).scalar();
  EXPECT_GT(different, same + 0.1f);
}

TEST(LocalStructureLossTest, GradientsFlowToBothInputs) {
  core::Rng rng(10);
  Variable a = Variable::Parameter(tensor::RandomNormal(12, 3, 1.0f, rng));
  Variable b = Variable::Parameter(tensor::RandomNormal(12, 3, 1.0f, rng));
  core::Rng loss_rng(2);
  Variable loss =
      LocalStructureLoss(a, b, 3, MatchingStrategy::kGreedy, 10, loss_rng);
  Backward(loss);
  EXPECT_FALSE(a.grad().empty());
  EXPECT_FALSE(b.grad().empty());
}

TEST(LocalStructureLossTest, HungarianStrategyWorks) {
  core::Rng rng(11);
  Variable a = Variable::Parameter(tensor::RandomNormal(12, 3, 1.0f, rng));
  Variable b = Variable::Parameter(tensor::RandomNormal(12, 3, 1.0f, rng));
  core::Rng loss_rng(3);
  Variable loss =
      LocalStructureLoss(a, b, 3, MatchingStrategy::kHungarian, 10, loss_rng);
  EXPECT_TRUE(std::isfinite(loss.scalar()));
}

TEST(LocalStructureLossTest, ClampsKToRows) {
  core::Rng rng(12);
  Variable a = Variable::Parameter(tensor::RandomNormal(3, 2, 1.0f, rng));
  Variable b = Variable::Parameter(tensor::RandomNormal(3, 2, 1.0f, rng));
  core::Rng loss_rng(4);
  // K = 100 > 3 rows must not crash.
  Variable loss =
      LocalStructureLoss(a, b, 100, MatchingStrategy::kGreedy, 5, loss_rng);
  EXPECT_TRUE(std::isfinite(loss.scalar()));
}

TEST(LocalStructureLossTest, SingleClusterOnlyDiagonalTerm) {
  core::Rng rng(13);
  Variable a = Variable::Parameter(tensor::RandomNormal(6, 2, 1.0f, rng));
  core::Rng loss_rng(5);
  Variable loss = LocalStructureLoss(a, a, 1, MatchingStrategy::kGreedy, 5,
                                     loss_rng);
  // Centers are identical -> cosine 1 -> (1-1)² = 0.
  EXPECT_NEAR(loss.scalar(), 0.0f, 1e-6f);
}

}  // namespace
}  // namespace darec::model
