// Allocation regression: with the graph context on (the default), a
// steady-state training epoch must perform (near-)zero Matrix heap
// allocations — the arena recycles nodes, the Workspace recycles buffers —
// while remaining bit-identical to the legacy allocate-per-op path.
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/rng.h"
#include "darec/losses.h"
#include "gtest/gtest.h"
#include "pipeline/experiment.h"
#include "pipeline/train_loop.h"
#include "tensor/alloc_stats.h"
#include "tensor/expr.h"
#include "tensor/init.h"

namespace darec::pipeline {
namespace {

using tensor::AllocStats;

ExperimentSpec SmallSpec(const std::string& variant) {
  ExperimentSpec spec;
  spec.dataset = "tiny";
  spec.backbone = "lightgcn";
  spec.variant = variant;
  spec.backbone_options.embedding_dim = 16;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 64;
  spec.train_options.epochs = 4;
  spec.train_options.batch_size = 256;
  spec.llm_options.output_dim = 24;
  spec.llm_options.hidden_dim = 32;
  spec.darec_options.sample_size = 64;
  spec.darec_options.uniformity_sample = 32;
  spec.darec_options.projection_dim = 16;
  spec.darec_options.hidden_dim = 24;
  spec.darec_options.kmeans_iterations = 5;
  return spec;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Epoch losses with the graph context toggled; both runs start from the
/// same deterministic Experiment seed.
std::vector<double> RunEpochs(const std::string& variant, bool pooled,
                              int epochs) {
  auto experiment = Experiment::Create(SmallSpec(variant));
  EXPECT_TRUE(experiment.ok());
  (*experiment)->trainer().mutable_step().set_graph_context_enabled(pooled);
  std::vector<double> losses;
  losses.reserve(epochs);
  for (int e = 0; e < epochs; ++e) {
    losses.push_back((*experiment)->trainer().RunEpoch());
  }
  return losses;
}

TEST(AllocRegressionTest, PooledPathBitwiseEqualsLegacyPath) {
  for (const char* variant : {"baseline", "darec"}) {
    SCOPED_TRACE(variant);
    std::vector<double> pooled = RunEpochs(variant, /*pooled=*/true, 3);
    std::vector<double> legacy = RunEpochs(variant, /*pooled=*/false, 3);
    ASSERT_EQ(pooled.size(), legacy.size());
    for (size_t e = 0; e < pooled.size(); ++e) {
      EXPECT_EQ(Bits(pooled[e]), Bits(legacy[e]))
          << "epoch " << e + 1 << " loss drifted: pooled=" << pooled[e]
          << " legacy=" << legacy[e];
    }
  }
}

struct EpochAllocs {
  int64_t warm_allocations = 0;
  int64_t steady_allocations = 0;
  int64_t steady_bytes = 0;
};

EpochAllocs MeasureEpochAllocs(const std::string& variant, bool pooled) {
  auto experiment = Experiment::Create(SmallSpec(variant));
  EXPECT_TRUE(experiment.ok());
  (*experiment)->trainer().mutable_step().set_graph_context_enabled(pooled);

  EpochAllocs result;
  const bool was_enabled = AllocStats::Enabled();
  AllocStats::SetEnabled(true);
  AllocStats::Reset();
  (*experiment)->trainer().RunEpoch();  // Warm-up: arena + pool fill here.
  result.warm_allocations = AllocStats::Take().allocations;

  AllocStats::Reset();
  (*experiment)->trainer().RunEpoch();
  (*experiment)->trainer().RunEpoch();
  AllocStats::Snapshot steady = AllocStats::Take();
  AllocStats::SetEnabled(was_enabled);
  result.steady_allocations = steady.allocations;
  result.steady_bytes = steady.bytes;
  return result;
}

TEST(AllocRegressionTest, SteadyStateEpochsAllocateAlmostNothing) {
  for (const char* variant : {"baseline", "darec"}) {
    SCOPED_TRACE(variant);
    EpochAllocs pooled = MeasureEpochAllocs(variant, /*pooled=*/true);
    EpochAllocs legacy = MeasureEpochAllocs(variant, /*pooled=*/false);

    // The legacy path allocates per op value per batch — hundreds per epoch
    // (measured: 432 baseline / 1809 darec over two tiny epochs).
    EXPECT_GT(legacy.steady_allocations, 300);
    // The pooled path reaches a small constant once warm: 0 for the plain
    // backbone, a handful for darec (k-means seeds its initial centers by
    // value once per aligner invocation). Measured 0 / 16 — the bound
    // leaves a little slack without ever admitting per-op churn.
    EXPECT_LE(pooled.steady_allocations, 24)
        << "steady-state allocations regressed: "
        << pooled.steady_allocations << " allocs / "
        << pooled.steady_bytes << " bytes over two epochs";
    EXPECT_LT(pooled.steady_allocations * 20, legacy.steady_allocations);
    // And warm-up itself must stay far below one legacy epoch.
    EXPECT_LT(pooled.warm_allocations, legacy.steady_allocations);
  }
}

TEST(AllocRegressionTest, FusionOnAndOffProduceBitwiseEqualEpochLosses) {
  // Expression fusion changes how many traversals (and graph nodes) a loss
  // chain takes, never its bits — end to end, over full training epochs.
  tensor::expr::SetFusionForTest(true);
  std::vector<double> fused = RunEpochs("darec", /*pooled=*/true, 3);
  tensor::expr::SetFusionForTest(false);
  std::vector<double> replayed = RunEpochs("darec", /*pooled=*/true, 3);
  tensor::expr::SetFusionForTest(true);
  ASSERT_EQ(fused.size(), replayed.size());
  for (size_t e = 0; e < fused.size(); ++e) {
    EXPECT_EQ(Bits(fused[e]), Bits(replayed[e]))
        << "epoch " << e + 1 << " loss drifted: fused=" << fused[e]
        << " replayed=" << replayed[e];
  }
}

TEST(AllocRegressionTest, FusedSteadyStateEpochsStayAllocationFree) {
  // The expr recorder reuses its node/memo storage across Evals, so fusion
  // must not disturb the steady-state allocation budget.
  tensor::expr::SetFusionForTest(true);
  EpochAllocs fused = MeasureEpochAllocs("darec", /*pooled=*/true);
  EXPECT_LE(fused.steady_allocations, 24)
      << "fusion broke the steady-state allocation budget: "
      << fused.steady_allocations << " allocs / " << fused.steady_bytes
      << " bytes over two epochs";
}

TEST(AllocRegressionTest, SharpenedStructureLossIsAllocationFreeWhenWarm) {
  // The fused softmax-distillation node keeps its two N̂×N̂ softmax tables,
  // the Gram transposes and the per-row sums in Workspace buffers, so once
  // the pool is warm a forward+backward under a GraphContext allocates
  // nothing.
  core::Rng rng(17);
  tensor::Variable student =
      tensor::Variable::Parameter(tensor::RandomNormal(256, 16, 1.0f, rng));
  tensor::Variable teacher =
      tensor::Variable::Constant(tensor::RandomNormal(256, 16, 1.0f, rng));
  tensor::GraphContext ctx;
  auto step = [&] {
    tensor::GraphContext::Scope scope(&ctx);
    student.ClearGrad();
    tensor::Backward(model::GlobalStructureLossSoftmax(student, teacher, 0.5f));
    ctx.Reset();
  };
  step();  // Warm-up: arena slots and pooled buffers fill here.
  const bool was_enabled = AllocStats::Enabled();
  AllocStats::SetEnabled(true);
  AllocStats::Reset();
  for (int i = 0; i < 3; ++i) step();
  const AllocStats::Snapshot steady = AllocStats::Take();
  AllocStats::SetEnabled(was_enabled);
  EXPECT_EQ(steady.allocations, 0)
      << steady.allocations << " allocs / " << steady.bytes << " bytes";
  EXPECT_FALSE(student.grad().empty());
}

TEST(AllocRegressionTest, ArenaRecyclesSlotsAcrossEpochs) {
  auto experiment = Experiment::Create(SmallSpec("darec"));
  ASSERT_TRUE(experiment.ok());
  Trainer& trainer = (*experiment)->trainer();
  trainer.RunEpoch();
  const tensor::GraphContext::Stats warm = trainer.step().graph_context_stats();
  EXPECT_GT(warm.resets, 0);
  EXPECT_GT(warm.slot_allocs, 0);

  trainer.RunEpoch();
  const tensor::GraphContext::Stats steady = trainer.step().graph_context_stats();
  EXPECT_EQ(steady.slot_allocs, warm.slot_allocs)
      << "second epoch should not grow the node arena";
  EXPECT_GT(steady.slot_reuses, warm.slot_reuses);
  EXPECT_EQ(steady.evictions, 0)
      << "no step Variable should be held across a step boundary";
}

}  // namespace
}  // namespace darec::pipeline
