#include "pipeline/train_loop.h"

#include <cmath>

#include <memory>

#include "cf/lightgcn.h"
#include "data/presets.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "pipeline/experiment.h"

namespace darec::pipeline {
namespace {

ExperimentSpec TinySpec(const std::string& backbone, const std::string& variant) {
  ExperimentSpec spec;
  spec.dataset = "tiny";
  spec.backbone = backbone;
  spec.variant = variant;
  spec.backbone_options.embedding_dim = 16;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 64;
  spec.train_options.epochs = 4;
  spec.train_options.batch_size = 256;
  spec.llm_options.output_dim = 24;
  spec.llm_options.hidden_dim = 32;
  spec.rlmrec_options.sample_size = 64;
  spec.darec_options.sample_size = 64;
  spec.darec_options.uniformity_sample = 32;
  spec.darec_options.projection_dim = 16;
  spec.darec_options.hidden_dim = 24;
  spec.darec_options.kmeans_iterations = 5;
  return spec;
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
  auto experiment = Experiment::Create(TinySpec("lightgcn", "baseline"));
  ASSERT_TRUE(experiment.ok());
  TrainResult result = (*experiment)->Run();
  ASSERT_EQ(result.epoch_losses.size(), 4u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  EXPECT_GT(result.train_seconds, 0.0);
}

TEST(TrainerTest, TrainingBeatsUntrainedModel) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 12;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  // Untrained metrics first.
  eval::MetricSet untrained = (*experiment)->trainer().Evaluate(eval::EvalSplit::kTest);
  TrainResult result = (*experiment)->Run();
  EXPECT_GT(result.test_metrics.recall[20], untrained.recall[20] + 0.02)
      << "training should substantially beat random embeddings";
  EXPECT_GT(result.test_metrics.recall[20], 0.05);
}

TEST(TrainerTest, RunEpochReturnsFiniteLoss) {
  auto experiment = Experiment::Create(TinySpec("lightgcn", "darec"));
  ASSERT_TRUE(experiment.ok());
  const double loss1 = (*experiment)->trainer().RunEpoch();
  const double loss2 = (*experiment)->trainer().RunEpoch();
  EXPECT_TRUE(std::isfinite(loss1));
  EXPECT_TRUE(std::isfinite(loss2));
}

TEST(TrainerTest, CurrentEmbeddingsShape) {
  auto experiment = Experiment::Create(TinySpec("gccf", "kar"));
  ASSERT_TRUE(experiment.ok());
  tensor::Matrix embeddings = (*experiment)->trainer().CurrentEmbeddings();
  EXPECT_EQ(embeddings.rows(), (*experiment)->dataset().num_nodes());
  EXPECT_EQ(embeddings.cols(), 16);
}

TEST(TrainerTest, EarlyStoppingHaltsAndKeepsBest) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 50;
  spec.train_options.eval_every = 1;
  spec.train_options.patience = 2;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());
  TrainResult result = (*experiment)->Run();
  // Either it stopped early or ran to completion; both are valid, but the
  // loop must never exceed the configured epochs.
  EXPECT_LE(result.epoch_losses.size(), 50u);
  EXPECT_EQ(result.final_embeddings.rows(), (*experiment)->dataset().num_nodes());
  // The reported embeddings are the best validation snapshot.
  eval::EvalOptions opts;
  opts.ks = {20};
  opts.split = eval::EvalSplit::kValidation;
  const double reported =
      eval::EvaluateRanking(result.final_embeddings, (*experiment)->dataset(), opts)
          .recall.at(20);
  const double current =
      eval::EvaluateRanking((*experiment)->trainer().CurrentEmbeddings(),
                            (*experiment)->dataset(), opts)
          .recall.at(20);
  EXPECT_GE(reported + 1e-12, current);
}

TEST(TrainerTest, AlignIntervalSkipsAlignerLoss) {
  // With a huge interval, only the first batch pays the aligner loss; the
  // run must still complete and produce finite losses.
  ExperimentSpec spec = TinySpec("lightgcn", "darec");
  spec.train_options.align_interval = 1000;
  spec.train_options.epochs = 2;
  auto result = RunExperiment(spec);
  ASSERT_TRUE(result.ok());
  for (double loss : result->epoch_losses) EXPECT_TRUE(std::isfinite(loss));
}

/// Contract sweep: every (backbone, variant) pair trains end-to-end on the
/// tiny dataset and produces sane metrics.
using ComboParam = std::tuple<std::string, std::string>;
class VariantContractTest : public ::testing::TestWithParam<ComboParam> {};

INSTANTIATE_TEST_SUITE_P(
    Combos, VariantContractTest,
    ::testing::Combine(::testing::Values("lightgcn", "sgl"),
                       ::testing::ValuesIn(VariantNames())),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             [](std::string s) {
               for (char& c : s) {
                 if (c == '-') c = '_';
               }
               return s;
             }(std::get<1>(info.param));
    });

TEST_P(VariantContractTest, TrainsEndToEnd) {
  const auto& [backbone, variant] = GetParam();
  ExperimentSpec spec = TinySpec(backbone, variant);
  spec.train_options.epochs = 2;
  auto result = RunExperiment(spec);
  ASSERT_TRUE(result.ok());
  for (double loss : result->epoch_losses) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, 0.0);
  }
  for (const auto& [k, value] : result->test_metrics.recall) {
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 1.0);
  }
  EXPECT_EQ(result->final_embeddings.rows(), 220);  // tiny: 120 + 100 nodes.
}

TEST(ExperimentTest, RejectsUnknownNames) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.dataset = "imaginary";
  EXPECT_FALSE(Experiment::Create(spec).ok());

  spec = TinySpec("not-a-backbone", "baseline");
  EXPECT_FALSE(Experiment::Create(spec).ok());

  spec = TinySpec("lightgcn", "not-a-variant");
  EXPECT_FALSE(Experiment::Create(spec).ok());
}

TEST(ExperimentTest, DaRecAccessorWiring) {
  auto plain = Experiment::Create(TinySpec("lightgcn", "baseline"));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->darec(), nullptr);
  EXPECT_EQ((*plain)->aligner(), nullptr);

  auto darec = Experiment::Create(TinySpec("lightgcn", "darec"));
  ASSERT_TRUE(darec.ok());
  EXPECT_NE((*darec)->darec(), nullptr);
  EXPECT_EQ((*darec)->aligner()->name(), "darec");
}

TEST(ExperimentTest, LlmEmbeddingsCoverAllNodes) {
  auto experiment = Experiment::Create(TinySpec("lightgcn", "rlmrec-con"));
  ASSERT_TRUE(experiment.ok());
  EXPECT_EQ((*experiment)->llm_embeddings().rows(),
            (*experiment)->dataset().num_nodes());
  EXPECT_EQ((*experiment)->llm_embeddings().cols(), 24);
}

TEST(ExperimentTest, VariantNamesStable) {
  EXPECT_EQ(VariantNames(),
            (std::vector<std::string>{"baseline", "rlmrec-con", "rlmrec-gen", "kar",
                                      "darec"}));
}

}  // namespace
}  // namespace darec::pipeline
