#include "pipeline/observer.h"

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "core/failpoint.h"
#include "gtest/gtest.h"
#include "pipeline/experiment.h"
#include "pipeline/train_loop.h"

namespace darec::pipeline {
namespace {

namespace fs = std::filesystem;

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

/// Records every event as one compact trace token so tests can assert the
/// exact ordering contract documented on TrainObserver.
class RecordingObserver final : public TrainObserver {
 public:
  void OnRunBegin(const TrainRunInfo& info) override {
    trace.push_back("run-begin@" + std::to_string(info.start_epoch));
    run_info = info;
  }
  void OnEpochBegin(int64_t epoch) override {
    trace.push_back("epoch-begin@" + std::to_string(epoch));
  }
  void OnBatchEnd(const BatchEndEvent& event) override {
    if (event.batch_index == 0) {
      trace.push_back("batches@" + std::to_string(event.epoch));
    }
    batch_events.push_back(event);
  }
  void OnEpochEnd(const EpochEndEvent& event) override {
    trace.push_back("epoch-end@" + std::to_string(event.epoch));
    epoch_events.push_back(event);
  }
  void OnEvalResult(const EvalEvent& event) override {
    trace.push_back("eval@" + std::to_string(event.epoch));
    eval_events.push_back(event);
  }
  void OnCheckpointCommitted(const CheckpointEvent& event) override {
    trace.push_back("ckpt@" + std::to_string(event.epoch));
    checkpoint_events.push_back(event);
  }
  void OnDivergenceRollback(const RollbackEvent& event) override {
    trace.push_back("rollback@" + std::to_string(event.failed_epoch));
    rollback_events.push_back(event);
  }
  void OnRunEnd(const RunEndEvent& event) override {
    trace.push_back("run-end@" + std::to_string(event.epochs_completed));
    run_end = event;
  }

  std::vector<std::string> trace;
  TrainRunInfo run_info;
  std::vector<BatchEndEvent> batch_events;
  std::vector<EpochEndEvent> epoch_events;
  std::vector<EvalEvent> eval_events;
  std::vector<CheckpointEvent> checkpoint_events;
  std::vector<RollbackEvent> rollback_events;
  RunEndEvent run_end;
};

class TrainObserverTest : public ::testing::Test {
 protected:
  void TearDown() override { core::FailPoint::DisarmAll(); }
};

TEST_F(TrainObserverTest, EventOrderMatchesDocumentedContract) {
  const std::string dir = ::testing::TempDir() + "/observer_event_order";
  fs::remove_all(dir);

  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 2;
  spec.train_options.eval_every = 1;
  spec.train_options.patience = 10;
  spec.train_options.checkpoint_dir = dir;
  spec.train_options.checkpoint_every = 1;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  RecordingObserver observer;
  (*experiment)->Run(&observer);

  const std::vector<std::string> expected{
      "run-begin@0", "ckpt@0",                                        //
      "epoch-begin@1", "batches@1", "epoch-end@1", "eval@1", "ckpt@1",  //
      "epoch-begin@2", "batches@2", "epoch-end@2", "eval@2", "ckpt@2",  //
      "run-end@2",
  };
  EXPECT_EQ(observer.trace, expected);

  // Event payloads carry the run facts consumers need for labeling.
  EXPECT_EQ(observer.run_info.backbone, "lightgcn");
  EXPECT_EQ(observer.run_info.aligner, "");
  EXPECT_EQ(observer.run_info.total_epochs, 2);
  EXPECT_GT(observer.run_info.batches_per_epoch, 0);
  ASSERT_EQ(observer.checkpoint_events.size(), 3u);
  for (const CheckpointEvent& event : observer.checkpoint_events) {
    EXPECT_TRUE(event.ok);
    EXPECT_FALSE(event.path.empty());
  }
  EXPECT_FALSE(observer.run_end.stopped_early);
  EXPECT_FALSE(observer.run_end.diverged);
  fs::remove_all(dir);
}

TEST_F(TrainObserverTest, BatchComponentsSumToLossAndStepsAdvance) {
  ExperimentSpec spec = TinySpec("lightgcn", "darec");
  spec.train_options.epochs = 1;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  RecordingObserver observer;
  (*experiment)->Run(&observer);

  ASSERT_FALSE(observer.batch_events.empty());
  int64_t expected_step = 1;
  for (const BatchEndEvent& event : observer.batch_events) {
    EXPECT_EQ(event.step, expected_step++);
    // Components were read off the same graph the loss was; they must add
    // up to it (float accumulation order makes this near- not bit-exact).
    const double sum =
        event.bpr_loss + event.reg_loss + event.ssl_loss + event.align_loss;
    EXPECT_NEAR(sum, event.loss, 1e-4 * std::max(1.0, std::abs(event.loss)));
    EXPECT_NE(event.align_loss, 0.0) << "darec aligner contributes every batch";
  }
}

TEST_F(TrainObserverTest, MultiObserverFansOutInAddOrder) {
  MultiObserver fan;
  RecordingObserver first;
  RecordingObserver second;
  fan.Add(&first);
  fan.Add(nullptr);  // Ignored.
  fan.Add(&second);
  EXPECT_FALSE(fan.empty());

  EpochEndEvent epoch_end;
  epoch_end.epoch = 7;
  fan.OnEpochBegin(7);
  fan.OnEpochEnd(epoch_end);

  const std::vector<std::string> expected{"epoch-begin@7", "epoch-end@7"};
  EXPECT_EQ(first.trace, expected);
  EXPECT_EQ(second.trace, expected);
}

TEST_F(TrainObserverTest, MetricsObserverAggregatesRun) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 3;
  spec.train_options.eval_every = 1;
  spec.train_options.patience = 10;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  MetricsObserver metrics;
  const TrainResult result = (*experiment)->Run(&metrics);
  const TrainMetricsSnapshot snapshot = metrics.Snapshot();

  EXPECT_EQ(snapshot.epochs_completed, 3);
  ASSERT_EQ(snapshot.epoch_losses.size(), 3u);
  for (size_t i = 0; i < snapshot.epoch_losses.size(); ++i) {
    EXPECT_EQ(snapshot.epoch_losses[i], result.epoch_losses[i]);
  }
  ASSERT_EQ(snapshot.epoch_seconds.size(), 3u);
  ASSERT_EQ(snapshot.epoch_learning_rates.size(), 3u);
  ASSERT_EQ(snapshot.epoch_bpr_losses.size(), 3u);
  for (double bpr : snapshot.epoch_bpr_losses) EXPECT_GT(bpr, 0.0);
  for (double reg : snapshot.epoch_reg_losses) EXPECT_GT(reg, 0.0);
  // Baseline: no aligner, no SSL on lightgcn.
  for (double align : snapshot.epoch_align_losses) EXPECT_EQ(align, 0.0);
  EXPECT_EQ(snapshot.batches_seen, snapshot.steps_applied);
  EXPECT_EQ(snapshot.evals, 3);
  EXPECT_GE(snapshot.best_validation, 0.0);
  EXPECT_TRUE(snapshot.run_finished);
  EXPECT_FALSE(snapshot.diverged);
  EXPECT_GT(snapshot.run_seconds, 0.0);
}

/// The refactor's core promise: observers are read-only taps. A run with
/// observers attached must be bit-identical to one without.
TEST_F(TrainObserverTest, ObserversDoNotChangeNumerics) {
  ExperimentSpec spec = TinySpec("lightgcn", "darec");
  spec.train_options.epochs = 3;

  auto bare = Experiment::Create(spec);
  ASSERT_TRUE(bare.ok());
  const TrainResult expected = (*bare)->Run();

  auto observed = Experiment::Create(spec);
  ASSERT_TRUE(observed.ok());
  RecordingObserver recording;
  MetricsObserver metrics;
  (*observed)->trainer().AddObserver(&recording);
  const TrainResult actual = (*observed)->Run(&metrics);

  ASSERT_EQ(actual.epoch_losses.size(), expected.epoch_losses.size());
  for (size_t i = 0; i < expected.epoch_losses.size(); ++i) {
    ASSERT_EQ(actual.epoch_losses[i], expected.epoch_losses[i]);
  }
  ASSERT_TRUE(actual.final_embeddings.SameShape(expected.final_embeddings));
  for (int64_t i = 0; i < expected.final_embeddings.size(); ++i) {
    ASSERT_EQ(actual.final_embeddings.data()[i], expected.final_embeddings.data()[i]);
  }
  ASSERT_EQ(actual.test_metrics.recall, expected.test_metrics.recall);
  ASSERT_EQ(actual.test_metrics.ndcg, expected.test_metrics.ndcg);
}

TEST_F(TrainObserverTest, RollbackEventFiresOnDivergence) {
  const std::string dir = ::testing::TempDir() + "/observer_rollback";
  fs::remove_all(dir);

  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 3;
  spec.train_options.checkpoint_dir = dir;
  spec.train_options.checkpoint_every = 1;
  spec.train_options.lr_backoff = 0.5f;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  core::FailPoint::Arm("trainer.nan_loss", /*arg=*/0, /*fires=*/1, /*skip_hits=*/3);
  RecordingObserver observer;
  MetricsObserver metrics;
  (*experiment)->trainer().AddObserver(&observer);
  const TrainResult result = (*experiment)->Run(&metrics);

  EXPECT_EQ(result.divergence_recoveries, 1);
  ASSERT_EQ(observer.rollback_events.size(), 1u);
  const RollbackEvent& rollback = observer.rollback_events[0];
  EXPECT_GE(rollback.failed_epoch, 1);
  EXPECT_EQ(rollback.retry, 1);
  EXPECT_EQ(rollback.max_retries, spec.train_options.max_divergence_retries);
  EXPECT_FLOAT_EQ(rollback.new_learning_rate,
                  spec.train_options.learning_rate * 0.5f);
  EXPECT_EQ(metrics.Snapshot().divergence_rollbacks, 1);
  // The poisoned epoch never reached OnEpochEnd, so per-epoch vectors hold
  // exactly the committed epochs.
  EXPECT_EQ(metrics.Snapshot().epoch_losses.size(),
            static_cast<size_t>(metrics.Snapshot().epochs_completed));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace darec::pipeline
