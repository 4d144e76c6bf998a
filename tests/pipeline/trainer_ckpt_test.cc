#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/failpoint.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "pipeline/experiment.h"
#include "pipeline/train_loop.h"

namespace darec::pipeline {
namespace {

namespace fs = std::filesystem;

class TrainerCkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/trainer_ckpt_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    core::FailPoint::DisarmAll();
    core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());
    fs::remove_all(dir_);
  }

  std::string dir_;
};

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

void ExpectBitIdentical(const tensor::Matrix& a, const tensor::Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "element " << i << " differs";
  }
}

TEST_F(TrainerCkptTest, SaveRestoreRoundTripsInPlace) {
  ExperimentSpec spec = TinySpec("lightgcn", "darec");
  spec.train_options.checkpoint_dir = dir_;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());
  Trainer& trainer = (*experiment)->trainer();

  trainer.RunEpoch();
  ASSERT_TRUE(trainer.SaveCheckpoint().ok());
  const tensor::Matrix at_save = trainer.CurrentEmbeddings();

  trainer.RunEpoch();  // Drift away from the saved state...
  ASSERT_TRUE(trainer.RestoreCheckpoint().ok());  // ...and rewind.
  ExpectBitIdentical(trainer.CurrentEmbeddings(), at_save);
}

TEST_F(TrainerCkptTest, CheckpointingDisabledIsFailedPrecondition) {
  auto experiment = Experiment::Create(TinySpec("lightgcn", "baseline"));
  ASSERT_TRUE(experiment.ok());
  EXPECT_EQ((*experiment)->trainer().SaveCheckpoint().code(),
            core::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*experiment)->trainer().RestoreCheckpoint().code(),
            core::StatusCode::kFailedPrecondition);
}

/// The tentpole contract: a run interrupted at an epoch boundary and resumed
/// from its checkpoint must finish bit-identically to a run that was never
/// interrupted — same losses, same embeddings, same metrics — regardless of
/// the thread count.
TEST_F(TrainerCkptTest, ResumeMatchesStraightRunBitwise) {
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::ThreadPool::SetGlobalThreads(threads);
    const std::string run_dir = dir_ + "/t" + std::to_string(threads);

    // Exercise the early-stopping state too: eval_every makes best-snapshot
    // tracking part of the checkpointed state.
    ExperimentSpec spec = TinySpec("lightgcn", "darec");
    spec.train_options.epochs = 6;
    spec.train_options.eval_every = 2;
    spec.train_options.patience = 10;  // Never actually stops on tiny.

    auto straight = Experiment::Create(spec);
    ASSERT_TRUE(straight.ok());
    const TrainResult expected = (*straight)->Run();

    // Interrupted run: train only 3 epochs, checkpointing each.
    ExperimentSpec head_spec = spec;
    head_spec.train_options.epochs = 3;
    head_spec.train_options.checkpoint_dir = run_dir;
    head_spec.train_options.checkpoint_every = 1;
    auto head = Experiment::Create(head_spec);
    ASSERT_TRUE(head.ok());
    (*head)->Run();

    // Resume in a brand-new process-equivalent: fresh Experiment, restore,
    // run the remaining epochs.
    ExperimentSpec tail_spec = spec;
    tail_spec.train_options.checkpoint_dir = run_dir;
    tail_spec.train_options.checkpoint_every = 1;
    auto tail = Experiment::Create(tail_spec);
    ASSERT_TRUE(tail.ok());
    ASSERT_TRUE((*tail)->trainer().RestoreCheckpoint().ok());
    EXPECT_EQ((*tail)->trainer().epochs_completed(), 3);
    const TrainResult resumed = (*tail)->Run();

    ASSERT_EQ(resumed.epoch_losses.size(), expected.epoch_losses.size());
    for (size_t i = 0; i < expected.epoch_losses.size(); ++i) {
      ASSERT_EQ(resumed.epoch_losses[i], expected.epoch_losses[i])
          << "loss of epoch " << i + 1 << " differs";
    }
    ExpectBitIdentical(resumed.final_embeddings, expected.final_embeddings);
    ASSERT_EQ(resumed.test_metrics.recall, expected.test_metrics.recall);
    ASSERT_EQ(resumed.test_metrics.ndcg, expected.test_metrics.ndcg);
  }
}

/// TrainOptions.resume = the restore-then-run flow as one switch (what the
/// bench harness exposes as resume=1): Run() picks up the newest checkpoint
/// itself and the result is bit-identical to a straight run; on an empty
/// directory it trains from scratch.
TEST_F(TrainerCkptTest, ResumeOptionRestoresInsideRun) {
  ExperimentSpec spec = TinySpec("lightgcn", "darec");
  spec.train_options.epochs = 5;
  spec.train_options.checkpoint_dir = dir_;
  spec.train_options.checkpoint_every = 1;

  // Resume over an empty directory is a fresh run.
  ExperimentSpec fresh_spec = spec;
  fresh_spec.train_options.resume = true;
  auto fresh = Experiment::Create(fresh_spec);
  ASSERT_TRUE(fresh.ok());
  const TrainResult expected = (*fresh)->Run();
  ASSERT_EQ(expected.epoch_losses.size(), 5u);

  // Kill-and-rerun: head run stops after 2 epochs; the rerun resumes from
  // its checkpoints purely via TrainOptions.resume.
  fs::remove_all(dir_);
  ExperimentSpec head_spec = spec;
  head_spec.train_options.epochs = 2;
  auto head = Experiment::Create(head_spec);
  ASSERT_TRUE(head.ok());
  (*head)->Run();

  ExperimentSpec tail_spec = spec;
  tail_spec.train_options.resume = true;
  auto tail = Experiment::Create(tail_spec);
  ASSERT_TRUE(tail.ok());
  const TrainResult resumed = (*tail)->Run();
  EXPECT_EQ((*tail)->trainer().epochs_completed(), 5);

  ASSERT_EQ(resumed.epoch_losses.size(), expected.epoch_losses.size());
  for (size_t i = 0; i < expected.epoch_losses.size(); ++i) {
    ASSERT_EQ(resumed.epoch_losses[i], expected.epoch_losses[i])
        << "loss of epoch " << i + 1 << " differs";
  }
  ExpectBitIdentical(resumed.final_embeddings, expected.final_embeddings);
  ASSERT_EQ(resumed.test_metrics.recall, expected.test_metrics.recall);

  // A fully-finished directory resumes to a no-op run with the same result.
  auto noop = Experiment::Create(tail_spec);
  ASSERT_TRUE(noop.ok());
  const TrainResult rerun = (*noop)->Run();
  ASSERT_EQ(rerun.epoch_losses.size(), expected.epoch_losses.size());
  ExpectBitIdentical(rerun.final_embeddings, expected.final_embeddings);
}

TEST_F(TrainerCkptTest, RestoreFallsBackPastCorruptNewest) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 3;
  spec.train_options.checkpoint_dir = dir_;
  spec.train_options.checkpoint_every = 1;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());
  (*experiment)->Run();

  // Corrupt the newest checkpoint on disk (torn tail, as after a crash).
  ckpt::CheckpointManagerOptions copts;
  copts.dir = dir_;
  ckpt::CheckpointManager manager(copts);
  std::vector<ckpt::CheckpointEntry> entries = manager.List();
  ASSERT_GE(entries.size(), 2u);
  {
    const std::string& newest = entries.back().path;
    std::string bytes;
    {
      std::ifstream in(newest, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  auto resumed = Experiment::Create(spec);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->trainer().RestoreCheckpoint().ok());
  // Restored the newest *valid* checkpoint: the one before the torn file.
  EXPECT_EQ((*resumed)->trainer().epochs_completed(), entries[entries.size() - 2].step);
}

TEST_F(TrainerCkptTest, DivergenceGuardRestoresAndBacksOffLr) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 4;
  spec.train_options.checkpoint_dir = dir_;
  spec.train_options.checkpoint_every = 1;
  spec.train_options.lr_backoff = 0.5f;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  // Poison one batch loss a few steps in: the guard must roll back to the
  // last good checkpoint, halve the LR, and still finish with finite losses.
  core::FailPoint::Arm("trainer.nan_loss", /*arg=*/0, /*fires=*/1, /*skip_hits=*/3);
  const TrainResult result = (*experiment)->Run();

  EXPECT_EQ(result.divergence_recoveries, 1);
  EXPECT_FALSE(result.diverged);
  ASSERT_EQ(result.epoch_losses.size(), 4u);
  for (double loss : result.epoch_losses) EXPECT_TRUE(std::isfinite(loss));
  EXPECT_FLOAT_EQ((*experiment)->trainer().optimizer().learning_rate(),
                  spec.train_options.learning_rate * 0.5f);
}

TEST_F(TrainerCkptTest, UnrecoverableDivergenceAborts) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 4;  // No checkpoint_dir: nothing to roll back to.
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  core::FailPoint::Arm("trainer.nan_loss");
  const TrainResult result = (*experiment)->Run();

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.divergence_recoveries, 0);
  ASSERT_FALSE(result.epoch_losses.empty());
  EXPECT_TRUE(std::isnan(result.epoch_losses.back()));
}

TEST_F(TrainerCkptTest, RetriesExhaustedStillAborts) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 4;
  spec.train_options.checkpoint_dir = dir_;
  spec.train_options.checkpoint_every = 1;
  spec.train_options.max_divergence_retries = 2;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  // Every batch diverges: after max_divergence_retries rollbacks the run
  // must give up instead of looping forever.
  core::FailPoint::Arm("trainer.nan_loss");
  const TrainResult result = (*experiment)->Run();

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.divergence_recoveries, 2);
}

TEST_F(TrainerCkptTest, CrashDuringCheckpointDoesNotStopTraining) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.epochs = 3;
  spec.train_options.checkpoint_dir = dir_;
  spec.train_options.checkpoint_every = 1;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());

  // The epoch-2 checkpoint write dies mid-file (skip the initial + epoch-1
  // saves). Training must carry on and later checkpoints must be intact.
  core::FailPoint::Arm("fsio.write_abort", /*arg=*/64, /*fires=*/1,
                       /*skip_hits=*/2);
  const TrainResult result = (*experiment)->Run();
  ASSERT_EQ(result.epoch_losses.size(), 3u);

  auto resumed = Experiment::Create(spec);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->trainer().RestoreCheckpoint().ok());
  EXPECT_EQ((*resumed)->trainer().epochs_completed(), 3);
}

TEST_F(TrainerCkptTest, CheckpointFromDifferentModelRejected) {
  ExperimentSpec spec = TinySpec("lightgcn", "baseline");
  spec.train_options.checkpoint_dir = dir_;
  auto experiment = Experiment::Create(spec);
  ASSERT_TRUE(experiment.ok());
  ASSERT_TRUE((*experiment)->trainer().SaveCheckpoint().ok());

  // Same directory, different architecture: restore must refuse (and, with
  // no other candidate, report nothing restorable) rather than load
  // mismatched parameters.
  ExperimentSpec other = TinySpec("gccf", "baseline");
  other.train_options.checkpoint_dir = dir_;
  auto mismatched = Experiment::Create(other);
  ASSERT_TRUE(mismatched.ok());
  EXPECT_EQ((*mismatched)->trainer().RestoreCheckpoint().code(),
            core::StatusCode::kNotFound);
}

}  // namespace
}  // namespace darec::pipeline
