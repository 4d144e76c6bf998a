// Training workloads: train_align and train_graph.
//
// Untraced (--trace 0): set up several times (setup_s is their median), run
// one warm-up epoch, then time whole epochs through pipeline::Trainer for
// the requested seconds, with the workload's validation and checkpoint
// cadence inside the timed loop. recall_at_20 is taken on the test split
// after a fixed epoch, with the clock paused, so it is a pure function of
// the seed.
//
// Traced (--trace 1): the same trainer runs whole epochs, and between them
// a LayerProbe times each layer's public entry point on the trainer's own
// model objects; per-epoch layer figures are the median probe call times
// the calls an epoch makes. Epochs alternate between tracing on and off,
// which gives the tracing overhead from two warmed-up runs of identical
// code.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cf/registry.h"
#include "counting_store.h"
#include "darec/darec.h"
#include "data/presets.h"
#include "data/shards.h"
#include "data/synthetic.h"
#include "env_info.h"
#include "eval/metrics.h"
#include "graph/bipartite.h"
#include "llm/encoder.h"
#include "pipeline/observer.h"
#include "pipeline/train_loop.h"
#include "tensor/workspace.h"
#include "topk/engine.h"
#include "trace.h"
#include "layer_probe.h"
#include "workloads.h"

namespace e2e {

namespace {

namespace data = darec::data;
namespace pipeline = darec::pipeline;
using darec::tensor::Matrix;

/// What distinguishes the two training workloads (README.md explains why).
struct TrainConfig {
  std::string dataset;
  int64_t sample_size = 0;  // DaRec N̂
  bool sharded = false;     // stream the train split from mmap shards
  int64_t shards = 0;
  int64_t grad_accum = 1;
  int64_t eval_every = 0;   // validation top-K every this many epochs
  int64_t ckpt_every = 0;   // sharded checkpoint commit every this many
  int64_t recall_epoch = 3; // timed epoch after which recall_at_20 is taken
  int setups = 5;           // setup repetitions behind the setup_s median
};

TrainConfig ConfigFor(const std::string& workload) {
  TrainConfig c;
  if (workload == "train_align") {
    c.dataset = "amazon-book-small";
    c.sample_size = 1024;
    c.setups = 21;  // ~0.1 s each
  } else {
    c.dataset = "amazon-book";
    c.sample_size = 128;
    c.sharded = true;
    c.shards = 8;
    // Super-steps of 2 batches through the ParallelStepExecutor on the
    // default single worker (bitwise equal to two): two workers made the
    // step tail wait for the slower thread on a shared host (README.md).
    c.grad_accum = 2;
    c.setups = 3;  // ~4.5 s each
    c.eval_every = 2;
    c.ckpt_every = 2;
  }
  return c;
}

/// One assembled training stack (what Experiment::Create builds, from parts
/// so the seed drives the data and the store can be sharded).
struct Setup {
  std::unique_ptr<data::Dataset> dataset;
  Matrix llm;
  std::string manifest;
  std::unique_ptr<data::ShardedInteractions> shards;
  std::unique_ptr<CountingStore> store;
  std::unique_ptr<darec::graph::BipartiteGraph> graph;
  std::unique_ptr<darec::cf::GraphBackbone> backbone;
  std::unique_ptr<darec::model::DaRecAligner> aligner;
  std::unique_ptr<pipeline::Trainer> trainer;
  darec::cf::BackboneOptions backbone_options;
  darec::model::DaRecOptions darec_options;
  pipeline::TrainOptions train_options;
  double generate_s = 0, encode_s = 0, shard_write_s = 0, graph_s = 0, total_s = 0;
};

/// Probe steps after each pair of epochs of the traced run.
constexpr int kProbesPerPair = 8;

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::unique_ptr<Setup> BuildSetup(const TrainConfig& config, uint64_t seed,
                                  const std::string& dir, RunOutput* out) {
  auto s = std::make_unique<Setup>();
  const int64_t t0 = NowNs();
  auto preset = data::GetPreset(config.dataset);
  DARE_CHECK(preset.ok()) << preset.status().ToString();
  preset->options.seed = seed * 7919 + 101;
  {
    Span span("data.generate");
    const int64_t t = NowNs();
    auto dataset = data::MakeSyntheticDataset(preset->name, preset->options);
    DARE_CHECK(dataset.ok()) << dataset.status().ToString();
    s->dataset = std::make_unique<data::Dataset>(std::move(dataset).value());
    s->generate_s = SecondsSince(t);
  }
  {
    Span span("llm.encode");
    const int64_t t = NowNs();
    const data::LatentWorld world = data::GenerateLatentWorld(preset->options);
    darec::llm::SimulatedLlmOptions llm_options;
    llm_options.seed = seed * 31 + 1234;
    s->llm = darec::llm::SimulatedLlmEncoder(world, llm_options).EncodeAll();
    s->encode_s = SecondsSince(t);
  }
  if (config.sharded) {
    Span span("data.shard_write");
    const int64_t t = NowNs();
    const int64_t rows = (s->dataset->num_users() + config.shards - 1) / config.shards;
    auto manifest = data::WriteShardedTrain(*s->dataset, dir + "/shards", "train", rows);
    if (!manifest.ok()) {
      out->Fail("shard write: " + manifest.status().ToString());
      return nullptr;
    }
    s->manifest = *manifest;
    auto shards = data::ShardedInteractions::Open(s->manifest);
    if (!shards.ok()) {
      out->Fail("shard open: " + shards.status().ToString());
      return nullptr;
    }
    s->shards = std::make_unique<data::ShardedInteractions>(std::move(shards).value());
    s->store = std::make_unique<CountingStore>(s->shards.get());
    s->shard_write_s = SecondsSince(t);
  }
  {
    Span span("graph.build");
    const int64_t t = NowNs();
    s->graph = config.sharded
                   ? std::make_unique<darec::graph::BipartiteGraph>(*s->shards)
                   : std::make_unique<darec::graph::BipartiteGraph>(*s->dataset);
    s->graph_s = SecondsSince(t);
  }
  s->backbone_options.seed = seed * 13 + 1;
  auto backbone =
      darec::cf::CreateBackbone("lightgcn", s->graph.get(), s->backbone_options);
  DARE_CHECK(backbone.ok()) << backbone.status().ToString();
  s->backbone = std::move(backbone).value();
  s->darec_options.sample_size = config.sample_size;
  s->darec_options.seed = seed * 17 + 1337;
  s->aligner = std::make_unique<darec::model::DaRecAligner>(
      s->llm, s->backbone_options.embedding_dim, s->darec_options);
  pipeline::TrainOptions& topt = s->train_options;
  topt.seed = seed * 19 + 7;
  topt.grad_accum = config.grad_accum;
  topt.train_store = s->store.get();
  if (config.ckpt_every > 0) {
    topt.checkpoint_dir = dir + "/ckpt";
    topt.sharded_checkpoints = true;
    topt.keep_last_checkpoints = 2;
  }
  s->trainer = std::make_unique<pipeline::Trainer>(s->backbone.get(), s->aligner.get(),
                                                   s->dataset.get(), topt);
  s->total_s = SecondsSince(t0);
  return s;
}

/// Optimizer-step latency as the train loop reports it: the time from the
/// previous step's end (or the epoch start) to this step's OnBatchEnd. A
/// data-parallel super-step reports all its batches at once; its first
/// batch carries the super-step's time.
class StepObserver final : public pipeline::TrainObserver {
 public:
  explicit StepObserver(int64_t grad_accum) : grad_accum_(grad_accum) {}
  /// Trainer::RunEpoch fires no OnEpochBegin; the caller marks the start.
  void MarkEpochStart() { last_ns_ = NowNs(); }
  void OnBatchEnd(const pipeline::BatchEndEvent& event) override {
    ++batches_;
    if (event.batch_index % grad_accum_ != 0) return;
    const int64_t now = NowNs();
    step_ms_.push_back(static_cast<double>(now - last_ns_) / 1e6);
    last_ns_ = now;
  }
  std::vector<double> step_ms_;
  int64_t batches_ = 0;

 private:
  int64_t grad_accum_;
  int64_t last_ns_ = 0;
};

int64_t DirBytes(const std::string& dir) {
  std::error_code ec;
  int64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += static_cast<int64_t>(it->file_size(ec));
  }
  return total;
}

void RunUntraced(const TrainConfig& config, const RunArgs& args, RunOutput* out) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < config.setups; ++i) {
    s.reset();  // one stack resident at a time: peak RSS is one setup's
    s = BuildSetup(config, args.seed, args.work_dir, out);
    if (s == nullptr) return;
    setup_s.push_back(s->total_s);
  }
  pipeline::Trainer& trainer = *s->trainer;
  StepObserver steps(config.grad_accum);
  trainer.AddObserver(&steps);

  // Warm-up: first-touch allocations, pools, checkpoint directory.
  if (!std::isfinite(trainer.RunEpoch())) out->Fail("warm-up epoch diverged");
  if (config.eval_every > 0) trainer.Evaluate(darec::eval::EvalSplit::kValidation);
  if (config.ckpt_every > 0) {
    const darec::core::Status st = trainer.SaveCheckpoint();
    if (!st.ok()) out->Fail("warm-up checkpoint: " + st.ToString());
  }
  steps.step_ms_.clear();
  steps.batches_ = 0;

  const int64_t triples = static_cast<int64_t>(s->dataset->train().size());
  std::vector<double> epoch_s;
  int64_t epochs = 0, validations = 0, commits = 0, paused_ns = 0;
  double recall = 0.0;
  const int64_t start = NowNs();
  // At least kMinSteps steps, so even the step p95 has ten samples beyond it.
  constexpr size_t kMinSteps = 200;
  while (epochs < config.recall_epoch || steps.step_ms_.size() < kMinSteps ||
         static_cast<double>(NowNs() - start - paused_ns) / 1e9 < args.seconds) {
    const int64_t t = NowNs();
    steps.MarkEpochStart();
    const double loss = trainer.RunEpoch();
    epoch_s.push_back(SecondsSince(t));
    ++epochs;
    if (!std::isfinite(loss)) {
      ++out->failed;
      out->Fail("epoch " + std::to_string(epochs) + " diverged");
      break;
    }
    if (epochs == config.recall_epoch) {
      const int64_t p = NowNs();
      recall = trainer.Evaluate(darec::eval::EvalSplit::kTest).recall.at(20);
      paused_ns += NowNs() - p;
    }
    if (config.eval_every > 0 && epochs % config.eval_every == 0) {
      ++out->attempted;
      ++validations;
      const double v =
          trainer.Evaluate(darec::eval::EvalSplit::kValidation).recall.at(20);
      if (!std::isfinite(v)) ++out->failed;
    }
    if (config.ckpt_every > 0 && epochs % config.ckpt_every == 0) {
      ++out->attempted;
      const darec::core::Status st = trainer.SaveCheckpoint();
      if (st.ok()) {
        ++commits;
      } else {
        ++out->failed;
        out->Fail("checkpoint commit: " + st.ToString());
      }
    }
  }
  const double wall = static_cast<double>(NowNs() - start - paused_ns) / 1e9;
  out->attempted += steps.batches_;
  if (recall <= 0.0) out->Fail("recall_at_20 is not positive");

  out->metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"success_rate",
       out->attempted > 0 ? static_cast<double>(out->attempted - out->failed) /
                                static_cast<double>(out->attempted)
                          : 0.0,
       "ratio"},
      {"throughput_per_s", static_cast<double>(triples * epochs) / wall, "1/s"},
      {"latency_p50_ms", Median(steps.step_ms_), "ms"},
      {"latency_p75_ms", Quantile(steps.step_ms_, 0.75), "ms"},
  };
  out->info = {{"recall_at_20", recall},
               {"epochs", static_cast<double>(epochs)},
               {"step_ms_p90", Quantile(steps.step_ms_, 0.90)},
               {"step_ms_p95", Quantile(steps.step_ms_, 0.95)},
               {"epoch_s_p50", Median(epoch_s)},
               {"epoch_s_iqr_frac", IqrOverMedian(epoch_s)},
               {"steps", static_cast<double>(steps.step_ms_.size())},
               {"setups", static_cast<double>(setup_s.size())},
               {"setup_s_iqr_frac", IqrOverMedian(setup_s)},
               {"validations", static_cast<double>(validations)},
               {"commits", static_cast<double>(commits)}};
}

void RunTraced(const TrainConfig& config, const RunArgs& args, RunOutput* out) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(true);
  std::unique_ptr<Setup> s = BuildSetup(config, args.seed, args.work_dir, out);
  tracer.set_enabled(false);
  if (s == nullptr) return;
  out->layers["data.generate_s"] = s->generate_s;
  out->layers["llm.encode_s"] = s->encode_s;
  out->layers["graph.build_s"] = s->graph_s;
  out->layers["data.shard_write_s"] = s->shard_write_s;

  // The probe reads its batches through its own reader over the same shards
  // (one reader per store, per the InteractionStore contract).
  std::unique_ptr<data::ShardedInteractions> probe_shards;
  if (config.sharded) {
    auto shards = data::ShardedInteractions::Open(s->manifest);
    DARE_CHECK(shards.ok()) << shards.status().ToString();
    probe_shards = std::make_unique<data::ShardedInteractions>(std::move(shards).value());
  }
  LayerProbe probe(s->backbone.get(), s->aligner.get(), s->dataset.get(), probe_shards.get(),
                   s->train_options);
  pipeline::Trainer& trainer = *s->trainer;
  StepObserver observer(config.grad_accum);
  trainer.AddObserver(&observer);

  // Warm-up: one epoch and one probe, untraced.
  if (!std::isfinite(trainer.RunEpoch())) out->Fail("warm-up epoch diverged");
  probe.Run();
  observer.step_ms_.clear();
  observer.batches_ = 0;
  darec::tensor::Workspace& ws = darec::tensor::Workspace::Global();

  // Real epochs run in pairs, one with tracing on and one off (tracing adds
  // only the block-fetch spans there), in alternating order: the tracing
  // overhead comes from two warmed-up runs of identical code. The probes run
  // after each pair, so the pool counters are read on each pair's second
  // epoch, which follows an epoch of the trainer as it does in the untraced
  // run.
  std::vector<double> traced_s, untraced_s, cpu_util;
  int64_t epochs = 0, validations = 0, commits = 0, ckpt_failures = 0, counted = 0;
  int64_t ws_misses = 0, slot_allocs = 0, fetches = 0, ckpt_bytes = 0, probes = 0;
  const int64_t start = NowNs();
  for (int64_t pair = 0;; ++pair) {
    for (int half = 0; half < 2; ++half) {
      const bool traced = (pair + half) % 2 == 0;
      const int64_t misses0 = ws.GetStats().misses;
      const int64_t slots0 = trainer.step().graph_context_stats().slot_allocs;
      const int64_t fetch0 = s->store != nullptr ? s->store->fetches() : 0;
      const double c0 = ProcessCpuSeconds();
      tracer.set_enabled(traced);
      observer.MarkEpochStart();
      const int64_t e0 = NowNs();
      double loss;
      {
        Span span("pipeline.epoch");
        loss = trainer.RunEpoch();
      }
      const double wall = SecondsSince(e0);
      tracer.set_enabled(false);
      (traced ? traced_s : untraced_s).push_back(wall);
      cpu_util.push_back((ProcessCpuSeconds() - c0) / wall);
      ++epochs;
      if (!std::isfinite(loss)) out->Fail("epoch " + std::to_string(epochs) + " diverged");
      fetches += (s->store != nullptr ? s->store->fetches() : 0) - fetch0;
      if (half == 1) {
        ++counted;
        ws_misses += ws.GetStats().misses - misses0;
        slot_allocs += trainer.step().graph_context_stats().slot_allocs - slots0;
      }
    }
    tracer.set_enabled(true);
    for (int p = 0; p < kProbesPerPair; ++p, ++probes) {
      if (!std::isfinite(probe.Run())) out->Fail("probe step loss is not finite");
    }
    if (config.eval_every > 0 && epochs % config.eval_every == 0) {
      ++validations;
      {
        Span span("eval.validate");
        trainer.Evaluate(darec::eval::EvalSplit::kValidation);
      }
      const Matrix nodes = trainer.CurrentEmbeddings();
      const data::Dataset& d = *s->dataset;
      std::vector<int64_t> users(static_cast<size_t>(d.num_users()));
      for (int64_t u = 0; u < d.num_users(); ++u) users[static_cast<size_t>(u)] = u;
      Span span("topk.rank_all");
      darec::topk::Engine engine(nodes, d.num_users(), d.num_items());
      engine.TopK(users, 20,
                  [&d](int64_t u) { return darec::topk::ItemSpan(d.TrainItemsOfUser(u)); },
                  darec::topk::MaskMode::kScoreNegInf);
    }
    if (config.ckpt_every > 0 && epochs % config.ckpt_every == 0) {
      darec::core::Status st;
      {
        Span span("ckpt.save");
        st = trainer.SaveCheckpoint();
      }
      if (st.ok()) {
        ++commits;
        ckpt_bytes = DirBytes(s->train_options.checkpoint_dir) /
                     std::max<int64_t>(1, std::min<int64_t>(commits, 2));
      } else {
        ++ckpt_failures;
        out->Fail("checkpoint commit: " + st.ToString());
      }
    }
    tracer.set_enabled(false);
    if (!out->correct) break;
    if (pair >= 2 && SecondsSince(start) >= args.seconds) {
      break;
    }
  }
  const std::vector<SpanRecord> spans = tracer.Take();
  const std::map<std::string, LayerTotals> totals = Aggregate(spans);
  auto count = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? int64_t{0} : it->second.count;
  };
  auto median_ms = [&](const char* name) {
    return count(name) > 0 ? Median(totals.at(name).durations_ms) : 0.0;
  };
  auto mean_ms = [&](const char* name) {
    const int64_t n = count(name);
    return n == 0 ? 0.0 : static_cast<double>(totals.at(name).total_ns) / 1e6 /
                              static_cast<double>(n);
  };

  // Accounting gates. Every span here is opened and closed on this one
  // thread, so neither can fire today; they guard the accounting against
  // spans from several threads (or a self-time bug), which would make the
  // per-layer split meaningless.
  std::vector<std::pair<int64_t, int64_t>> roots;
  int64_t self_sum = 0;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    self_sum += self[i];
    if (self[i] < 0) out->Fail("negative self time in span " + spans[i].name);
    if (spans[i].parent < 0) roots.emplace_back(spans[i].start_ns, spans[i].end_ns);
  }
  if (self_sum > UnionLengthNs(roots)) out->Fail("span self times exceed wall time");

  // Per-epoch figures: the median probe call of each layer times the
  // number of such calls an epoch of the trainer makes.
  const double per_epoch = 1.0 / static_cast<double>(epochs);
  const double batches = static_cast<double>(observer.batches_) * per_epoch;
  const double steps = static_cast<double>(observer.step_ms_.size()) * per_epoch;
  const double layers = static_cast<double>(s->backbone_options.num_layers);
  const double align_calls =
      batches / static_cast<double>(std::max<int64_t>(s->train_options.align_interval, 1));
  std::map<std::string, double>& L = out->layers;
  L["data.next_batch_us"] = median_ms("data.next_batch") * 1e3;
  L["data.fetch_block_us"] = mean_ms("data.fetch_block") * 1e3;
  L["data.block_fetches_per_epoch"] = static_cast<double>(fetches) * per_epoch;
  L["tensor.spmm_ms"] = median_ms("tensor.spmm") * layers * batches;
  L["tensor.spmm_t_ms"] = median_ms("tensor.spmm_t") * layers * batches;
  L["tensor.adam_step_ms"] = median_ms("tensor.adam_step") * steps;
  L["tensor.backward_ms"] = median_ms("tensor.backward") * batches;
  L["tensor.workspace_misses_per_epoch"] =
      static_cast<double>(ws_misses) / static_cast<double>(counted);
  L["tensor.graph_slot_allocs_per_epoch"] =
      static_cast<double>(slot_allocs) / static_cast<double>(counted);
  L["cf.forward_ms"] = median_ms("cf.forward") * batches;
  L["cf.bpr_loss_ms"] = median_ms("cf.bpr_loss") * batches;
  L["darec.loss_ms"] = median_ms("darec.loss") * align_calls;
  L["darec.project_ms"] =
      std::max(0.0, median_ms("darec.project") - median_ms("darec.project_base")) *
      align_calls;
  for (const char* term : {"l_or", "l_uni", "l_glo", "l_loc"}) {
    const std::string name = std::string("darec.") + term;
    L[name + "_ms"] = median_ms(name.c_str()) * align_calls;
  }
  L["cluster.kmeans_ms"] = median_ms("cluster.kmeans") * align_calls;
  L["pipeline.step_ms_p50"] = Median(observer.step_ms_);
  L["pipeline.step_ms_p95"] = Quantile(observer.step_ms_, 0.95);
  L["pipeline.steps_per_epoch"] = steps;
  L["pipeline.cpu_util"] = Median(cpu_util);
  L["pipeline.epoch_s_p50"] = Median(untraced_s);
  const auto& probe_step = totals.at("pipeline.probe_step");
  L["pipeline.step_unattributed_frac"] =
      static_cast<double>(probe_step.self_ns) / static_cast<double>(probe_step.total_ns);
  const double overhead = Median(traced_s) / Median(untraced_s) - 1.0;
  L["trace_overhead_frac"] = std::max(0.0, overhead);
  if (validations > 0) {
    L["eval.validate_ms"] = mean_ms("eval.validate");
    L["topk.rank_all_ms"] = mean_ms("topk.rank_all");
  }
  L["eval.validations_per_run"] = static_cast<double>(validations);
  if (commits > 0) L["ckpt.save_ms"] = mean_ms("ckpt.save");
  L["ckpt.bytes"] = static_cast<double>(ckpt_bytes);
  L["ckpt.commits_per_run"] = static_cast<double>(commits);
  L["ckpt.failures"] = static_cast<double>(ckpt_failures);

  // The step split the workload rationale predicts (README.md), as shares
  // of the median probe step.
  const double step_ms = median_ms("pipeline.probe_step");
  const double graph_ms = median_ms("cf.forward") + median_ms("tensor.spmm_t") * layers +
                          median_ms("tensor.adam_step");
  out->info = {{"trace_overhead_signed", overhead},
               {"epochs", static_cast<double>(epochs)},
               {"probes", static_cast<double>(probes)},
               {"spans", static_cast<double>(spans.size())},
               {"probe_step_ms_p50", step_ms},
               {"probe_darec_share", median_ms("darec.loss") / step_ms},
               {"probe_graph_share", graph_ms / step_ms}};
  out->attempted = observer.batches_ + probes + validations + commits;
  out->failed = ckpt_failures;
}

}  // namespace

RunOutput RunTrainWorkload(const RunArgs& args) {
  RunOutput out;
  const TrainConfig config = ConfigFor(args.workload);
  std::filesystem::create_directories(args.work_dir);
  if (args.trace) {
    RunTraced(config, args, &out);
  } else {
    RunUntraced(config, args, &out);
  }
  return out;
}

}  // namespace e2e
