// Micro-benchmarks (google-benchmark) for the computational claims in the
// paper's §III-D complexity analysis: the alignment losses scale as
// O(N̂²d) (global, uniformity), O(N̂d) (orthogonality), O(K²d) (local), and
// the graph propagation as O(nnz·d). Forward + backward per iteration.
//
// `micro_losses --alloc_json[=PATH]` instead runs the memory-model profile:
// steady-state Matrix heap allocations / bytes / wall time per step for each
// alignment loss and for full TrainStep epochs, with the per-step graph
// arena + workspace pool on ("pooled") vs off ("legacy"), written as
// BENCH_autograd.json. This is the before/after evidence for DESIGN.md §10.
//
// `micro_losses --fusion_json[=PATH]` profiles expression fusion (DESIGN.md
// §14): forward+backward wall time per step for each recorded loss chain
// with fusion on vs replayed eagerly, written as BENCH_fusion.json. Every
// scenario is parity-gated — the run aborts if the fused loss value is not
// bitwise equal to the replayed one.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "core/check.h"
#include "core/rng.h"
#include "darec/losses.h"
#include "pipeline/experiment.h"
#include "pipeline/train_loop.h"
#include "tensor/alloc_stats.h"
#include "tensor/autograd.h"
#include "tensor/csr.h"
#include "tensor/expr.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace {

using namespace darec;
using tensor::Matrix;
using tensor::Variable;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  core::Rng rng(seed);
  return tensor::RandomNormal(rows, cols, 1.0f, rng);
}

void BM_OrthogonalityLoss(benchmark::State& state) {
  const int64_t n = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(n, 32, 1));
  Variable b = Variable::Parameter(RandomMatrix(n, 32, 2));
  for (auto _ : state) {
    a.ClearGrad();
    b.ClearGrad();
    Variable loss = model::OrthogonalityLoss(a, b);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_OrthogonalityLoss)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_UniformityLoss(benchmark::State& state) {
  const int64_t n = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(n, 32, 3));
  for (auto _ : state) {
    a.ClearGrad();
    Variable loss = model::UniformityLoss(a);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_UniformityLoss)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_GlobalStructureLoss(benchmark::State& state) {
  const int64_t n = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(n, 32, 4));
  Variable b = Variable::Parameter(RandomMatrix(n, 32, 5));
  for (auto _ : state) {
    a.ClearGrad();
    b.ClearGrad();
    Variable loss = model::GlobalStructureLoss(a, b);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GlobalStructureLoss)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_GlobalStructureLossSoftmax(benchmark::State& state) {
  const int64_t n = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(n, 32, 6));
  Variable b = Variable::Parameter(RandomMatrix(n, 32, 7));
  for (auto _ : state) {
    a.ClearGrad();
    b.ClearGrad();
    Variable loss = model::GlobalStructureLossSoftmax(a, b, 0.5f);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GlobalStructureLossSoftmax)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Complexity();

void BM_LocalStructureLoss(benchmark::State& state) {
  const int64_t k = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(512, 32, 8));
  Variable b = Variable::Parameter(RandomMatrix(512, 32, 9));
  core::Rng rng(10);
  model::LocalAlignState align_state;
  for (auto _ : state) {
    a.ClearGrad();
    b.ClearGrad();
    Variable loss = model::LocalStructureLoss(
        a, b, k, model::MatchingStrategy::kGreedy, 15, rng, &align_state);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
}
BENCHMARK(BM_LocalStructureLoss)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_SpMMForwardBackward(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  const int64_t edges_per_node = 10;
  core::Rng rng(11);
  std::vector<tensor::Triplet> triplets;
  for (int64_t n = 0; n < nodes; ++n) {
    for (int64_t e = 0; e < edges_per_node; ++e) {
      triplets.push_back({n, rng.UniformInt(nodes), 0.1f});
    }
  }
  auto adjacency = std::make_shared<tensor::CsrMatrix>(
      tensor::CsrMatrix::FromTriplets(nodes, nodes, std::move(triplets)));
  Variable e0 = Variable::Parameter(RandomMatrix(nodes, 32, 12));
  for (auto _ : state) {
    e0.ClearGrad();
    Variable out = SpMM(adjacency, e0);
    Backward(tensor::Mean(out));
    benchmark::DoNotOptimize(e0.grad().data());
  }
  state.SetComplexityN(nodes);
}
BENCHMARK(BM_SpMMForwardBackward)->Arg(1024)->Arg(4096)->Arg(16384)->Complexity();

void BM_KMeans(benchmark::State& state) {
  const int64_t n = state.range(0);
  Matrix points = RandomMatrix(n, 32, 13);
  cluster::KMeansOptions options;
  options.num_clusters = 4;
  options.max_iterations = 15;
  core::Rng rng(14);
  for (auto _ : state) {
    cluster::KMeansResult result = cluster::RunKMeans(points, options, rng);
    benchmark::DoNotOptimize(result.inertia);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_KMeans)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_GreedyVsHungarianMatching(benchmark::State& state) {
  const int64_t k = state.range(0);
  Matrix a = RandomMatrix(k, 32, 15);
  Matrix b = RandomMatrix(k, 32, 16);
  Matrix dist = model::CenterDistances(a, b);
  const bool hungarian = state.range(1) != 0;
  for (auto _ : state) {
    model::CenterMatching matching = hungarian
                                         ? model::HungarianMatchCenters(dist)
                                         : model::GreedyMatchCenters(dist);
    benchmark::DoNotOptimize(matching.left.data());
  }
}
BENCHMARK(BM_GreedyVsHungarianMatching)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// ---------------------------------------------------------------------------
// Allocation profile (--alloc_json): the memory-model before/after numbers.
// ---------------------------------------------------------------------------

/// One profiled scenario, measured twice: with the GraphContext arena +
/// workspace pool ("pooled") and on the legacy allocate-per-op path.
struct AllocRow {
  std::string name;
  std::string unit;  // "step" or "epoch"
  int64_t steps = 0;
  int64_t pooled_allocs = 0, pooled_bytes = 0;
  int64_t legacy_allocs = 0, legacy_bytes = 0;
  double pooled_ms = 0.0, legacy_ms = 0.0;
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Profiles `step` (a full forward+backward closure over captive parameters)
/// for `steps` steady-state iterations after one warm-up, pooled and legacy.
template <typename StepFn>
AllocRow ProfileLoss(const std::string& name, StepFn step, int steps = 20) {
  using tensor::AllocStats;
  AllocRow row;
  row.name = name;
  row.unit = "step";
  row.steps = steps;

  {  // Pooled: every iteration runs inside a reusable per-step arena.
    tensor::GraphContext ctx;
    auto run = [&] {
      tensor::GraphContext::Scope scope(&ctx);
      step();
    };
    run();  // Warm-up fills arena slots and the workspace pool.
    ctx.Reset();
    AllocStats::SetEnabled(true);
    AllocStats::Reset();
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) {
      run();
      ctx.Reset();
    }
    row.pooled_ms = MsSince(t0);
    AllocStats::Snapshot snap = AllocStats::Take();
    AllocStats::SetEnabled(false);
    row.pooled_allocs = snap.allocations;
    row.pooled_bytes = snap.bytes;
  }

  {  // Legacy: no context — every op value is a fresh heap node.
    step();  // Symmetric warm-up.
    tensor::AllocStats::SetEnabled(true);
    tensor::AllocStats::Reset();
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) step();
    row.legacy_ms = MsSince(t0);
    tensor::AllocStats::Snapshot snap = tensor::AllocStats::Take();
    tensor::AllocStats::SetEnabled(false);
    row.legacy_allocs = snap.allocations;
    row.legacy_bytes = snap.bytes;
  }
  return row;
}

pipeline::ExperimentSpec AllocSpec(const std::string& variant) {
  pipeline::ExperimentSpec spec;
  spec.dataset = "tiny";
  spec.backbone = "lightgcn";
  spec.variant = variant;
  spec.backbone_options.embedding_dim = 16;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 64;
  spec.train_options.epochs = 8;
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

/// Full training epochs through TrainStep — arena on vs off, fresh
/// deterministic experiment for each mode.
AllocRow ProfileTrainEpochs(const std::string& variant, int epochs = 2) {
  using tensor::AllocStats;
  AllocRow row;
  row.name = "train_epoch_" + variant;
  row.unit = "epoch";
  row.steps = epochs;
  for (bool pooled : {true, false}) {
    auto experiment = pipeline::Experiment::Create(AllocSpec(variant));
    if (!experiment.ok()) {
      std::fprintf(stderr, "experiment setup failed: %s\n",
                   experiment.status().ToString().c_str());
      continue;
    }
    pipeline::Trainer& trainer = (*experiment)->trainer();
    trainer.mutable_step().set_graph_context_enabled(pooled);
    trainer.RunEpoch();  // Warm-up epoch.
    AllocStats::SetEnabled(true);
    AllocStats::Reset();
    auto t0 = std::chrono::steady_clock::now();
    for (int e = 0; e < epochs; ++e) trainer.RunEpoch();
    const double ms = MsSince(t0);
    AllocStats::Snapshot snap = AllocStats::Take();
    AllocStats::SetEnabled(false);
    if (pooled) {
      row.pooled_allocs = snap.allocations;
      row.pooled_bytes = snap.bytes;
      row.pooled_ms = ms;
    } else {
      row.legacy_allocs = snap.allocations;
      row.legacy_bytes = snap.bytes;
      row.legacy_ms = ms;
    }
  }
  return row;
}

int RunAllocProfile(const std::string& out_path) {
  std::vector<AllocRow> rows;

  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 21));
    Variable b = Variable::Parameter(RandomMatrix(256, 32, 22));
    rows.push_back(ProfileLoss("orthogonality_256", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Backward(model::OrthogonalityLoss(a, b));
    }));
  }
  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 23));
    rows.push_back(ProfileLoss("uniformity_256", [&] {
      a.ClearGrad();
      Backward(model::UniformityLoss(a));
    }));
  }
  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 24));
    Variable b = Variable::Parameter(RandomMatrix(256, 32, 25));
    rows.push_back(ProfileLoss("global_structure_256", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Backward(model::GlobalStructureLoss(a, b));
    }));
  }
  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 26));
    Variable b = Variable::Parameter(RandomMatrix(256, 32, 27));
    rows.push_back(ProfileLoss("global_structure_softmax_256", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Backward(model::GlobalStructureLossSoftmax(a, b, 0.5f));
    }));
  }
  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 28));
    Variable b = Variable::Parameter(RandomMatrix(256, 32, 29));
    core::Rng rng(30);
    model::LocalAlignState align_state;
    rows.push_back(ProfileLoss("local_structure_k8", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Backward(model::LocalStructureLoss(a, b, 8,
                                         model::MatchingStrategy::kGreedy, 15,
                                         rng, &align_state));
    }));
  }
  rows.push_back(ProfileTrainEpochs("baseline"));
  rows.push_back(ProfileTrainEpochs("darec"));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_losses --alloc_json\",\n");
  std::fprintf(f,
               "  \"note\": \"steady-state Matrix heap allocations per "
               "forward+backward, graph arena + workspace pool (pooled) vs "
               "allocate-per-op (legacy); counts cover the measured "
               "iterations after one warm-up\",\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const AllocRow& r = rows[i];
    const double n = static_cast<double>(r.steps);
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"iterations\": %lld, \"unit\": \"%s\",\n"
        "     \"pooled\": {\"allocs_per_%s\": %.2f, \"bytes_per_%s\": %.1f, "
        "\"ms_per_%s\": %.4f},\n"
        "     \"legacy\": {\"allocs_per_%s\": %.2f, \"bytes_per_%s\": %.1f, "
        "\"ms_per_%s\": %.4f}}%s\n",
        r.name.c_str(), static_cast<long long>(r.steps), r.unit.c_str(),
        r.unit.c_str(), r.pooled_allocs / n, r.unit.c_str(),
        r.pooled_bytes / n, r.unit.c_str(), r.pooled_ms / n,
        r.unit.c_str(), r.legacy_allocs / n, r.unit.c_str(),
        r.legacy_bytes / n, r.unit.c_str(), r.legacy_ms / n,
        i + 1 < rows.size() ? "," : "");
    std::printf("%-28s pooled %8.2f allocs/%s  legacy %8.2f allocs/%s\n",
                r.name.c_str(), r.pooled_allocs / n, r.unit.c_str(),
                r.legacy_allocs / n, r.unit.c_str());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Fusion profile (--fusion_json): fused vs replayed loss chains, parity-gated.
// ---------------------------------------------------------------------------

struct FusionRow {
  std::string name;
  int64_t steps = 0;
  double fused_ms = 0.0, eager_ms = 0.0;
  int64_t fused_ops = 0;  // fused-traversal nodes per step (arena telemetry)
};

uint32_t FloatBits(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Times `step` (forward+backward over captive parameters, returning the
/// loss value) with fusion on and with every chain replayed eagerly, inside
/// the same pooled per-step arena both ways. Aborts on value divergence.
template <typename StepFn>
FusionRow ProfileFusion(const std::string& name, StepFn step, int steps = 40) {
  FusionRow row;
  row.name = name;
  row.steps = steps;
  tensor::GraphContext ctx;
  auto run = [&] {
    tensor::GraphContext::Scope scope(&ctx);
    const float value = step();
    ctx.Reset();
    return value;
  };
  float fused_value = 0.0f;
  for (bool fused : {true, false}) {
    tensor::expr::SetFusionForTest(fused);
    const int64_t ops_before = ctx.stats().fused_ops;
    const float warm = run();  // Warm-up fills arena slots + recorder storage.
    if (fused) {
      fused_value = warm;
      row.fused_ops = ctx.stats().fused_ops - ops_before;
    } else {
      DARE_CHECK(FloatBits(warm) == FloatBits(fused_value))
          << name << ": fused loss " << fused_value
          << " != replayed loss " << warm;
      DARE_CHECK(ctx.stats().fused_ops == ops_before)
          << name << ": replay executed fused traversals";
    }
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) run();
    (fused ? row.fused_ms : row.eager_ms) = MsSince(t0);
  }
  tensor::expr::SetFusionForTest(true);
  return row;
}

int RunFusionProfile(const std::string& out_path) {
  std::vector<FusionRow> rows;
  for (int64_t n : {256, 1024}) {
    const std::string suffix = "_" + std::to_string(n);
    {
      Variable a = Variable::Parameter(RandomMatrix(n, 32, 41));
      Variable b = Variable::Parameter(RandomMatrix(n, 32, 42));
      rows.push_back(ProfileFusion("orthogonality" + suffix, [&] {
        a.ClearGrad();
        b.ClearGrad();
        Variable loss = model::OrthogonalityLoss(a, b);
        Backward(loss);
        return loss.scalar();
      }));
    }
    {
      Variable a = Variable::Parameter(RandomMatrix(n, 32, 43));
      rows.push_back(ProfileFusion("uniformity" + suffix, [&] {
        a.ClearGrad();
        Variable loss = model::UniformityLoss(a);
        Backward(loss);
        return loss.scalar();
      }));
    }
    {
      Variable a = Variable::Parameter(RandomMatrix(n, 32, 44));
      Variable b = Variable::Parameter(RandomMatrix(n, 32, 45));
      rows.push_back(ProfileFusion("global_structure" + suffix, [&] {
        a.ClearGrad();
        b.ClearGrad();
        Variable loss = model::GlobalStructureLoss(a, b);
        Backward(loss);
        return loss.scalar();
      }));
    }
    {
      // MseLoss on square matrices: the reconstruction objective (RLMRec-gen)
      // with the matmul share at zero — the pure chain-fusion effect.
      Variable a = Variable::Parameter(RandomMatrix(n, n, 46));
      Variable b = Variable::Parameter(RandomMatrix(n, n, 47));
      rows.push_back(ProfileFusion("mse" + suffix, [&] {
        a.ClearGrad();
        b.ClearGrad();
        Variable loss = tensor::MseLoss(a, b);
        Backward(loss);
        return loss.scalar();
      }));
    }
  }
  {
    // Out-of-cache preset: at 2048x2048 (16 MiB per operand) every pass over
    // the matrices hits DRAM, so the traversals fusion removes are the
    // dominant cost.
    Variable a = Variable::Parameter(RandomMatrix(2048, 2048, 50));
    Variable b = Variable::Parameter(RandomMatrix(2048, 2048, 51));
    rows.push_back(ProfileFusion("mse_2048", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Variable loss = tensor::MseLoss(a, b);
      Backward(loss);
      return loss.scalar();
    }, /*steps=*/20));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_losses --fusion_json\",\n");
  std::fprintf(f,
               "  \"note\": \"forward+backward wall time per step, recorded "
               "loss chains fused (DAREC_FUSION=on) vs replayed eagerly; "
               "fused loss values are bitwise equal to replayed ones "
               "(DARE_CHECK-gated), so speedup is the only delta\",\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const FusionRow& r = rows[i];
    const double n = static_cast<double>(r.steps);
    const double speedup = r.fused_ms > 0.0 ? r.eager_ms / r.fused_ms : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %lld, "
                 "\"fused_ops_per_step\": %lld,\n"
                 "     \"fused_ms_per_step\": %.4f, \"eager_ms_per_step\": "
                 "%.4f, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), static_cast<long long>(r.steps),
                 static_cast<long long>(r.fused_ops), r.fused_ms / n,
                 r.eager_ms / n, speedup, i + 1 < rows.size() ? "," : "");
    std::printf("%-28s fused %8.4f ms  eager %8.4f ms  %.2fx\n",
                r.name.c_str(), r.fused_ms / n, r.eager_ms / n, speedup);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--alloc_json", 0) == 0) {
      const size_t eq = arg.find('=');
      return RunAllocProfile(eq == std::string::npos ? "BENCH_autograd.json"
                                                     : arg.substr(eq + 1));
    }
    if (arg.rfind("--fusion_json", 0) == 0) {
      const size_t eq = arg.find('=');
      return RunFusionProfile(eq == std::string::npos ? "BENCH_fusion.json"
                                                      : arg.substr(eq + 1));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
