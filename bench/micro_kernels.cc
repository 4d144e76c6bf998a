// Micro-benchmark for the parallel tensor kernels: measures each hot kernel
// against the frozen seed implementation (bench/seed_kernels.cc, compiled at
// the seed's -O2) and at 1/2/4/8 pool threads, then writes BENCH_kernels.json
// so the perf trajectory is tracked from PR to PR.
//
// Usage: micro_kernels [output.json]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/host_info.h"
#include "bench/seed_kernels.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace {

using darec::core::Rng;
using darec::core::Stopwatch;
using darec::core::ThreadPool;
using darec::tensor::CsrMatrix;
using darec::tensor::Matrix;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  }
  return m;
}

CsrMatrix RandomCsr(int64_t rows, int64_t cols, int64_t nnz_per_row,
                    uint64_t seed) {
  Rng rng(seed);
  std::vector<darec::tensor::Triplet> triplets;
  triplets.reserve(static_cast<size_t>(rows * nnz_per_row));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t e = 0; e < nnz_per_row; ++e) {
      triplets.push_back(
          {r, rng.UniformInt(cols), static_cast<float>(rng.UniformDouble())});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

// Best-of-N wall time of fn(), which must return a Matrix (used as an
// optimization sink and for parity checks). Runs one warmup, then repeats
// until 0.3 s total or 12 reps.
template <typename Fn>
double BestMs(Fn&& fn, Matrix* last_result = nullptr) {
  Matrix sink = fn();  // warmup
  double best = 1e300, total = 0.0;
  int reps = 0;
  while ((total < 300.0 && reps < 12) || reps < 3) {
    Stopwatch sw;
    sink = fn();
    const double ms = sw.ElapsedMillis();
    best = std::min(best, ms);
    total += ms;
    ++reps;
  }
  DARE_CHECK(!(sink.size() > 0 && sink.data()[0] != sink.data()[0]))
      << "kernel produced NaN";
  if (last_result) *last_result = std::move(sink);
  return best;
}

struct ThreadSample {
  int threads;
  double ms;
  double gflops;
  double speedup_vs_seed;
};

struct KernelReport {
  std::string name;
  std::string shape;
  double flops;  // per invocation (work measure; seed formulation)
  double seed_ms;
  double seed_gflops;
  std::vector<ThreadSample> samples;
};

const std::vector<int> kThreadCounts = {1, 2, 4, 8};

// Measures `seed_fn` once and `new_fn` at each pool size; verifies parity.
template <typename SeedFn, typename NewFn>
KernelReport Run(const std::string& name, const std::string& shape,
                 double flops, float parity_tol, SeedFn&& seed_fn,
                 NewFn&& new_fn) {
  KernelReport report;
  report.name = name;
  report.shape = shape;
  report.flops = flops;
  Matrix seed_result;
  report.seed_ms = BestMs(seed_fn, &seed_result);
  report.seed_gflops = flops / (report.seed_ms * 1e6);
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalThreads(threads);
    Matrix result;
    const double ms = BestMs(new_fn, &result);
    DARE_CHECK(AllClose(result, seed_result, parity_tol))
        << name << ": parallel kernel diverged from seed at " << threads
        << " threads";
    report.samples.push_back(
        {threads, ms, flops / (ms * 1e6), report.seed_ms / ms});
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  std::printf("%-24s seed %8.3f ms", name.c_str(), report.seed_ms);
  for (const ThreadSample& s : report.samples) {
    std::printf(" | %dT %8.3f ms (%.2fx)", s.threads, s.ms, s.speedup_vs_seed);
  }
  std::printf("\n");
  return report;
}

void WriteJson(const std::string& path, const std::vector<KernelReport>& reports) {
  FILE* f = std::fopen(path.c_str(), "w");
  DARE_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_kernels\",\n");
  std::fprintf(f, "  \"compiler\": \"%s\",\n", __VERSION__);
  const darec::benchutil::HostInfo host = darec::benchutil::MeasureHost();
  std::fprintf(f, "  \"nproc\": %lld,\n", static_cast<long long>(host.nproc));
  std::fprintf(f, "  \"effective_cores\": %.2f,\n", host.effective_cores);
  std::fprintf(f, "  \"pool_threads\": %d,\n", ThreadPool::DefaultThreads());
  std::fprintf(f,
               "  \"baseline\": \"seed kernels (pre-PR1 src/tensor) compiled "
               "at the seed's -O2\",\n");
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"shape\": \"%s\",\n", r.shape.c_str());
    std::fprintf(f, "      \"flops\": %.0f,\n", r.flops);
    std::fprintf(f, "      \"seed_ms\": %.4f,\n", r.seed_ms);
    std::fprintf(f, "      \"seed_gflops\": %.3f,\n", r.seed_gflops);
    std::fprintf(f, "      \"threads\": [\n");
    for (size_t t = 0; t < r.samples.size(); ++t) {
      const ThreadSample& s = r.samples[t];
      std::fprintf(f,
                   "        {\"threads\": %d, \"ms\": %.4f, \"gflops\": %.3f, "
                   "\"speedup_vs_seed\": %.3f}%s\n",
                   s.threads, s.ms, s.gflops, s.speedup_vs_seed,
                   t + 1 < r.samples.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::vector<KernelReport> reports;

  // The acceptance shape from the DaRec hot path: N=1024 embeddings, d=64.
  const int64_t n = 1024, d = 64;
  const Matrix a_nn = RandomMatrix(n, d, 1), b_nn = RandomMatrix(d, n, 2);
  const Matrix a_t = RandomMatrix(d, n, 3), b_nt = RandomMatrix(n, d, 4);
  const double mm_flops = 2.0 * n * d * n;

  reports.push_back(Run(
      "matmul_nn", "1024x64 * 64x1024", mm_flops, 1e-3f,
      [&] { return darec::benchseed::MatMul(a_nn, b_nn); },
      [&] { return darec::tensor::MatMul(a_nn, b_nn); }));
  reports.push_back(Run(
      "matmul_tn", "(64x1024)^T * 64x1024", mm_flops, 1e-3f,
      [&] { return darec::benchseed::MatMul(a_t, b_nn, true, false); },
      [&] { return darec::tensor::MatMul(a_t, b_nn, true, false); }));
  reports.push_back(Run(
      "matmul_nt", "1024x64 * (1024x64)^T", mm_flops, 1e-3f,
      [&] { return darec::benchseed::MatMul(a_nn, b_nt, false, true); },
      [&] { return darec::tensor::MatMul(a_nn, b_nt, false, true); }));
  reports.push_back(Run(
      "matmul_tt", "(64x1024)^T * (1024x64)^T", mm_flops, 1e-3f,
      [&] { return darec::benchseed::MatMul(a_t, b_nt, true, true); },
      [&] { return darec::tensor::MatMul(a_t, b_nt, true, true); }));

  const Matrix points = RandomMatrix(n, d, 5);
  reports.push_back(Run(
      "pairwise_sqdist", "1024 points, d=64", 3.0 * n * n * d, 2e-3f,
      [&] { return darec::benchseed::PairwiseSquaredDistances(points, points); },
      [&] { return darec::tensor::PairwiseSquaredDistances(points, points); }));

  const Matrix square = RandomMatrix(n, n, 6);
  reports.push_back(Run(
      "transpose", "1024x1024", 1.0 * n * n, 0.0f,
      [&] { return darec::benchseed::Transpose(square); },
      [&] { return darec::tensor::Transpose(square); }));

  const Matrix tall = RandomMatrix(8 * n, d, 7);
  reports.push_back(Run(
      "row_normalize", "8192x64", 3.0 * 8 * n * d, 1e-5f,
      [&] { return darec::benchseed::RowNormalize(tall); },
      [&] { return darec::tensor::RowNormalize(tall); }));

  const int64_t graph_n = 4096, nnz_per_row = 16;
  const CsrMatrix adj = RandomCsr(graph_n, graph_n, nnz_per_row, 8);
  const Matrix emb = RandomMatrix(graph_n, d, 9);
  const double spmm_flops = 2.0 * adj.nnz() * d;
  reports.push_back(Run(
      "csr_multiply", "4096x4096 (16 nnz/row) * 4096x64", spmm_flops, 1e-4f,
      [&] { return darec::benchseed::CsrMultiply(adj, emb); },
      [&] { return adj.Multiply(emb); }));
  reports.push_back(Run(
      "csr_transpose_multiply", "(4096x4096)^T * 4096x64", spmm_flops, 1e-3f,
      [&] { return darec::benchseed::CsrTransposeMultiply(adj, emb); },
      [&] { return adj.TransposeMultiply(emb); }));

  WriteJson(out_path, reports);
  return 0;
}
