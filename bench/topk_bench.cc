// Batched top-K engine benchmark: users/sec of the engine-backed all-ranking
// evaluation (eval::EvaluateRanking) and batched serving
// (serve::Recommender::RecommendTopKBatch) against the frozen seed per-user
// scoring loops (bench/seed_topk.cc, compiled at the seed's -O2), at
// 1/2/4/8 pool threads, with bitwise parity checks. Writes BENCH_topk.json.
//
// Usage: topk_bench [out=BENCH_topk.json] [dataset=amazon-book-small]
//                   [d=64] [serve_k=10] [smoke=0]
//
// smoke=1 runs every workload exactly once (no warmup, no repetition) —
// the CI crash/parity gate used by scripts/check.sh.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/host_info.h"
#include "bench/seed_topk.h"
#include "core/check.h"
#include "core/config.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"
#include "data/presets.h"
#include "eval/metrics.h"
#include "serve/recommender.h"
#include "tensor/init.h"

namespace {

using darec::core::Stopwatch;
using darec::core::ThreadPool;
using darec::tensor::Matrix;

const std::vector<int> kThreadCounts = {1, 2, 4, 8};

/// Best wall seconds of fn() — one warmup, then repeats until 1 s total or
/// 8 reps (single pass when smoke).
template <typename Fn>
double BestSeconds(Fn&& fn, bool smoke) {
  if (smoke) {
    Stopwatch sw;
    fn();
    return sw.ElapsedSeconds();
  }
  fn();  // warmup
  double best = 1e300, total = 0.0;
  int reps = 0;
  while ((total < 1.0 && reps < 8) || reps < 3) {
    Stopwatch sw;
    fn();
    const double s = sw.ElapsedSeconds();
    best = std::min(best, s);
    total += s;
    ++reps;
  }
  return best;
}

void CheckMetricsBitwiseEqual(const darec::eval::MetricSet& a,
                              const darec::eval::MetricSet& b,
                              const std::string& what) {
  for (const auto& [k, value] : a.recall) {
    DARE_CHECK(value == b.recall.at(k)) << what << ": recall@" << k << " diverged";
  }
  for (const auto& [k, value] : a.ndcg) {
    DARE_CHECK(value == b.ndcg.at(k)) << what << ": ndcg@" << k << " diverged";
  }
  for (const auto& [k, value] : a.precision) {
    DARE_CHECK(value == b.precision.at(k)) << what << ": precision@" << k << " diverged";
  }
  for (const auto& [k, value] : a.hit_rate) {
    DARE_CHECK(value == b.hit_rate.at(k)) << what << ": hit_rate@" << k << " diverged";
  }
  for (const auto& [k, value] : a.mrr) {
    DARE_CHECK(value == b.mrr.at(k)) << what << ": mrr@" << k << " diverged";
  }
}

struct ThreadSample {
  int threads;
  double users_per_sec;
  double speedup_vs_seed;
};

struct WorkloadReport {
  std::string name;
  std::string detail;
  double seed_users_per_sec;
  std::vector<ThreadSample> samples;
};

void PrintReport(const WorkloadReport& r) {
  std::printf("%-18s seed %10.1f users/s", r.name.c_str(), r.seed_users_per_sec);
  for (const ThreadSample& s : r.samples) {
    std::printf(" | %dT %10.1f (%.2fx)", s.threads, s.users_per_sec,
                s.speedup_vs_seed);
  }
  std::printf("\n");
}

void WriteJson(const std::string& path, const std::string& dataset,
               int64_t num_users, int64_t num_items, int64_t dim,
               const std::vector<WorkloadReport>& reports) {
  FILE* f = std::fopen(path.c_str(), "w");
  DARE_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"topk_bench\",\n");
  std::fprintf(f, "  \"compiler\": \"%s\",\n", __VERSION__);
  const darec::benchutil::HostInfo host = darec::benchutil::MeasureHost();
  std::fprintf(f, "  \"nproc\": %lld,\n", static_cast<long long>(host.nproc));
  std::fprintf(f, "  \"effective_cores\": %.2f,\n", host.effective_cores);
  std::fprintf(f, "  \"pool_threads\": %d,\n",
               darec::core::ThreadPool::DefaultThreads());
  std::fprintf(f, "  \"dataset\": \"%s\",\n", dataset.c_str());
  std::fprintf(f, "  \"users\": %lld,\n", static_cast<long long>(num_users));
  std::fprintf(f, "  \"items\": %lld,\n", static_cast<long long>(num_items));
  std::fprintf(f, "  \"dim\": %lld,\n", static_cast<long long>(dim));
  std::fprintf(f,
               "  \"baseline\": \"seed per-user scalar scoring loops "
               "(bench/seed_topk.cc) compiled at the seed's -O2\",\n");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"detail\": \"%s\",\n", r.detail.c_str());
    std::fprintf(f, "      \"seed_users_per_sec\": %.1f,\n", r.seed_users_per_sec);
    std::fprintf(f, "      \"threads\": [\n");
    for (size_t t = 0; t < r.samples.size(); ++t) {
      const ThreadSample& s = r.samples[t];
      std::fprintf(f,
                   "        {\"threads\": %d, \"users_per_sec\": %.1f, "
                   "\"speedup_vs_seed\": %.3f}%s\n",
                   s.threads, s.users_per_sec, s.speedup_vs_seed,
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
  using namespace darec;
  std::vector<std::string> args(argv + 1, argv + argc);
  auto config = core::Config::FromArgs(args);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  const std::string out_path = config->GetString("out", "BENCH_topk.json");
  const std::string dataset_name =
      config->GetString("dataset", "amazon-book-small");
  const int64_t dim = config->GetInt("d", 64);
  const int64_t serve_k = config->GetInt("serve_k", 10);
  const bool smoke = config->GetBool("smoke", false);

  auto dataset = data::LoadPresetDataset(dataset_name);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  core::Rng rng(17);
  const Matrix nodes = tensor::RandomNormal(dataset->num_nodes(), dim, 1.0f, rng);

  std::vector<int64_t> all_users;
  int64_t evaluated_users = 0;
  for (int64_t u = 0; u < dataset->num_users(); ++u) {
    all_users.push_back(u);
    if (!dataset->TestItemsOfUser(u).empty()) ++evaluated_users;
  }
  std::printf("%s: %lld users (%lld with test items), %lld items, d=%lld%s\n",
              dataset_name.c_str(), (long long)dataset->num_users(),
              (long long)evaluated_users, (long long)dataset->num_items(),
              (long long)dim, smoke ? " [smoke]" : "");

  std::vector<WorkloadReport> reports;

  // --- Workload 1: all-ranking evaluation (the eval_every hot path) -------
  {
    eval::EvalOptions options;  // ks = {5, 10, 20}
    eval::MetricSet seed_metrics;
    const double seed_s = BestSeconds(
        [&] { seed_metrics = benchseed::EvaluateRanking(nodes, *dataset, options); },
        smoke);
    WorkloadReport report;
    report.name = "eval_all_ranking";
    report.detail = "EvaluateRanking, ks=5/10/20, all non-interacted items";
    report.seed_users_per_sec = static_cast<double>(evaluated_users) / seed_s;
    for (int threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      eval::MetricSet metrics;
      const double s = BestSeconds(
          [&] { metrics = eval::EvaluateRanking(nodes, *dataset, options); },
          smoke);
      CheckMetricsBitwiseEqual(seed_metrics, metrics,
                               "eval@" + std::to_string(threads) + "T");
      report.samples.push_back({threads, static_cast<double>(evaluated_users) / s,
                                seed_s / s});
    }
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
    PrintReport(report);
    reports.push_back(std::move(report));
  }

  // --- Workload 2: batched serving ----------------------------------------
  {
    auto recommender = serve::Recommender::Create(nodes, &*dataset);
    DARE_CHECK(recommender.ok()) << recommender.status().ToString();

    std::vector<std::vector<std::pair<int64_t, float>>> seed_lists(
        all_users.size());
    const double seed_s = BestSeconds(
        [&] {
          for (size_t q = 0; q < all_users.size(); ++q) {
            seed_lists[q] =
                benchseed::RecommendTopK(nodes, *dataset, all_users[q], serve_k);
          }
        },
        smoke);
    WorkloadReport report;
    report.name = "serve_batch_topk";
    report.detail = "RecommendTopKBatch(all users, k=" +
                    std::to_string(serve_k) + ") vs seed per-request loop";
    report.seed_users_per_sec = static_cast<double>(all_users.size()) / seed_s;
    for (int threads : kThreadCounts) {
      ThreadPool::SetGlobalThreads(threads);
      std::vector<std::vector<serve::ScoredItem>> lists;
      const double s = BestSeconds(
          [&] {
            auto batch = recommender->RecommendTopKBatch(all_users, serve_k);
            DARE_CHECK(batch.ok()) << batch.status().ToString();
            lists = std::move(batch).value();
          },
          smoke);
      for (size_t q = 0; q < all_users.size(); ++q) {
        DARE_CHECK_EQ(lists[q].size(), seed_lists[q].size())
            << "serve parity: list size diverged for user " << all_users[q];
        for (size_t i = 0; i < lists[q].size(); ++i) {
          DARE_CHECK(lists[q][i].item == seed_lists[q][i].first &&
                     lists[q][i].score == seed_lists[q][i].second)
              << "serve parity: rank " << i << " diverged for user "
              << all_users[q] << " at " << threads << " threads";
        }
      }
      report.samples.push_back(
          {threads, static_cast<double>(all_users.size()) / s, seed_s / s});
    }
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
    PrintReport(report);
    reports.push_back(std::move(report));
  }

  WriteJson(out_path, dataset_name, dataset->num_users(), dataset->num_items(),
            dim, reports);
  return 0;
}
