// darec_e2e — runs one benchmark workload and prints one JSON result line.
//
//   darec_e2e --workload <train_align|train_graph|serve_topk> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--source <id>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. A line starting with "# env "
// and one starting with "# info " precede the result. Exit code 0 only when
// every correctness gate held. Normally launched by run.py, which pins the
// thread environment first.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "env_info.h"
#include "harness.h"
#include "workloads.h"

namespace {

/// Every per-layer metric the traced run reports, with its unit. A stage a
/// workload does not execute reports 0 next to its zero count.
struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"data.next_batch_us", "us"}, {"data.fetch_block_us", "us"},
    {"data.block_fetches_per_epoch", "count"}, {"data.generate_s", "s"},
    {"data.shard_write_s", "s"}, {"llm.encode_s", "s"}, {"graph.build_s", "s"},
    {"tensor.spmm_ms", "ms"}, {"tensor.spmm_t_ms", "ms"}, {"tensor.adam_step_ms", "ms"},
    {"tensor.backward_ms", "ms"}, {"tensor.workspace_misses_per_epoch", "count"},
    {"tensor.graph_slot_allocs_per_epoch", "count"}, {"cf.forward_ms", "ms"},
    {"cf.bpr_loss_ms", "ms"}, {"darec.loss_ms", "ms"}, {"darec.project_ms", "ms"},
    {"darec.l_or_ms", "ms"},
    {"darec.l_uni_ms", "ms"}, {"darec.l_glo_ms", "ms"}, {"darec.l_loc_ms", "ms"},
    {"cluster.kmeans_ms", "ms"}, {"pipeline.step_ms_p50", "ms"},
    {"pipeline.step_ms_p95", "ms"}, {"pipeline.steps_per_epoch", "count"},
    {"pipeline.cpu_util", "cores"}, {"pipeline.epoch_s_p50", "s"},
    {"pipeline.step_unattributed_frac", "ratio"}, {"trace_overhead_frac", "ratio"},
    {"eval.validate_ms", "ms"}, {"eval.validations_per_run", "count"},
    {"topk.rank_all_ms", "ms"}, {"topk.batch_ms", "ms"}, {"topk.one_us", "us"},
    {"ckpt.save_ms", "ms"}, {"ckpt.bytes", "bytes"}, {"ckpt.commits_per_run", "count"},
    {"ckpt.failures", "count"},
    {"serve.batch_size_mean.low", "count"}, {"serve.batch_size_mean.high", "count"},
    {"serve.batch_size_mean.over", "count"},
    {"serve.deadline_flush_frac.low", "ratio"}, {"serve.deadline_flush_frac.high", "ratio"},
    {"serve.deadline_flush_frac.over", "ratio"},
    {"serve.queue_depth_p99.low", "count"}, {"serve.queue_depth_p99.high", "count"},
    {"serve.queue_depth_p99.over", "count"},
    {"serve.achieved_qps.low", "1/s"}, {"serve.achieved_qps.high", "1/s"},
    {"serve.achieved_qps.over", "1/s"},
    {"serve.gen_lag_us_p99.low", "us"}, {"serve.gen_lag_us_p99.high", "us"},
    {"serve.gen_lag_us_p99.over", "us"},
    {"serve.latency_p50_us.low", "us"}, {"serve.latency_p95_us.low", "us"},
    {"serve.latency_p50_us.high", "us"}, {"serve.latency_p95_us.high", "us"},
    {"serve.latency_p50_us.over", "us"}, {"serve.latency_p95_us.over", "us"},
    {"serve.submit_us_p50", "us"}, {"serve.snapshot_create_ms", "ms"},
    {"serve.reload_us", "us"}, {"serve.goodput_qps.over", "1/s"}, {"serve.shed_frac.over", "ratio"},
    {"serve.expired_frac.over", "ratio"}, {"serve.degraded_flush_frac.over", "ratio"},
    {"env.nproc", "count"}, {"env.effective_cores", "cores"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "darec_e2e: %s\nusage: darec_e2e --workload <train_align|train_graph|"
               "serve_topk> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--source <id>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunArgs args;
  std::string source = "unknown";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed must be a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("--seconds must be positive");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace must be 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool train = args.workload == "train_align" || args.workload == "train_graph";
  if (!train && args.workload != "serve_topk") Usage("unknown workload");
  if (!have_seed || !have_seconds || args.work_dir.empty()) {
    Usage("--seed, --seconds and --work-dir are required");
  }

  const e2e::EnvInfo env = e2e::CaptureEnv();
  std::printf("# env %s\n", e2e::EnvJson(env, source).c_str());
  e2e::RunOutput out = train ? e2e::RunTrainWorkload(args) : e2e::RunServeWorkload(args);

  std::string info = "{";
  for (const auto& [name, value] : out.info) {
    if (info.size() > 1) info += ", ";
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", name.c_str(), value);
    info += buf;
  }
  std::printf("# info %s}\n", info.c_str());
  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "darec_e2e: gate failed: %s\n", error.c_str());
  }

  std::vector<e2e::Metric> metrics = out.metrics;
  if (args.trace) {
    out.layers["env.nproc"] = static_cast<double>(env.nproc);
    out.layers["env.effective_cores"] = env.effective_cores;
    metrics.clear();
    for (const auto& m : kLayerMetrics) {
      auto it = out.layers.find(m.name);
      metrics.push_back({m.name, it == out.layers.end() ? 0.0 : it->second, m.unit});
    }
  }
  e2e::PrintResult(out.correct, out.attempted, out.failed, metrics);
  return out.correct ? 0 : 1;
}
