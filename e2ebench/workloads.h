#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for shards and checkpoints (inside the checkout).
  std::string work_dir;
};

struct RunOutput {
  /// Every correctness gate held.
  bool correct = true;
  /// Why a gate failed (printed to stderr).
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run).
  std::vector<Metric> metrics;
  /// Per-layer values by name (traced run); names not set report 0.
  std::map<std::string, double> layers;
  /// Extra context for the info line (sample counts, spreads).
  std::map<std::string, double> info;

  void Fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

RunOutput RunTrainWorkload(const RunArgs& args);
RunOutput RunServeWorkload(const RunArgs& args);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
