#ifndef E2EBENCH_ENV_INFO_H_
#define E2EBENCH_ENV_INFO_H_

#include <cstdint>
#include <string>

namespace e2e {

/// What a result needs to be comparable across hosts and commits.
struct EnvInfo {
  int64_t nproc = 0;
  /// CPU-seconds per wall-second that `nproc` spinning threads obtained
  /// over a short burn: below nproc on a host with CPU steal or quota.
  double effective_cores = 0.0;
  std::string simd;
  bool fusion = true;
  std::string compiler;
  int threads = 0;  // DAREC_NUM_THREADS as resolved by the thread pool
};

/// Measures and collects the environment (burns ~0.3 s of wall time).
EnvInfo CaptureEnv();

/// One-line JSON rendering; `source` identifies the code under test.
std::string EnvJson(const EnvInfo& env, const std::string& source);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// User + system CPU seconds this process consumed so far.
double ProcessCpuSeconds();

}  // namespace e2e

#endif  // E2EBENCH_ENV_INFO_H_
