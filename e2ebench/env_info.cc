#include "env_info.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/cpu_features.h"
#include "core/thread_pool.h"
#include "tensor/expr.h"

namespace e2e {

namespace {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double MeasureEffectiveCores(int64_t nproc) {
  constexpr double kBurnSeconds = 0.3;
  std::vector<double> cpu(static_cast<size_t>(nproc), 0.0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int64_t t = 0; t < nproc; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      const double c0 = ThreadCpuSeconds();
      const auto end = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(kBurnSeconds);
      volatile uint64_t sink = 0;
      while (std::chrono::steady_clock::now() < end) {
        for (int i = 0; i < 1000; ++i) sink = sink + static_cast<uint64_t>(i);
      }
      cpu[static_cast<size_t>(t)] = ThreadCpuSeconds() - c0;
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  double total = 0.0;
  for (double c : cpu) total += c;
  return total / kBurnSeconds;
}

}  // namespace

EnvInfo CaptureEnv() {
  EnvInfo env;
  env.nproc = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  if (env.nproc < 1) env.nproc = 1;
  env.effective_cores = MeasureEffectiveCores(env.nproc);
  env.simd = darec::core::SimdLevelName(darec::core::ActiveSimdLevel());
  env.fusion = darec::tensor::expr::FusionEnabled();
  env.compiler = __VERSION__;
  env.threads = darec::core::ThreadPool::Global().num_threads();
  return env;
}

std::string EnvJson(const EnvInfo& env, const std::string& source) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %lld, \"effective_cores\": %.3f, \"simd\": \"%s\", "
                "\"fusion\": %s, \"compiler\": \"%s\", \"darec_num_threads\": %d, "
                "\"source\": \"%s\"}",
                static_cast<long long>(env.nproc), env.effective_cores,
                env.simd.c_str(), env.fusion ? "true" : "false",
                env.compiler.c_str(), env.threads, source.c_str());
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace e2e
