#include "bench/host_info.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace darec::benchutil {

namespace {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

HostInfo MeasureHost() {
  HostInfo host;
  host.nproc = std::max<int64_t>(1, sysconf(_SC_NPROCESSORS_ONLN));
  constexpr double kBurnSeconds = 0.3;
  std::vector<double> cpu(static_cast<size_t>(host.nproc), 0.0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int64_t t = 0; t < host.nproc; ++t) {
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
  for (double c : cpu) host.effective_cores += c;
  host.effective_cores /= kBurnSeconds;
  return host;
}

}  // namespace darec::benchutil
