#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// Statistics, open-loop schedule and result-line helpers shared by the
// workloads (header-only; covered by selftest.cc).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"

namespace e2e {

/// Linear-interpolated quantile q in [0, 1] of `values` (0 when empty).
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The highest of the usual tail quantiles that has at least ten samples
/// beyond it in a sample of `n`; 0.5 when even the median has fewer.
inline double SupportedTailQuantile(int64_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

/// Interquartile range over the median, with the quartiles computed like
/// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
/// Needs at least two values; returns 0 otherwise.
inline double IqrOverMedian(std::vector<double> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n < 2) return 0.0;
  std::sort(values.begin(), values.end());
  auto quartile = [&](int64_t i) {
    const int64_t m = n + 1;
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    return (values[static_cast<size_t>(j - 1)] * (4.0 - delta) +
            values[static_cast<size_t>(j)] * delta) / 4.0;
  };
  const double median = Median(values);
  if (median == 0.0) return 0.0;
  return (quartile(3) - quartile(1)) / median;
}

/// Open-loop Poisson arrival offsets (seconds from phase start) for `count`
/// requests at `qps`. The schedule depends only on (seed, qps, count).
inline std::vector<double> PoissonSchedule(uint64_t seed, double qps, int64_t count) {
  darec::core::Rng rng(seed);
  std::vector<double> at(static_cast<size_t>(std::max<int64_t>(count, 0)));
  double t = 0.0;
  for (double& a : at) {
    const double u = rng.UniformDouble();
    t += -std::log1p(-u) / qps;
    a = t;
  }
  return at;
}

/// Open-loop latency: from when the request was DUE, not from when the
/// generator actually sent it, so a late generator cannot hide queueing.
inline double OpenLoopLatencyUs(int64_t scheduled_ns, int64_t completed_ns) {
  return static_cast<double>(completed_ns - scheduled_ns) / 1e3;
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the benchmark's result as the last stdout line.
inline void PrintResult(bool correct, int64_t attempted, int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
