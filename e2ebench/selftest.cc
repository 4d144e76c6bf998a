// Self-test of the benchmark's own helpers: statistics, span self time, the
// open-loop schedule and latency accounting. Exit code 0 when all pass.
//
//   python3 e2ebench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); }

e2e::SpanRecord Span(const char* name, int64_t start, int64_t end, int64_t parent) {
  e2e::SpanRecord s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestMedianAndTail() {
  Expect(Near(e2e::Median({5, 1, 3}), 3.0), "median of an odd sample");
  Expect(Near(e2e::Median({4, 1, 3, 2}), 2.5), "median of an even sample interpolates");
  Expect(Near(e2e::Quantile({0, 10}, 0.95), 9.5), "quantile interpolates linearly");
  // Highest quantile with at least ten samples beyond it.
  Expect(e2e::SupportedTailQuantile(19) == 0.5, "19 samples support only the median");
  Expect(e2e::SupportedTailQuantile(40) == 0.75, "40 samples support p75");
  Expect(e2e::SupportedTailQuantile(100) == 0.9, "100 samples support p90");
  Expect(e2e::SupportedTailQuantile(199) == 0.9, "199 samples do not support p95");
  Expect(e2e::SupportedTailQuantile(200) == 0.95, "200 samples support p95");
  Expect(e2e::SupportedTailQuantile(1000) == 0.99, "1000 samples support p99");
  Expect(e2e::SupportedTailQuantile(10000) == 0.999, "10000 samples support p99.9");
}

void TestIqr() {
  // Reference values from Python: statistics.quantiles(v, n=4).
  Expect(Near(e2e::IqrOverMedian({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0), "IQR of 1..10");
  Expect(Near(e2e::IqrOverMedian({3, 1, 2}), 1.0), "IQR of a 3-sample");
  Expect(Near(e2e::IqrOverMedian({10, 12, 11, 13, 50}), 1.75), "IQR with an outlier");
  Expect(e2e::IqrOverMedian({7}) == 0.0, "IQR of one sample is 0");
}

void TestSelfTime() {
  // root [0,100) with a nested chain and two overlapping children.
  std::vector<e2e::SpanRecord> spans = {
      Span("root", 0, 100, -1),   // 0
      Span("a", 10, 40, 0),       // 1: overlaps b
      Span("b", 30, 60, 0),       // 2
      Span("a.child", 15, 25, 1), // 3: nested in a
      Span("c", 90, 130, 0),      // 4: runs past the parent's end
  };
  const std::vector<int64_t> self = e2e::SelfTimesNs(spans);
  Expect(self[0] == 100 - 50 - 10, "self time subtracts the union of children, clipped");
  Expect(self[1] == 30 - 10, "nested child is subtracted from its parent only");
  Expect(self[2] == 30, "leaf self time is its duration");
  Expect(self[3] == 10, "nested leaf");
  // One thread, properly nested: self times tile the root exactly.
  const std::vector<e2e::SpanRecord> nested = {
      Span("epoch", 0, 100, -1), Span("step", 5, 50, 0), Span("spmm", 10, 20, 1),
      Span("step", 50, 95, 0)};
  int64_t sum = 0;
  for (int64_t s : e2e::SelfTimesNs(nested)) sum += s;
  Expect(sum == 100, "nested self times sum to the wall time");
  Expect(e2e::UnionLengthNs({{0, 10}, {5, 15}, {20, 30}, {25, 26}}) == 25, "interval union");

  const auto totals = e2e::Aggregate(spans);
  Expect(totals.at("a").count == 1 && totals.at("a").self_ns == 20, "aggregate by name");
}

void TestSchedule() {
  const std::vector<double> a = e2e::PoissonSchedule(42, 1000.0, 5000);
  const std::vector<double> b = e2e::PoissonSchedule(42, 1000.0, 5000);
  const std::vector<double> c = e2e::PoissonSchedule(43, 1000.0, 5000);
  Expect(a == b, "same seed, same schedule (bit for bit)");
  Expect(a != c, "another seed, another schedule");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  Expect(increasing, "arrivals strictly increase");
  const double rate = static_cast<double>(a.size()) / a.back();
  Expect(rate > 950.0 && rate < 1050.0, "mean rate matches qps");
}

void TestOpenLoopLatency() {
  // Due at t=1000 ns, sent late at t=5000 ns, answered at t=9000 ns: the
  // 4 us the generator was late counts against the request.
  Expect(Near(e2e::OpenLoopLatencyUs(1000, 9000), 8.0),
         "latency is measured from the scheduled send time");
}

}  // namespace

int main() {
  TestMedianAndTail();
  TestIqr();
  TestSelfTime();
  TestSchedule();
  TestOpenLoopLatency();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
