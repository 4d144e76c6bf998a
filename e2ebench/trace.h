#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

// In-memory span tracer for the benchmark's own calls into the library.
//
// Spans are recorded only by benchmark code, around calls into public entry
// points; nothing inside src/ is instrumented. Each span has a name, start,
// end, the span that caused it (parent) and, for serving, a request id.
// Spans stay in memory until the run ends and are then reduced to per-layer
// totals (count, total time, self time).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the causing span in the same record list, or -1 for a root.
  int64_t parent = -1;
  /// Request id shared by the spans of one serving request, else -1.
  int64_t request = -1;
};

/// Process-wide tracer. Disabled tracers record nothing and cost a branch.
/// Begin/End may be called from several threads; each thread keeps its own
/// stack of open spans, which supplies the default parent.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span; `parent` -1 means "the innermost span open on this
  /// thread". Returns the span id, or -1 when disabled.
  int64_t Begin(const char* name, int64_t request = -1, int64_t parent = -1);
  void End(int64_t id);
  /// Records a finished span with explicit times (open-loop request spans
  /// start at their scheduled send time, which no thread observed).
  int64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int64_t request = -1, int64_t parent = -1);

  /// Spans recorded so far (call only after every recording thread joined).
  std::vector<SpanRecord> Take();

 private:
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::atomic<bool> enabled_{false};
};

/// RAII span on the current thread.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1)
      : id_(Tracer::Get().Begin(name, request)) {}
  ~Span() { Tracer::Get().End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may nest or
/// overlap each other, and are clipped to the parent's interval).
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

struct LayerTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<double> durations_ms;
};

/// Per-name totals over `spans` (with self times from SelfTimesNs).
std::map<std::string, LayerTotals> Aggregate(const std::vector<SpanRecord>& spans);

/// Length of the union of [start, end) intervals.
int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
