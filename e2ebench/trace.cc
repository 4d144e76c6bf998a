#include "trace.h"

#include <algorithm>
#include <utility>

namespace e2e {

namespace {

thread_local std::vector<int64_t> open_spans;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::Begin(const char* name, int64_t request, int64_t parent) {
  if (!enabled()) return -1;
  if (parent < 0 && !open_spans.empty()) parent = open_spans.back();
  const int64_t id = Record(name, NowNs(), 0, request, parent);
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                       int64_t request, int64_t parent) {
  if (!enabled()) return -1;
  SpanRecord record;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.parent = parent;
  record.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<SpanRecord> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out = std::move(spans_);
  spans_.clear();
  return out;
}

int64_t UnionLengthNs(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0 || s.parent >= static_cast<int64_t>(spans.size())) continue;
    const SpanRecord& p = spans[static_cast<size_t>(s.parent)];
    const int64_t start = std::max(s.start_ns, p.start_ns);
    const int64_t end = std::min(s.end_ns, p.end_ns);
    if (end > start) children[static_cast<size_t>(s.parent)].emplace_back(start, end);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t duration = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns);
    self[i] = duration - UnionLengthNs(std::move(children[i]));
  }
  return self;
}

std::map<std::string, LayerTotals> Aggregate(const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = totals[spans[i].name];
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    ++t.count;
    t.total_ns += duration;
    t.self_ns += self[i];
    t.durations_ms.push_back(static_cast<double>(duration) / 1e6);
  }
  return totals;
}

}  // namespace e2e
