// Serving workload: serve_topk.
//
// Capacity bursts (every flush size-triggered) measure how many requests
// the server completes per CPU-second. Between them, one open-loop Poisson
// generator drives a serve::Server over a snapshot of amazon-book-scale
// embeddings at three fixed rates, each against a fresh server: `low`
// (batches released by the 1 ms deadline), `high` (near capacity, with
// snapshot swaps via ReloadModel every 200 ms) and `over` (above capacity:
// bounded admission, the degradation ladder and per-request deadlines shed
// the excess). Latency is measured from each request's scheduled send
// time. Sampled responses must equal serve::Recommender::RecommendTopK on
// the snapshot version that answered.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cf/registry.h"
#include "core/rng.h"
#include "data/presets.h"
#include "data/synthetic.h"
#include "env_info.h"
#include "eval/metrics.h"
#include "graph/bipartite.h"
#include "serve/recommender.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {

namespace {

namespace data = darec::data;
namespace serve = darec::serve;
using darec::core::StatusCode;
using darec::tensor::Matrix;

constexpr int64_t kTopK = 20;
/// Every kCheckEvery-th request's answer is checked against the reference.
constexpr int64_t kCheckEvery = 16;
/// Latency limit of the `over` phase: goodput counts completions within it,
/// and it is also each request's deadline there.
constexpr int64_t kOverLimitUs = 20000;
constexpr int64_t kReloadEveryMs = 200;

struct Phase {
  const char* name;
  double qps;
  /// Share of --seconds this phase runs for.
  double share;
  bool reloads;
  bool overload;
  /// All requests due at once (capacity), instead of a Poisson schedule.
  bool burst = false;
};

// Fixed rates, chosen from the capacity bursts measured on the development
// host (README.md, "Traffic and capacity").
constexpr Phase kPhases[] = {
    {"low", 1000.0, 0.35, false, false},
    {"high", 12000.0, 0.35, true, false},
    {"over", 24000.0, 0.1, false, true},
};
/// Capacity: kBurstRequests due at once into an unbounded queue, so every
/// flush but the last is size-triggered and the server works flat out.
/// throughput_per_s is the median over all bursts of completions per
/// process CPU-second: the server's own cost per request, which
/// time-sharing with other processes does not change (contention for
/// caches and memory still does; the info line keeps the wall rate).
/// kBurstsPerGap bursts run before each open-loop phase and after the last,
/// so the median spans the whole run rather than one moment of the host.
constexpr Phase kBurst = {"burst", 0.0, 0.0, false, false, true};
constexpr int64_t kBurstRequests = 8192;
constexpr int kBurstsPerGap = 2;

struct ServeSetup {
  std::unique_ptr<data::Dataset> dataset;
  /// Two model versions the high phase swaps between.
  std::shared_ptr<const serve::ModelSnapshot> snapshots[2];
  std::unique_ptr<serve::Recommender> references[2];
  Matrix embeddings[2];
  /// Cumulative train degree per user: requests follow activity skew.
  std::vector<double> activity;
  double total_s = 0.0;
  std::vector<double> snapshot_create_ms;
};

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols() + b.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c);
    for (int64_t c = 0; c < b.cols(); ++c) out(r, a.cols() + c) = b(r, c);
  }
  return out;
}

std::unique_ptr<ServeSetup> BuildSetup(uint64_t seed) {
  auto s = std::make_unique<ServeSetup>();
  const int64_t t0 = NowNs();
  auto preset = data::GetPreset("amazon-book");
  DARE_CHECK(preset.ok());
  preset->options.seed = seed * 7919 + 101;
  auto dataset = data::MakeSyntheticDataset(preset->name, preset->options);
  DARE_CHECK(dataset.ok()) << dataset.status().ToString();
  s->dataset = std::make_unique<data::Dataset>(std::move(dataset).value());
  // Model versions: the generating world's user/item factors [shared | cf]
  // (a well-fit model, so recall_at_20 is informative and seed-stable) next
  // to a propagated random LightGCN table whose seed differs per version.
  const data::LatentWorld world = data::GenerateLatentWorld(preset->options);
  const Matrix users = ConcatCols(world.user_shared, world.user_cf);
  const Matrix items = ConcatCols(world.item_shared, world.item_cf);
  const darec::graph::BipartiteGraph graph(*s->dataset);
  for (int v = 0; v < 2; ++v) {
    darec::cf::BackboneOptions options;
    options.embedding_dim = 32 - users.cols();
    options.seed = seed * 13 + 1 + static_cast<uint64_t>(v);
    auto backbone = darec::cf::CreateBackbone("lightgcn", &graph, options);
    DARE_CHECK(backbone.ok());
    const Matrix noise = (*backbone)->InferenceEmbeddings();
    Matrix& e = s->embeddings[v];
    e = Matrix(noise.rows(), 32);
    for (int64_t r = 0; r < e.rows(); ++r) {
      const bool user = r < s->dataset->num_users();
      const Matrix& factors = user ? users : items;
      const int64_t fr = user ? r : r - s->dataset->num_users();
      for (int64_t c = 0; c < factors.cols(); ++c) e(r, c) = factors(fr, c);
      for (int64_t c = 0; c < noise.cols(); ++c) e(r, factors.cols() + c) = noise(r, c);
    }
    const int64_t c0 = NowNs();
    {
      Span span("serve.snapshot_create");
      auto snapshot = serve::ModelSnapshot::Create(s->embeddings[v], s->dataset.get(),
                                                   /*build_int8=*/false,
                                                   static_cast<uint64_t>(v + 1));
      DARE_CHECK(snapshot.ok()) << snapshot.status().ToString();
      s->snapshots[v] = *snapshot;
    }
    s->snapshot_create_ms.push_back(static_cast<double>(NowNs() - c0) / 1e6);
    auto reference = serve::Recommender::Create(s->embeddings[v], s->dataset.get());
    DARE_CHECK(reference.ok());
    s->references[v] = std::make_unique<serve::Recommender>(std::move(reference).value());
  }
  double cumulative = 0.0;
  s->activity.reserve(static_cast<size_t>(s->dataset->num_users()));
  for (int64_t u = 0; u < s->dataset->num_users(); ++u) {
    cumulative += static_cast<double>(s->dataset->TrainItemsOfUser(u).size()) + 1.0;
    s->activity.push_back(cumulative);
  }
  s->total_s = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

int64_t DrawUser(const std::vector<double>& activity, darec::core::Rng& rng) {
  const double x = rng.UniformDouble() * activity.back();
  return static_cast<int64_t>(std::upper_bound(activity.begin(), activity.end(), x) -
                              activity.begin());
}

struct PhaseResult {
  int64_t attempted = 0, completed = 0, failed = 0, shed = 0, expired = 0;
  int64_t within_limit = 0;
  double seconds = 0.0;
  /// Process CPU time from the first due time to the last answer.
  double cpu_s = 0.0;
  std::vector<double> latency_us;  // completed requests
  std::vector<double> lag_us;      // actual - scheduled send
  std::vector<double> submit_us;
  std::vector<double> depth;
  double achieved_qps = 0.0;
  serve::ServerStats stats;
  int64_t reloads = 0;
  std::vector<double> reload_us;
};

struct Checked {
  int64_t user = 0;
  serve::TopKResult result;
};

/// `stream` separates the user draws of phases that share a rate (bursts).
PhaseResult RunPhase(const Phase& phase, const ServeSetup& s, uint64_t seed,
                     double seconds, uint64_t stream, RunOutput* out) {
  const int64_t count =
      phase.burst ? kBurstRequests : std::max<int64_t>(1, std::llround(phase.qps * seconds));
  const std::vector<double> schedule =
      phase.burst ? std::vector<double>(static_cast<size_t>(count), 0.0)
                  : PoissonSchedule(seed * 1000003 + static_cast<uint64_t>(phase.qps),
                                    phase.qps, count);
  darec::core::Rng user_rng(seed * 7 + static_cast<uint64_t>(phase.qps) + stream * 104729);
  std::vector<int64_t> users(static_cast<size_t>(count));
  for (int64_t& u : users) u = DrawUser(s.activity, user_rng);

  // Below capacity nothing may be shed, even through a host stall; above
  // it, bounded admission is part of what is measured.
  serve::ServerOptions options;
  options.max_queue = phase.overload ? 1024 : int64_t{1} << 20;
  serve::Server server(s.snapshots[0], options);
  const int64_t timeout_us = phase.overload ? kOverLimitUs : 0;

  PhaseResult r;
  r.attempted = count;
  std::vector<std::future<darec::core::StatusOr<serve::TopKResult>>> futures(
      static_cast<size_t>(count));
  std::vector<int64_t> scheduled_ns(static_cast<size_t>(count));
  std::vector<Checked> checked;
  std::mutex mu;
  std::condition_variable cv;
  int64_t published = 0;
  Tracer& tracer = Tracer::Get();
  int64_t last_done = 0;

  const int64_t start = NowNs() + 2'000'000;  // 2 ms head start
  for (int64_t i = 0; i < count; ++i) {
    scheduled_ns[static_cast<size_t>(i)] =
        start + static_cast<int64_t>(schedule[static_cast<size_t>(i)] * 1e9);
  }
  std::thread collector([&] {
    for (int64_t i = 0; i < count; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i; });
      }
      auto result = futures[static_cast<size_t>(i)].get();
      const int64_t done = NowNs();
      last_done = done;
      const int64_t sched = scheduled_ns[static_cast<size_t>(i)];
      if (result.ok()) {
        ++r.completed;
        const double latency = OpenLoopLatencyUs(sched, done);
        r.latency_us.push_back(latency);
        if (latency <= static_cast<double>(kOverLimitUs)) ++r.within_limit;
        tracer.Record("serve.request", sched, done, i);
        if (i % kCheckEvery == 0) {
          checked.push_back({users[static_cast<size_t>(i)], std::move(result).value()});
        }
      } else if (phase.overload &&
                 result.status().code() == StatusCode::kResourceExhausted) {
        ++r.shed;
      } else if (phase.overload &&
                 result.status().code() == StatusCode::kDeadlineExceeded) {
        ++r.expired;
      } else {
        ++r.failed;
        if (r.failed <= 3) {
          out->Fail(std::string(phase.name) + " request failed: " +
                    result.status().ToString());
        }
      }
    }
  });

  int64_t next_reload = start + kReloadEveryMs * 1'000'000;
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(start)));
  const double cpu0 = ProcessCpuSeconds();
  for (int64_t i = 0; i < count; ++i) {
    const int64_t sched = scheduled_ns[static_cast<size_t>(i)];
    // Sleep, never spin: a spinning generator would take the CPU the server
    // needs. Its wake-up lateness is measured (lag) and counted in latency.
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(sched)));
    const int64_t sent = NowNs();
    r.lag_us.push_back(static_cast<double>(sent - sched) / 1e3);
    {
      Span span("serve.submit", i);
      futures[static_cast<size_t>(i)] =
          server.SubmitTopK(users[static_cast<size_t>(i)], kTopK, timeout_us);
    }
    r.submit_us.push_back(static_cast<double>(NowNs() - sent) / 1e3);
    {
      std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    cv.notify_one();
    if (i % 32 == 0) r.depth.push_back(static_cast<double>(server.pending()));
    if (phase.reloads && sent >= next_reload) {
      const int64_t t = NowNs();
      {
        Span span("serve.reload");
        server.ReloadModel(s.snapshots[(r.reloads + 1) % 2]);
      }
      r.reload_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
      ++r.reloads;
      next_reload += kReloadEveryMs * 1'000'000;
    }
  }
  const int64_t last_sent = NowNs();
  collector.join();
  r.seconds = static_cast<double>(last_done - start) / 1e9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.achieved_qps = static_cast<double>(count) / (static_cast<double>(last_sent - start) / 1e9);
  server.Stop();
  r.stats = server.stats();

  // Gates: accounting closes; the generator kept to its schedule; sampled
  // answers equal the reference for the snapshot version that served them.
  if (r.completed + r.failed + r.shed + r.expired != r.attempted) {
    out->Fail(std::string(phase.name) + ": completed+failed+shed+expired != attempted");
  }
  if (r.stats.completed != r.completed) {
    out->Fail(std::string(phase.name) + ": server completed count disagrees");
  }
  const double lag_p99 = Quantile(r.lag_us, 0.99);
  // Lateness alone cannot flatter the server (latency counts from the
  // scheduled time); a generator that sends less than it should, or runs
  // far behind, offers less load than the phase claims.
  const double scheduled_qps = static_cast<double>(count) / schedule.back();
  if (!phase.burst && (r.achieved_qps < 0.97 * scheduled_qps || lag_p99 > 100000.0)) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s: generator fell behind its schedule (sent %.0f/s of %.0f/s, "
                  "lag p99 %.0f us); the run is invalid",
                  phase.name, r.achieved_qps, scheduled_qps, lag_p99);
    out->Fail(buf);
  }
  for (const Checked& c : checked) {
    const uint64_t v = c.result.snapshot_version;
    if (v != 1 && v != 2) {
      out->Fail("unknown snapshot version in a response");
      break;
    }
    auto expected = s.references[v - 1]->RecommendTopK(c.user, kTopK);
    if (!expected.ok() || *expected != c.result.items) {
      ++r.failed;
      --r.completed;
      out->Fail(std::string(phase.name) + ": response differs from Recommender for user " +
                std::to_string(c.user));
    }
  }
  return r;
}

}  // namespace

RunOutput RunServeWorkload(const RunArgs& args) {
  RunOutput out;
  Tracer& tracer = Tracer::Get();
  // setup_s is the median of several set-ups; the traced run needs one.
  const int setups = args.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> s;
  for (int i = 0; i < setups; ++i) {
    s.reset();
    tracer.set_enabled(args.trace);
    s = BuildSetup(args.seed);
    setup_s.push_back(s->total_s);
  }
  tracer.set_enabled(args.trace);

  std::vector<PhaseResult> bursts, results;
  std::vector<double> capacity, wall_capacity;
  auto run_bursts = [&] {
    for (int b = 0; b < kBurstsPerGap; ++b) {
      const uint64_t stream = bursts.size();
      bursts.push_back(RunPhase(kBurst, *s, args.seed, 0.0, stream, &out));
      capacity.push_back(static_cast<double>(bursts.back().completed) / bursts.back().cpu_s);
      wall_capacity.push_back(static_cast<double>(bursts.back().completed) /
                              bursts.back().seconds);
    }
  };
  for (const Phase& phase : kPhases) {
    run_bursts();
    results.push_back(RunPhase(phase, *s, args.seed, args.seconds * phase.share, 0, &out));
  }
  run_bursts();
  tracer.set_enabled(false);

  for (const std::vector<PhaseResult>* group : {&bursts, &results}) {
    for (const PhaseResult& r : *group) {
      out.attempted += r.attempted;
      out.failed += r.failed;
    }
  }
  const PhaseResult& low = results[0];
  const PhaseResult& high = results[1];
  const PhaseResult& over = results[2];
  for (const PhaseResult* r : {&low, &high}) {
    if (SupportedTailQuantile(static_cast<int64_t>(r->latency_us.size())) < 0.95) {
      out.Fail("too few completions for a p95; raise --seconds");
    }
  }
  if (high.reloads == 0) out.Fail("high phase issued no snapshot reloads");

  if (!args.trace) {
    const double recall =
        darec::eval::EvaluateRanking(s->embeddings[0], *s->dataset).recall.at(20);
    out.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"success_rate",
         static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
         "ratio"},
        {"throughput_per_s", Median(capacity), "1/s"},
        {"latency_p50_ms", Median(low.latency_us) / 1e3, "ms"},
        {"latency_p75_ms", Quantile(low.latency_us, 0.75) / 1e3, "ms"},
    };
    out.info = {{"setup_s_iqr_frac", IqrOverMedian(setup_s)},
                {"capacity_iqr_frac", IqrOverMedian(capacity)},
                {"capacity_wall_qps", Median(wall_capacity)},
                {"capacity_wall_iqr_frac", IqrOverMedian(wall_capacity)},
                {"burst_batch_size_mean",
                 static_cast<double>(bursts[0].stats.completed) /
                     static_cast<double>(std::max<int64_t>(bursts[0].stats.flushes, 1))},
                {"low_completed", static_cast<double>(low.completed)},
                {"high_completed", static_cast<double>(high.completed)},
                {"recall_at_20", recall},
                {"low_p95_ms", Quantile(low.latency_us, 0.95) / 1e3},
                {"high_p50_ms", Median(high.latency_us) / 1e3},
                {"high_p95_ms", Quantile(high.latency_us, 0.95) / 1e3},
                {"over_completed", static_cast<double>(over.completed)},
                {"over_shed", static_cast<double>(over.shed)},
                {"over_expired", static_cast<double>(over.expired)},
                {"reloads", static_cast<double>(high.reloads)}};
    return out;
  }

  std::map<std::string, double>& L = out.layers;
  for (size_t p = 0; p < results.size(); ++p) {
    const PhaseResult& r = results[p];
    const std::string suffix = std::string(".") + kPhases[p].name;
    const serve::ServerStats& st = r.stats;
    const double flushes = static_cast<double>(std::max<int64_t>(st.flushes, 1));
    L["serve.batch_size_mean" + suffix] =
        static_cast<double>(st.completed) / flushes;
    L["serve.deadline_flush_frac" + suffix] = static_cast<double>(st.deadline_flushes) / flushes;
    L["serve.queue_depth_p99" + suffix] = Quantile(r.depth, 0.99);
    L["serve.achieved_qps" + suffix] = r.achieved_qps;
    L["serve.gen_lag_us_p99" + suffix] = Quantile(r.lag_us, 0.99);
    L["serve.latency_p50_us" + suffix] = Median(r.latency_us);
    L["serve.latency_p95_us" + suffix] = Quantile(r.latency_us, 0.95);
  }
  const double over_n = static_cast<double>(over.attempted);
  L["serve.goodput_qps.over"] = static_cast<double>(over.within_limit) / over.seconds;
  L["serve.shed_frac.over"] = static_cast<double>(over.shed) / over_n;
  L["serve.expired_frac.over"] = static_cast<double>(over.expired) / over_n;
  L["serve.degraded_flush_frac.over"] =
      static_cast<double>(over.stats.degraded_flushes) /
      static_cast<double>(std::max<int64_t>(over.stats.flushes, 1));
  std::vector<double> submit_us;
  for (const PhaseResult& r : results) {
    submit_us.insert(submit_us.end(), r.submit_us.begin(), r.submit_us.end());
  }
  L["serve.submit_us_p50"] = Median(submit_us);
  L["serve.snapshot_create_ms"] = Median(s->snapshot_create_ms);
  L["serve.reload_us"] = Median(high.reload_us);

  // The scoring core on its own, on the serving snapshot: a full microbatch
  // and a single request.
  const darec::topk::Engine& engine = s->snapshots[0]->engine();
  const ServeSetup& setup = *s;
  const darec::topk::SeenItemsFn seen = [&setup](int64_t u) {
    return setup.snapshots[0]->SeenOf(u);
  };
  darec::core::Rng rng(args.seed * 3 + 5);
  std::vector<double> batch_ms, one_us;
  std::vector<darec::topk::ScoredItem> one;
  tracer.set_enabled(true);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<int64_t> batch(64);
    for (int64_t& u : batch) u = DrawUser(s->activity, rng);
    int64_t t = NowNs();
    {
      Span span("topk.batch");
      engine.TopK(batch, kTopK, seen, darec::topk::MaskMode::kDrop);
    }
    batch_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
    t = NowNs();
    {
      Span span("topk.one");
      engine.TopKOne(batch[0], kTopK, seen, darec::topk::MaskMode::kDrop, &one);
    }
    one_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
  }
  tracer.set_enabled(false);
  L["topk.batch_ms"] = Median(batch_ms);
  L["topk.one_us"] = Median(one_us);

  const std::vector<SpanRecord> spans = tracer.Take();
  int64_t requests = 0;
  for (const SpanRecord& span : spans) requests += span.name == "serve.request";
  out.info = {{"spans", static_cast<double>(spans.size())},
              {"request_spans", static_cast<double>(requests)}};
  return out;
}

}  // namespace e2e
