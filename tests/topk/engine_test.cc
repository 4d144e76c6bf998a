#include "topk/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/cpu_features.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "serve/recommender.h"
#include "tensor/init.h"

namespace darec::topk {
namespace {

using tensor::Matrix;

// ---------------------------------------------------------------------------
// Fixtures: a random dataset (so every user has train/val/test items) and
// random node embeddings over its users + items.
// ---------------------------------------------------------------------------

data::Dataset MakeRandomDataset(int64_t num_users, int64_t num_items,
                                int64_t per_user, uint64_t seed) {
  core::Rng rng(seed);
  std::vector<data::Interaction> interactions;
  for (int64_t u = 0; u < num_users; ++u) {
    for (int64_t item : rng.SampleWithoutReplacement(num_items, per_user)) {
      interactions.push_back({u, item});
    }
  }
  auto ds = data::Dataset::Create("topk-test", num_users, num_items,
                                  std::move(interactions), data::SplitRatio{}, rng);
  DARE_CHECK(ds.ok());
  return std::move(ds).value();
}

Matrix RandomNodes(int64_t num_nodes, int64_t dim, uint64_t seed) {
  core::Rng rng(seed);
  return tensor::RandomNormal(num_nodes, dim, 1.0f, rng);
}

/// Reference select: scalar dot scores, mask, full stable ordering by
/// (score desc, id asc), truncate — the semantics the engine must match.
std::vector<ScoredItem> NaiveTopK(const Matrix& nodes, int64_t num_users,
                                  int64_t num_items, int64_t user, int64_t k,
                                  const std::vector<int64_t>* seen,
                                  MaskMode mask_mode) {
  std::vector<ScoredItem> all;
  for (int64_t item = 0; item < num_items; ++item) {
    float score = 0.0f;
    const float* urow = nodes.Row(user);
    const float* irow = nodes.Row(num_users + item);
    for (int64_t c = 0; c < nodes.cols(); ++c) score += urow[c] * irow[c];
    const bool masked =
        seen != nullptr && std::binary_search(seen->begin(), seen->end(), item);
    if (masked) {
      if (mask_mode == MaskMode::kDrop) continue;
      score = -std::numeric_limits<float>::infinity();
    }
    all.push_back({item, score});
  }
  std::sort(all.begin(), all.end(), [](const ScoredItem& a, const ScoredItem& b) {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  });
  if (static_cast<int64_t>(all.size()) > std::min(k, num_items)) {
    all.resize(static_cast<size_t>(std::min(k, num_items)));
  }
  return all;
}

void ExpectListsEqual(const std::vector<ScoredItem>& a,
                      const std::vector<ScoredItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

TEST(TopKEngineTest, MatchesNaiveReferenceBothMaskModes) {
  data::Dataset ds = MakeRandomDataset(23, 17, 8, 1);
  Matrix nodes = RandomNodes(ds.num_nodes(), 12, 2);
  Engine engine(nodes, ds.num_users(), ds.num_items());
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };

  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);

  for (MaskMode mode : {MaskMode::kScoreNegInf, MaskMode::kDrop}) {
    auto lists = engine.TopK(users, 5, seen, mode);
    ASSERT_EQ(lists.size(), users.size());
    for (size_t q = 0; q < users.size(); ++q) {
      ExpectListsEqual(lists[q],
                       NaiveTopK(nodes, ds.num_users(), ds.num_items(),
                                 users[q], 5, &ds.TrainItemsOfUser(users[q]),
                                 mode));
    }
  }
}

TEST(TopKEngineTest, NoMaskingWhenSeenFnEmpty) {
  Matrix nodes = RandomNodes(9, 6, 3);
  Engine engine(nodes, 4, 5);
  auto lists = engine.TopK({0, 3}, 3, SeenItemsFn(), MaskMode::kDrop);
  ASSERT_EQ(lists.size(), 2u);
  for (size_t q = 0; q < 2; ++q) {
    ExpectListsEqual(lists[q], NaiveTopK(nodes, 4, 5, q == 0 ? 0 : 3, 3,
                                         nullptr, MaskMode::kDrop));
  }
}

TEST(TopKEngineTest, TieBreakIsAscendingItemId) {
  // Every item embedding identical -> all scores tie; the ranking must be
  // item ids ascending, at every rank, regardless of heap internals.
  Matrix nodes(3 + 20, 4);
  for (int64_t r = 0; r < nodes.rows(); ++r) nodes(r, 0) = 1.0f;
  Engine engine(nodes, 3, 20);
  auto lists = engine.TopK({0, 1, 2}, 7, SeenItemsFn(), MaskMode::kScoreNegInf);
  for (const auto& list : lists) {
    ASSERT_EQ(list.size(), 7u);
    for (int64_t i = 0; i < 7; ++i) EXPECT_EQ(list[i].item, i);
  }
  // Masked items tie at -inf and also break by id: with items {0,2} seen,
  // the eligible 18 items come first, then 0 before 2.
  const std::vector<int64_t> seen_items = {0, 2};
  SeenItemsFn seen = [&seen_items](int64_t) { return &seen_items; };
  auto masked = engine.TopK({1}, 20, seen, MaskMode::kScoreNegInf);
  ASSERT_EQ(masked[0].size(), 20u);
  EXPECT_EQ(masked[0][18].item, 0);
  EXPECT_EQ(masked[0][19].item, 2);
}

TEST(TopKEngineTest, ThreadCountInvariance) {
  data::Dataset ds = MakeRandomDataset(40, 30, 9, 4);
  Matrix nodes = RandomNodes(ds.num_nodes(), 16, 5);
  Engine engine(nodes, ds.num_users(), ds.num_items());
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };
  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);

  core::ThreadPool::SetGlobalThreads(1);
  auto serial = engine.TopK(users, 10, seen, MaskMode::kScoreNegInf);
  core::ThreadPool::SetGlobalThreads(8);
  auto parallel = engine.TopK(users, 10, seen, MaskMode::kScoreNegInf);
  core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t q = 0; q < serial.size(); ++q) {
    ExpectListsEqual(serial[q], parallel[q]);
  }
}

TEST(TopKEngineTest, BlockSizeInvarianceIncludingRaggedBlocks) {
  // 10 queried users with block sizes 3 / 4 / 128: 10 is not a multiple of
  // either small block, so the last block is ragged; results must not move.
  data::Dataset ds = MakeRandomDataset(10, 14, 7, 6);
  Matrix nodes = RandomNodes(ds.num_nodes(), 8, 7);
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };
  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);

  EngineOptions wide;  // default 128: one block
  Engine reference(nodes, ds.num_users(), ds.num_items(), wide);
  auto expected = reference.TopK(users, 6, seen, MaskMode::kDrop);
  for (int64_t block : {1, 3, 4}) {
    EngineOptions options;
    options.block_users = block;
    Engine engine(nodes, ds.num_users(), ds.num_items(), options);
    auto lists = engine.TopK(users, 6, seen, MaskMode::kDrop);
    ASSERT_EQ(lists.size(), expected.size());
    for (size_t q = 0; q < lists.size(); ++q) {
      ExpectListsEqual(lists[q], expected[q]);
    }
  }
}

TEST(TopKEngineTest, KAtLeastNumItems) {
  Matrix nodes = RandomNodes(2 + 6, 5, 8);
  Engine engine(nodes, 2, 6);
  const std::vector<int64_t> seen_items = {1, 4};
  SeenItemsFn seen = [&seen_items](int64_t) { return &seen_items; };

  // kScoreNegInf keeps every item: list size = num_items even for k >> I.
  auto full = engine.TopK({0}, 100, seen, MaskMode::kScoreNegInf);
  ASSERT_EQ(full[0].size(), 6u);
  // kDrop clamps to the eligible count.
  auto dropped = engine.TopK({0}, 100, seen, MaskMode::kDrop);
  ASSERT_EQ(dropped[0].size(), 4u);
  for (const ScoredItem& s : dropped[0]) {
    EXPECT_NE(s.item, 1);
    EXPECT_NE(s.item, 4);
  }
  // Every item seen -> empty list under kDrop.
  const std::vector<int64_t> all_items = {0, 1, 2, 3, 4, 5};
  SeenItemsFn all_seen = [&all_items](int64_t) { return &all_items; };
  auto empty = engine.TopK({0}, 3, all_seen, MaskMode::kDrop);
  EXPECT_TRUE(empty[0].empty());
}

TEST(TopKEngineTest, EmptyQueryAndDuplicateUsers) {
  Matrix nodes = RandomNodes(5 + 4, 3, 9);
  Engine engine(nodes, 5, 4);
  EXPECT_TRUE(engine.TopK({}, 2, SeenItemsFn(), MaskMode::kDrop).empty());
  auto lists = engine.TopK({2, 2, 2}, 2, SeenItemsFn(), MaskMode::kDrop);
  ASSERT_EQ(lists.size(), 3u);
  ExpectListsEqual(lists[0], lists[1]);
  ExpectListsEqual(lists[0], lists[2]);
}

// ---------------------------------------------------------------------------
// SelectTopK vs the plain merge walk: the threshold-filtered select must be
// bitwise equal to offering every item to the bounded heap in id order,
// including on inputs no real score row or seen list should hold.
// ---------------------------------------------------------------------------

/// The plain merge walk: every item is offered to the heap in id order.
std::vector<ScoredItem> MergeWalkSelect(const std::vector<float>& scores,
                                        int64_t k,
                                        const std::vector<int64_t>& seen,
                                        MaskMode mask_mode) {
  const auto ranks_before = [](const ScoredItem& a, const ScoredItem& b) {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  };
  std::vector<ScoredItem> out;
  size_t seen_pos = 0;
  for (int64_t item = 0; item < static_cast<int64_t>(scores.size()); ++item) {
    float score = scores[static_cast<size_t>(item)];
    if (seen_pos < seen.size() && seen[seen_pos] == item) {
      ++seen_pos;
      if (mask_mode == MaskMode::kDrop) continue;
      score = -std::numeric_limits<float>::infinity();
    }
    const ScoredItem candidate{item, score};
    if (static_cast<int64_t>(out.size()) < k) {
      out.push_back(candidate);
      std::push_heap(out.begin(), out.end(), ranks_before);
    } else if (ranks_before(candidate, out.front())) {
      std::pop_heap(out.begin(), out.end(), ranks_before);
      out.back() = candidate;
      std::push_heap(out.begin(), out.end(), ranks_before);
    }
  }
  std::sort(out.begin(), out.end(), ranks_before);
  return out;
}

/// Item ids and score bit patterns equal (NaN == NaN, -0 != +0).
::testing::AssertionResult SameBits(const std::vector<ScoredItem>& got,
                                    const std::vector<ScoredItem>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].item != want[i].item ||
        std::bit_cast<uint32_t>(got[i].score) !=
            std::bit_cast<uint32_t>(want[i].score)) {
      return ::testing::AssertionFailure()
             << "rank " << i << ": (" << got[i].item << ", " << got[i].score
             << ") vs (" << want[i].item << ", " << want[i].score << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SelectMatchesMergeWalk(
    const std::vector<float>& scores, int64_t k,
    const std::vector<int64_t>& seen, MaskMode mask_mode) {
  std::vector<ScoredItem> got;
  SelectTopK(scores.data(), static_cast<int64_t>(scores.size()), k,
             ItemSpan(seen), mask_mode, got);
  return SameBits(got, MergeWalkSelect(scores, k, seen, mask_mode));
}

TEST(SelectTopKTest, ParityOnHandPickedEdgeCases) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  struct Case {
    const char* what;
    std::vector<float> scores;
    std::vector<int64_t> seen;
  };
  const std::vector<Case> cases = {
      {"ties at the threshold", {1, 2, 2, 2, 1, 2, 3, 2, 2, 3, 1, 2}, {}},
      {"all tied", std::vector<float>(16, 0.5f), {3, 7}},
      {"signed zeros", {0.0f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f}, {1}},
      {"NaN at the root", {kNaN, 1, 2, 3, 4, 5, 6, kNaN, 7}, {}},
      {"NaN mid-row", {1, 2, kNaN, 3, kNaN, 4, 0, kNaN, 5}, {2, 5}},
      {"all NaN", std::vector<float>(9, kNaN), {0, 4}},
      {"-inf scores", {-kInf, 1, -kInf, -kInf, 2, -kInf, 0}, {1, 6}},
      {"+inf scores", {1, kInf, 0, kInf, 2, kInf, -kInf}, {3}},
      {"duplicate seen ids", {5, 4, 3, 2, 1, 6, 7, 8, 9}, {1, 1, 3, 6}},
      {"unsorted seen ids", {5, 4, 3, 2, 1, 6, 7, 8, 9}, {2, 6, 4, 7}},
      {"negative seen id", {5, 4, 3, 2, 1, 6, 7, 8, 9}, {-1, 2, 3}},
      {"seen id past the end", {5, 4, 3, 2, 1, 6, 7, 8, 9}, {2, 9, 12}},
      {"seen id past the end first", {5, 4, 3, 2, 1, 6, 7, 8, 9}, {40, 3}},
      {"every item seen", {1, 2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 5}},
      {"empty row", {}, {0, 1}},
  };
  for (const Case& c : cases) {
    const int64_t n = static_cast<int64_t>(c.scores.size());
    for (MaskMode mode : {MaskMode::kScoreNegInf, MaskMode::kDrop}) {
      for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{3}, n, n + 5}) {
        if (k < 1) continue;
        EXPECT_TRUE(SelectMatchesMergeWalk(c.scores, k, c.seen, mode))
            << c.what << ", k=" << k << ", mode=" << static_cast<int>(mode);
      }
    }
  }
}

TEST(SelectTopKTest, ParityOnRandomAdversarialRows) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  // A few values drawn often so ties, NaN and infinities meet the heap root.
  const float specials[] = {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, kInf, -kInf, kNaN};
  core::Rng rng(2024);
  for (int trial = 0; trial < 3000; ++trial) {
    const int64_t n = rng.UniformInt(80);
    std::vector<float> scores(static_cast<size_t>(n));
    const double special_p = rng.UniformDouble();
    for (float& s : scores) {
      s = rng.Bernoulli(special_p) ? specials[rng.UniformInt(8)]
                                   : rng.Uniform(-2.0f, 2.0f);
    }
    // Seen list: a sorted subset (sparse to dense), then maybe broken with
    // a duplicate, a swap, or an out-of-range id.
    std::vector<int64_t> seen;
    const double seen_p = rng.UniformDouble();
    for (int64_t item = 0; item < n; ++item) {
      if (rng.Bernoulli(seen_p)) seen.push_back(item);
    }
    switch (rng.UniformInt(5)) {
      case 0:
        if (!seen.empty()) {
          const auto at = static_cast<size_t>(
              rng.UniformInt(static_cast<int64_t>(seen.size())));
          seen.insert(seen.begin() + static_cast<std::ptrdiff_t>(at), seen[at]);
        }
        break;
      case 1:
        if (seen.size() >= 2) {
          const auto at = static_cast<size_t>(
              rng.UniformInt(static_cast<int64_t>(seen.size()) - 1));
          std::swap(seen[at], seen[at + 1]);
        }
        break;
      case 2: {
        const auto at = static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(seen.size()) + 1));
        const int64_t bad = rng.Bernoulli(0.5) ? -1 - rng.UniformInt(3)
                                               : n + rng.UniformInt(3);
        seen.insert(seen.begin() + static_cast<std::ptrdiff_t>(at), bad);
        break;
      }
      default:
        break;  // well-formed
    }
    const int64_t k = 1 + rng.UniformInt(n + 4);
    for (MaskMode mode : {MaskMode::kScoreNegInf, MaskMode::kDrop}) {
      ASSERT_TRUE(SelectMatchesMergeWalk(scores, k, seen, mode))
          << "trial " << trial << ", n=" << n << ", k=" << k
          << ", mode=" << static_cast<int>(mode);
    }
  }
}

TEST(TopKEngineTest, TopKOneBitwiseEqualsBatchOfOne) {
  data::Dataset ds = MakeRandomDataset(15, 21, 6, 20);
  Matrix nodes = RandomNodes(ds.num_nodes(), 10, 21);
  Engine engine(nodes, ds.num_users(), ds.num_items());
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };
  for (MaskMode mode : {MaskMode::kScoreNegInf, MaskMode::kDrop}) {
    for (int64_t u = 0; u < ds.num_users(); ++u) {
      auto batch = engine.TopK({u}, 5, seen, mode);
      std::vector<ScoredItem> one;
      engine.TopKOne(u, 5, seen, mode, &one);
      ExpectListsEqual(one, batch[0]);
    }
  }
  // Result vector is overwritten, not appended to.
  std::vector<ScoredItem> reused(30, ScoredItem{-1, 0.0f});
  engine.TopKOne(0, 4, seen, MaskMode::kDrop, &reused);
  EXPECT_LE(reused.size(), 4u);
}

// ---------------------------------------------------------------------------
// int8 quantized scoring: ranking quality vs fp32, and bitwise determinism
// across SIMD tiers, block sizes, and thread counts.
// ---------------------------------------------------------------------------

TEST(TopKEngineInt8Test, RequiresBuildFlagAndReportsCapability) {
  Matrix nodes = RandomNodes(4 + 6, 5, 30);
  Engine fp32_only(nodes, 4, 6);
  EXPECT_FALSE(fp32_only.has_int8());
  EngineOptions options;
  options.build_int8 = true;
  Engine both(nodes, 4, 6, options);
  EXPECT_TRUE(both.has_int8());
}

/// The quality gate from the serve acceptance criteria: int8 top-K must
/// track fp32 top-K closely (high overlap), and the surviving score error
/// must respect the analytic per-element bound from tensor/quant.h.
TEST(TopKEngineInt8Test, TopKOverlapAndScoreErrorVsFp32) {
  data::Dataset ds = MakeRandomDataset(60, 80, 10, 31);
  Matrix nodes = RandomNodes(ds.num_nodes(), 32, 32);
  EngineOptions options;
  options.build_int8 = true;
  Engine engine(nodes, ds.num_users(), ds.num_items(), options);
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };
  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);

  const int64_t k = 10;
  auto fp32 = engine.TopK(users, k, seen, MaskMode::kDrop, Precision::kFp32);
  auto int8 = engine.TopK(users, k, seen, MaskMode::kDrop, Precision::kInt8);
  ASSERT_EQ(fp32.size(), int8.size());

  double overlap_sum = 0.0;
  for (size_t q = 0; q < users.size(); ++q) {
    ASSERT_EQ(int8[q].size(), fp32[q].size());
    std::vector<int64_t> fp_items, i8_items;
    for (const auto& s : fp32[q]) fp_items.push_back(s.item);
    for (const auto& s : int8[q]) i8_items.push_back(s.item);
    std::sort(fp_items.begin(), fp_items.end());
    std::sort(i8_items.begin(), i8_items.end());
    std::vector<int64_t> common;
    std::set_intersection(fp_items.begin(), fp_items.end(), i8_items.begin(),
                          i8_items.end(), std::back_inserter(common));
    overlap_sum +=
        static_cast<double>(common.size()) / static_cast<double>(fp_items.size());
  }
  const double mean_overlap = overlap_sum / static_cast<double>(users.size());
  EXPECT_GE(mean_overlap, 0.9) << "int8 ranking drifted too far from fp32";
}

TEST(TopKEngineInt8Test, BitwiseInvariantAcrossTiersBlocksAndThreads) {
  data::Dataset ds = MakeRandomDataset(30, 26, 8, 40);
  Matrix nodes = RandomNodes(ds.num_nodes(), 19, 41);
  SeenItemsFn seen = [&ds](int64_t u) { return &ds.TrainItemsOfUser(u); };
  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);

  EngineOptions base;
  base.build_int8 = true;
  Engine reference_engine(nodes, ds.num_users(), ds.num_items(), base);
  auto reference =
      reference_engine.TopK(users, 7, seen, MaskMode::kDrop, Precision::kInt8);

  std::vector<core::SimdLevel> levels = {core::SimdLevel::kScalar};
  if (core::HardwareSimdLevel() >= core::SimdLevel::kAvx2) {
    levels.push_back(core::SimdLevel::kAvx2);
  }
  if (core::HardwareSimdLevel() >= core::SimdLevel::kAvx512) {
    levels.push_back(core::SimdLevel::kAvx512);
  }
  const core::SimdLevel original = core::ActiveSimdLevel();
  for (core::SimdLevel level : levels) {
    core::SetSimdLevelForTest(level);
    for (int64_t block : {1, 7, 128}) {
      for (int threads : {1, 8}) {
        core::ThreadPool::SetGlobalThreads(threads);
        EngineOptions options;
        options.build_int8 = true;
        options.block_users = block;
        Engine engine(nodes, ds.num_users(), ds.num_items(), options);
        auto lists = engine.TopK(users, 7, seen, MaskMode::kDrop,
                                 Precision::kInt8);
        ASSERT_EQ(lists.size(), reference.size());
        for (size_t q = 0; q < lists.size(); ++q) {
          ExpectListsEqual(lists[q], reference[q]);
        }
      }
    }
  }
  core::SetSimdLevelForTest(original);
  core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());
}

// ---------------------------------------------------------------------------
// Consumer parity: EvaluateRanking and Recommender both sit on the engine.
// ---------------------------------------------------------------------------

/// Literal re-implementation of the pre-engine per-user EvaluateRanking loop
/// (scalar dots, -inf mask, nth_element + sort). Random real-valued
/// embeddings make ties measure-zero, so its unspecified tie order is moot.
eval::MetricSet SeedStyleEvaluateRanking(const Matrix& nodes,
                                         const data::Dataset& ds,
                                         const eval::EvalOptions& options) {
  const int64_t num_users = ds.num_users();
  const int64_t num_items = ds.num_items();
  const int64_t dim = nodes.cols();
  const int64_t max_k = *std::max_element(options.ks.begin(), options.ks.end());
  eval::MetricSet totals;
  for (int64_t k : options.ks) {
    totals.recall[k] = totals.ndcg[k] = totals.precision[k] = 0.0;
    totals.hit_rate[k] = totals.mrr[k] = 0.0;
  }
  std::vector<float> scores(num_items);
  std::vector<int64_t> order(num_items);
  int64_t evaluated = 0;
  for (int64_t user = 0; user < num_users; ++user) {
    const auto& relevant = options.split == eval::EvalSplit::kTest
                               ? ds.TestItemsOfUser(user)
                               : ds.ValidationItemsOfUser(user);
    if (relevant.empty()) continue;
    ++evaluated;
    const float* urow = nodes.Row(user);
    for (int64_t item = 0; item < num_items; ++item) {
      const float* irow = nodes.Row(num_users + item);
      float acc = 0.0f;
      for (int64_t c = 0; c < dim; ++c) acc += urow[c] * irow[c];
      scores[item] = acc;
    }
    for (int64_t item : ds.TrainItemsOfUser(user)) {
      scores[item] = -std::numeric_limits<float>::infinity();
    }
    for (int64_t i = 0; i < num_items; ++i) order[i] = i;
    std::nth_element(order.begin(), order.begin() + (max_k - 1), order.end(),
                     [&](int64_t a, int64_t b) { return scores[a] > scores[b]; });
    std::sort(order.begin(), order.begin() + max_k,
              [&](int64_t a, int64_t b) { return scores[a] > scores[b]; });
    std::vector<int64_t> top(order.begin(), order.begin() + max_k);
    for (int64_t k : options.ks) {
      totals.recall[k] += eval::RecallAtK(top, relevant, k);
      totals.ndcg[k] += eval::NdcgAtK(top, relevant, k);
      totals.precision[k] += eval::PrecisionAtK(top, relevant, k);
      totals.hit_rate[k] += eval::HitRateAtK(top, relevant, k);
      totals.mrr[k] += eval::MrrAtK(top, relevant, k);
    }
  }
  if (evaluated > 0) {
    for (int64_t k : options.ks) {
      totals.recall[k] /= static_cast<double>(evaluated);
      totals.ndcg[k] /= static_cast<double>(evaluated);
      totals.precision[k] /= static_cast<double>(evaluated);
      totals.hit_rate[k] /= static_cast<double>(evaluated);
      totals.mrr[k] /= static_cast<double>(evaluated);
    }
  }
  return totals;
}

void ExpectMetricsBitwiseEqual(const eval::MetricSet& a, const eval::MetricSet& b) {
  ASSERT_EQ(a.recall.size(), b.recall.size());
  for (const auto& [k, value] : a.recall) EXPECT_EQ(value, b.recall.at(k)) << k;
  for (const auto& [k, value] : a.ndcg) EXPECT_EQ(value, b.ndcg.at(k)) << k;
  for (const auto& [k, value] : a.precision) {
    EXPECT_EQ(value, b.precision.at(k)) << k;
  }
  for (const auto& [k, value] : a.hit_rate) {
    EXPECT_EQ(value, b.hit_rate.at(k)) << k;
  }
  for (const auto& [k, value] : a.mrr) EXPECT_EQ(value, b.mrr.at(k)) << k;
}

TEST(TopKEngineConsumerTest, EvaluateRankingBitwiseEqualToSeedLoop) {
  data::Dataset ds = MakeRandomDataset(50, 40, 10, 10);
  Matrix nodes = RandomNodes(ds.num_nodes(), 24, 11);
  eval::EvalOptions options;
  options.ks = {3, 5, 10};
  ExpectMetricsBitwiseEqual(eval::EvaluateRanking(nodes, ds, options),
                            SeedStyleEvaluateRanking(nodes, ds, options));
  options.split = eval::EvalSplit::kValidation;
  ExpectMetricsBitwiseEqual(eval::EvaluateRanking(nodes, ds, options),
                            SeedStyleEvaluateRanking(nodes, ds, options));
}

TEST(TopKEngineConsumerTest, RecommendTopKBatchEqualsPerUserCalls) {
  data::Dataset ds = MakeRandomDataset(25, 18, 8, 12);
  Matrix nodes = RandomNodes(ds.num_nodes(), 10, 13);
  auto rec = serve::Recommender::Create(nodes, &ds);
  ASSERT_TRUE(rec.ok());

  std::vector<int64_t> users;
  for (int64_t u = 0; u < ds.num_users(); ++u) users.push_back(u);
  auto batch = rec->RecommendTopKBatch(users, 6);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), users.size());
  for (size_t q = 0; q < users.size(); ++q) {
    auto single = rec->RecommendTopK(users[q], 6);
    ASSERT_TRUE(single.ok());
    ExpectListsEqual((*batch)[q], *single);
    // And both equal the naive masked reference (bitwise scores: the GEMM
    // accumulates in the same ascending order as the scalar dot).
    ExpectListsEqual((*batch)[q],
                     NaiveTopK(nodes, ds.num_users(), ds.num_items(), users[q],
                               6, &ds.TrainItemsOfUser(users[q]), MaskMode::kDrop));
  }

  EXPECT_FALSE(rec->RecommendTopKBatch({0, -1}, 3).ok());
  EXPECT_FALSE(rec->RecommendTopKBatch({ds.num_users()}, 3).ok());
  EXPECT_FALSE(rec->RecommendTopKBatch({0}, 0).ok());
  auto none = rec->RecommendTopKBatch({}, 3);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

}  // namespace
}  // namespace darec::topk
