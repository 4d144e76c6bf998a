#include "topk/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/check.h"
#include "core/thread_pool.h"
#include "tensor/workspace.h"

namespace darec::topk {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// The engine-wide ranking order: score descending, item id ascending.
/// A functor (not a function pointer) so the heap and the per-item fast
/// path inline it.
struct RanksBefore {
  bool operator()(const ScoredItem& a, const ScoredItem& b) const {
    return a.score != b.score ? a.score > b.score : a.item < b.item;
  }
};

// Rows per ParallelFor chunk for the per-row select (O(num_items) work/row).
int64_t SelectGrain(int64_t num_items) {
  constexpr int64_t kTargetWorkPerChunk = 1 << 16;
  return std::max<int64_t>(1, kTargetWorkPerChunk / std::max<int64_t>(1, num_items));
}

}  // namespace

void SelectTopK(const float* scores, int64_t num_items, int64_t k,
                ItemSpan seen, MaskMode mask_mode,
                std::vector<ScoredItem>& out) {
  constexpr RanksBefore ranks_before{};
  DARE_CHECK_GT(k, 0);
  out.clear();
  size_t seen_pos = 0;
  const size_t seen_size = seen.count;
  int64_t item = 0;
  // Fill: the plain merge walk until the heap holds k items (masked items
  // enter as -inf under kScoreNegInf; they can pad a short list).
  for (; item < num_items && static_cast<int64_t>(out.size()) < k; ++item) {
    float score = scores[item];
    if (seen_pos < seen_size && seen[seen_pos] == item) {
      ++seen_pos;
      if (mask_mode == MaskMode::kDrop) continue;
      score = kNegInf;
    }
    out.push_back({item, score});
    std::push_heap(out.begin(), out.end(), ranks_before);
  }
  if (item == num_items) {
    std::sort(out.begin(), out.end(), ranks_before);
    return;
  }
  // Threshold scan. Every later candidate has a larger id than anything in
  // the heap, so RanksBefore(candidate, root) reduces to `score > root
  // score` (false for NaN on either side, false on a tie): items that fail
  // that test are skipped without touching the heap, and the heap sees the
  // exact push/pop sequence of the plain walk.
  float threshold = out.front().score;
  while (item < num_items) {
    // The merge walk's next match. A seen id behind the cursor (duplicate
    // or unsorted) stalls the walk for good, and one at or past num_items
    // is never reached: both end masking.
    int64_t stop = num_items;
    if (seen_pos < seen_size && seen[seen_pos] >= item &&
        seen[seen_pos] < num_items) {
      stop = seen[seen_pos];
    }
    for (; item < stop; ++item) {
      if (scores[item] > threshold) {
        std::pop_heap(out.begin(), out.end(), ranks_before);
        out.back() = ScoredItem{item, scores[item]};
        std::push_heap(out.begin(), out.end(), ranks_before);
        threshold = out.front().score;
      }
    }
    if (stop < num_items) {
      // The masked item: dropped, or offered at -inf, which never beats a
      // full heap's root.
      ++seen_pos;
      ++item;
    }
  }
  std::sort(out.begin(), out.end(), ranks_before);
}

Engine::Engine(const tensor::Matrix& node_embeddings, int64_t num_users,
               int64_t num_items, const EngineOptions& options)
    : nodes_(&node_embeddings),
      num_users_(num_users),
      num_items_(num_items),
      options_(options) {
  DARE_CHECK_GE(num_users_, 0);
  DARE_CHECK_GE(num_items_, 0);
  DARE_CHECK_EQ(nodes_->rows(), num_users_ + num_items_)
      << "node embeddings must hold user rows then item rows";
  options_.block_users = std::max<int64_t>(1, options_.block_users);
  const int64_t dim = nodes_->cols();
  tensor::Matrix items(num_items_, dim);
  for (int64_t i = 0; i < num_items_; ++i) {
    items.CopyRowFrom(*nodes_, num_users_ + i, i);
  }
  items_t_ = tensor::Transpose(items);
  item_norms_ = tensor::RowNorms(items);
  if (options_.build_int8) {
    users_q8_ = tensor::QuantizeRowsInt8(*nodes_, 0, num_users_);
    items_q8_ = tensor::QuantizeRowsInt8(*nodes_, num_users_, num_items_);
  }
}

void Engine::ScoreAndSelectBlock(
    const std::vector<int64_t>& users, int64_t b0, int64_t b1, int64_t take,
    const SeenItemsFn& seen, MaskMode mask_mode, Precision precision,
    std::vector<std::vector<ScoredItem>>* lists) const {
  const int64_t rows = b1 - b0;
  const int64_t dim = nodes_->cols();
  tensor::Workspace& ws = tensor::Workspace::Global();
  tensor::ScratchMatrix scores(ws, rows * num_items_);
  if (precision == Precision::kFp32) {
    // One blocked GEMM scores the whole block against every item; the inner
    // accumulation order (ascending p in float) matches a scalar per-item
    // dot, so scores are bitwise identical to the per-user loops this
    // replaced — and independent of the batch the user arrived in.
    tensor::ScratchMatrix block(ws, rows * dim);
    block->ResetShape(rows, dim);
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t user = users[static_cast<size_t>(b0 + r)];
      DARE_CHECK(user >= 0 && user < num_users_) << "bad user id: " << user;
      block->CopyRowFrom(*nodes_, user, r);
    }
    tensor::MatMulInto(*block, items_t_, false, false, scores.get());
  } else {
    DARE_CHECK(has_int8())
        << "Precision::kInt8 requires EngineOptions::build_int8";
    // Gather the quantized query rows; scoring runs the int32-accumulate
    // GEMM on the dispatched SIMD tiers. The gather buffers persist per
    // thread so a warm serving loop stays allocation-free.
    thread_local std::vector<int8_t> qrows;
    thread_local std::vector<float> qscales;
    if (static_cast<int64_t>(qrows.size()) < rows * dim) {
      qrows.resize(static_cast<size_t>(rows * dim));
    }
    if (static_cast<int64_t>(qscales.size()) < rows) {
      qscales.resize(static_cast<size_t>(rows));
    }
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t user = users[static_cast<size_t>(b0 + r)];
      DARE_CHECK(user >= 0 && user < num_users_) << "bad user id: " << user;
      std::memcpy(qrows.data() + r * dim, users_q8_.Row(user),
                  static_cast<size_t>(dim));
      qscales[static_cast<size_t>(r)] =
          users_q8_.scales[static_cast<size_t>(user)];
    }
    tensor::Int8ScoreBlockInto(qrows.data(), qscales.data(), rows, items_q8_,
                               scores.get());
  }
  core::ParallelFor(0, rows, SelectGrain(num_items_),
                    [&](int64_t lo, int64_t hi) {
                      for (int64_t r = lo; r < hi; ++r) {
                        const int64_t user = users[static_cast<size_t>(b0 + r)];
                        SelectTopK(scores->Row(r), num_items_, take,
                                   seen ? seen(user) : ItemSpan(), mask_mode,
                                   (*lists)[static_cast<size_t>(b0 + r)]);
                      }
                    });
}

std::vector<std::vector<ScoredItem>> Engine::TopK(
    const std::vector<int64_t>& users, int64_t k, const SeenItemsFn& seen,
    MaskMode mask_mode, Precision precision) const {
  DARE_CHECK_GT(k, 0);
  const int64_t num_queries = static_cast<int64_t>(users.size());
  std::vector<std::vector<ScoredItem>> lists(static_cast<size_t>(num_queries));
  if (num_queries == 0 || num_items_ == 0) return lists;
  const int64_t take = ClampK(k, num_items_);
  for (int64_t b0 = 0; b0 < num_queries; b0 += options_.block_users) {
    const int64_t b1 = std::min(num_queries, b0 + options_.block_users);
    ScoreAndSelectBlock(users, b0, b1, take, seen, mask_mode, precision,
                        &lists);
  }
  return lists;
}

void Engine::TopKOne(int64_t user, int64_t k, const SeenItemsFn& seen,
                     MaskMode mask_mode, std::vector<ScoredItem>* out,
                     Precision precision) const {
  DARE_CHECK_GT(k, 0);
  DARE_CHECK(user >= 0 && user < num_users_) << "bad user id: " << user;
  out->clear();
  if (num_items_ == 0) return;
  const int64_t take = ClampK(k, num_items_);
  const int64_t dim = nodes_->cols();
  tensor::Workspace& ws = tensor::Workspace::Global();
  tensor::ScratchMatrix scores(ws, num_items_);
  if (precision == Precision::kFp32) {
    tensor::ScratchMatrix row(ws, dim);
    row->ResetShape(1, dim);
    row->CopyRowFrom(*nodes_, user, 0);
    tensor::MatMulInto(*row, items_t_, false, false, scores.get());
  } else {
    DARE_CHECK(has_int8())
        << "Precision::kInt8 requires EngineOptions::build_int8";
    tensor::Int8ScoreBlockInto(
        users_q8_.Row(user), &users_q8_.scales[static_cast<size_t>(user)], 1,
        items_q8_, scores.get());
  }
  SelectTopK(scores->Row(0), num_items_, take,
             seen ? seen(user) : ItemSpan(), mask_mode, *out);
}

}  // namespace darec::topk
