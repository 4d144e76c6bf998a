#ifndef E2EBENCH_COUNTING_STORE_H_
#define E2EBENCH_COUNTING_STORE_H_

#include <cstdint>

#include "data/interactions.h"
#include "trace.h"

namespace e2e {

/// InteractionStore decorator that counts block fetches and records a
/// "data.fetch_block" span around each (when tracing is on). Everything
/// else forwards unchanged, so the trainer streams exactly what it would
/// from the wrapped store.
class CountingStore final : public darec::data::InteractionStore {
 public:
  explicit CountingStore(const darec::data::InteractionStore* inner) : inner_(inner) {}

  int64_t num_users() const override { return inner_->num_users(); }
  int64_t num_items() const override { return inner_->num_items(); }
  int64_t nnz() const override { return inner_->nnz(); }
  int64_t num_blocks() const override { return inner_->num_blocks(); }
  int64_t block_row_begin(int64_t block) const override {
    return inner_->block_row_begin(block);
  }
  int64_t block_row_end(int64_t block) const override {
    return inner_->block_row_end(block);
  }
  int64_t block_nnz(int64_t block) const override { return inner_->block_nnz(block); }
  bool rows_sorted() const override { return inner_->rows_sorted(); }
  darec::core::StatusOr<darec::data::RowBlockView> FetchBlock(
      int64_t block) const override {
    Span span("data.fetch_block");
    ++fetches_;
    return inner_->FetchBlock(block);
  }

  int64_t fetches() const { return fetches_; }

 private:
  const darec::data::InteractionStore* inner_;
  mutable int64_t fetches_ = 0;  // single reader, per the store contract
};

}  // namespace e2e

#endif  // E2EBENCH_COUNTING_STORE_H_
