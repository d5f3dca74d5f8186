#include "data/row_storage.h"

#include <algorithm>
#include <utility>

namespace blinkml {

std::uint64_t RowStorage::CapacityBytes() const {
  return static_cast<std::uint64_t>(values.capacity() + labels.capacity()) *
             sizeof(double) +
         static_cast<std::uint64_t>(row_ptr.capacity() + col_idx.capacity()) *
             sizeof(SparseMatrix::Index);
}

RowStorage RowStoragePool::Borrow() {
  std::lock_guard<std::mutex> lock(mu_);
  // Room for every lent storage to come back, so that Return, which runs
  // in destructors, never reallocates.
  ++lent_;
  kept_.reserve(kept_.size() + static_cast<std::size_t>(lent_));
  if (kept_.empty()) return RowStorage();
  const auto largest = std::max_element(
      kept_.begin(), kept_.end(), [](const RowStorage& a, const RowStorage& b) {
        return a.CapacityBytes() < b.CapacityBytes();
      });
  RowStorage out = std::move(*largest);
  kept_.erase(largest);
  kept_bytes_.store(kept_bytes_.load(std::memory_order_relaxed) -
                        out.CapacityBytes(),
                    std::memory_order_relaxed);
  return out;
}

void RowStoragePool::Return(RowStorage storage) {
  const std::uint64_t bytes = storage.CapacityBytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (lent_ > 0) --lent_;
  if (bytes == 0) return;
  kept_.push_back(std::move(storage));
  kept_bytes_.store(kept_bytes_.load(std::memory_order_relaxed) + bytes,
                    std::memory_order_relaxed);
}

int RowStoragePool::kept_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(kept_.size());
}

}  // namespace blinkml
