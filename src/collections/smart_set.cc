#include "collections/smart_set.h"

#include <algorithm>

#include "common/macros.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::collections {
namespace {

// Fills out[k] (1-based Eytzinger positions 1..n stored at 0..n-1) from the
// sorted input via in-order traversal of the implicit complete tree.
void BuildEytzinger(std::span<const uint64_t> sorted, uint64_t k, uint64_t* cursor,
                    std::vector<uint64_t>* out) {
  if (k > sorted.size()) {
    return;
  }
  BuildEytzinger(sorted, 2 * k, cursor, out);
  (*out)[k - 1] = sorted[(*cursor)++];
  BuildEytzinger(sorted, 2 * k + 1, cursor, out);
}

uint32_t MinBits(std::span<const uint64_t> values) {
  uint64_t max_value = 0;
  for (const uint64_t v : values) {
    max_value = std::max(max_value, v);
  }
  return BitsForValue(max_value);
}

}  // namespace

const char* ToString(SetLayout layout) {
  switch (layout) {
    case SetLayout::kSorted:
      return "sorted";
    case SetLayout::kEytzinger:
      return "eytzinger";
  }
  return "?";
}

SmartSet::SmartSet(std::span<const uint64_t> values, SetLayout layout,
                   const smart::PlacementSpec& placement, const platform::Topology& topology)
    : layout_(layout) {
  SA_CHECK_MSG(!values.empty(), "smart sets cannot be empty");
  std::vector<uint64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  size_ = sorted.size();

  std::vector<uint64_t> stored;
  if (layout == SetLayout::kSorted) {
    stored = std::move(sorted);
  } else {
    stored.resize(sorted.size());
    uint64_t cursor = 0;
    BuildEytzinger(sorted, 1, &cursor, &stored);
  }

  data_ = smart::SmartArray::Allocate(size_, placement, MinBits(stored), topology);
  smart::PackRange(*data_, 0, size_, stored.data());
}

bool SmartSet::Contains(uint64_t value, int socket) const {
  const uint64_t* replica = data_->GetReplica(socket);
  const auto& codec = smart::CodecFor(data_->bits());
  if (layout_ == SetLayout::kSorted) {
    uint64_t lo = 0;
    uint64_t hi = size_;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      const uint64_t elem = codec.get(replica, mid);
      if (elem == value) {
        return true;
      }
      if (elem < value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return false;
  }
  // Eytzinger: 1-based heap navigation, stored 0-based.
  uint64_t k = 1;
  while (k <= size_) {
    const uint64_t elem = codec.get(replica, k - 1);
    if (elem == value) {
      return true;
    }
    k = 2 * k + (elem < value ? 1 : 0);
  }
  return false;
}

uint64_t SmartSet::CountRange(uint64_t lo_value, uint64_t hi_value, int socket) const {
  SA_CHECK_MSG(layout_ == SetLayout::kSorted, "CountRange requires the sorted layout");
  if (lo_value > hi_value) {
    return 0;
  }
  const uint64_t* replica = data_->GetReplica(socket);
  const auto& codec = smart::CodecFor(data_->bits());
  auto lower_bound = [&](uint64_t value) {
    uint64_t lo = 0;
    uint64_t hi = size_;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (codec.get(replica, mid) < value) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const uint64_t first = lower_bound(lo_value);
  const uint64_t last = hi_value == ~uint64_t{0} ? size_ : lower_bound(hi_value + 1);
  return last - first;
}

std::vector<uint64_t> SmartSet::ToSortedVector(int socket) const {
  const uint64_t* replica = data_->GetReplica(socket);
  const auto& codec = smart::CodecFor(data_->bits());
  std::vector<uint64_t> out(size_);
  for (uint64_t i = 0; i < size_; ++i) {
    out[i] = codec.get(replica, i);
  }
  if (layout_ == SetLayout::kEytzinger) {
    std::sort(out.begin(), out.end());
  }
  return out;
}

}  // namespace sa::collections
