#include "collections/smart_map.h"

#include <algorithm>
#include <bit>

#include "common/macros.h"
#include "common/random.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::collections {

SmartMap::SmartMap(std::span<const std::pair<uint64_t, uint64_t>> pairs,
                   const smart::PlacementSpec& placement, const platform::Topology& topology,
                   double load_factor) {
  SA_CHECK_MSG(!pairs.empty(), "smart maps cannot be empty");
  SA_CHECK_MSG(load_factor > 0.0 && load_factor <= 0.9, "load factor in (0, 0.9]");

  capacity_ = std::bit_ceil(
      std::max<uint64_t>(8, static_cast<uint64_t>(pairs.size() / load_factor) + 1));

  uint64_t max_key = 0;
  uint64_t max_value = 0;
  for (const auto& [k, v] : pairs) {
    max_key = std::max(max_key, k);
    max_value = std::max(max_value, v);
  }

  // Build into plain staging first (duplicates overwrite), then pack.
  std::vector<uint64_t> staged_occupied(capacity_, 0);
  std::vector<uint64_t> staged_keys(capacity_, 0);
  std::vector<uint64_t> staged_values(capacity_, 0);
  uint64_t total_probes = 0;
  for (const auto& [k, v] : pairs) {
    uint64_t slot = SlotOf(k);
    uint64_t probes = 1;
    while (staged_occupied[slot] && staged_keys[slot] != k) {
      slot = (slot + 1) & (capacity_ - 1);
      ++probes;
      SA_DCHECK(probes <= capacity_);
    }
    if (!staged_occupied[slot]) {
      ++size_;
    }
    staged_occupied[slot] = 1;
    staged_keys[slot] = k;
    staged_values[slot] = v;
    total_probes += probes;
    max_probe_length_ = std::max(max_probe_length_, probes);
  }
  avg_probe_length_ = static_cast<double>(total_probes) / static_cast<double>(pairs.size());

  occupied_ = smart::SmartArray::Allocate(capacity_, placement, 1, topology);
  keys_ = smart::SmartArray::Allocate(capacity_, placement, BitsForValue(max_key), topology);
  values_ =
      smart::SmartArray::Allocate(capacity_, placement, BitsForValue(max_value), topology);
  smart::PackRange(*occupied_, 0, capacity_, staged_occupied.data());
  smart::PackRange(*keys_, 0, capacity_, staged_keys.data());
  smart::PackRange(*values_, 0, capacity_, staged_values.data());
}

uint64_t SmartMap::SlotOf(uint64_t key) const { return SplitMix64(key) & (capacity_ - 1); }

std::optional<uint64_t> SmartMap::Get(uint64_t key, int socket) const {
  const uint64_t* occ = occupied_->GetReplica(socket);
  const uint64_t* keys = keys_->GetReplica(socket);
  const auto& occ_codec = smart::CodecFor(1);
  const auto& key_codec = smart::CodecFor(keys_->bits());
  uint64_t slot = SlotOf(key);
  while (occ_codec.get(occ, slot) != 0) {
    if (key_codec.get(keys, slot) == key) {
      return smart::CodecFor(values_->bits()).get(values_->GetReplica(socket), slot);
    }
    slot = (slot + 1) & (capacity_ - 1);
  }
  return std::nullopt;
}

uint64_t SmartMap::footprint_bytes() const {
  return occupied_->footprint_bytes() + keys_->footprint_bytes() + values_->footprint_bytes();
}

}  // namespace sa::collections
