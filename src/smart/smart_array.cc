#include "smart/smart_array.h"

#include <array>
#include <utility>

#include "platform/affinity.h"
#include "smart/bit_compressed_array.h"

namespace sa::smart {
namespace {

// Maps a placement to the page policy + home socket of one backing region.
platform::PagePolicy RegionPolicy(const PlacementSpec& placement, int replica,
                                  int* home_socket) {
  switch (placement.kind) {
    case Placement::kOsDefault:
      *home_socket = placement.socket;
      return platform::PagePolicy::kOsDefault;
    case Placement::kSingleSocket:
      *home_socket = placement.socket;
      return platform::PagePolicy::kPinned;
    case Placement::kInterleaved:
      *home_socket = 0;
      return platform::PagePolicy::kInterleaved;
    case Placement::kReplicated:
      *home_socket = replica;  // replica r lives on socket r
      return platform::PagePolicy::kPinned;
  }
  *home_socket = 0;
  return platform::PagePolicy::kOsDefault;
}

using Creator = std::unique_ptr<SmartArray> (*)(uint64_t, PlacementSpec,
                                                const platform::Topology&);

template <size_t... I>
constexpr std::array<Creator, 65> MakeCreatorTable(std::index_sequence<I...>) {
  std::array<Creator, 65> table{};
  ((table[I + 1] = +[](uint64_t length, PlacementSpec placement,
                       const platform::Topology& topology) -> std::unique_ptr<SmartArray> {
     return std::make_unique<BitCompressedArray<I + 1>>(length, placement, topology);
   }),
   ...);
  return table;
}

constexpr std::array<Creator, 65> kCreators = MakeCreatorTable(std::make_index_sequence<64>{});

}  // namespace

SmartArray::SmartArray(uint64_t length, PlacementSpec placement, uint32_t bits,
                       const platform::Topology& topology)
    : SmartArray(length, placement, bits, bits,
                 (length + kChunkElems - 1) / kChunkElems * WordsPerChunk(bits), topology) {}

SmartArray::SmartArray(uint64_t length, PlacementSpec placement, uint32_t bits,
                       uint32_t storage_bits, uint64_t words, const platform::Topology& topology)
    : length_(length),
      bits_(bits),
      storage_bits_(storage_bits),
      words_per_replica_(words),
      placement_(placement),
      num_sockets_(topology.num_sockets()),
      topology_(topology) {
  SA_CHECK_MSG(length > 0, "smart arrays cannot be empty");
  SA_CHECK_MSG(bits >= 1 && bits <= 64, "bit width must be 1..64");
  SA_CHECK_MSG(storage_bits >= 1 && storage_bits <= 64, "storage width must be 1..64");
  if (placement.kind == Placement::kSingleSocket || placement.kind == Placement::kOsDefault) {
    SA_CHECK_MSG(placement.socket >= 0 && placement.socket < num_sockets_,
                 "placement socket out of range");
  }

  const uint64_t chunks = (length + kChunkElems - 1) / kChunkElems;
  const uint64_t bytes = words * sizeof(uint64_t);
  const int replicas = placement.kind == Placement::kReplicated ? num_sockets_ : 1;
  regions_.reserve(replicas);
  replica_ptrs_.reserve(replicas);
  for (int r = 0; r < replicas; ++r) {
    int home = 0;
    const platform::PagePolicy policy = RegionPolicy(placement, r, &home);
    regions_.emplace_back(bytes, policy, home, topology);
    replica_ptrs_.push_back(static_cast<uint64_t*>(regions_.back().data()));
  }

  // Value-initialized atomics: [0, 0] per chunk, the exact bounds of the
  // zero-filled fresh allocation (MappedRegion memory is zeroed).
  zone_min_ = std::make_unique<std::atomic<uint64_t>[]>(chunks);
  zone_max_ = std::make_unique<std::atomic<uint64_t>[]>(chunks);
}

const char* ToString(Encoding encoding) {
  switch (encoding) {
    case Encoding::kBitPacked:
      return "bit-packed";
    case Encoding::kForDelta:
      return "for-delta";
    case Encoding::kDictionary:
      return "dictionary";
    case Encoding::kRunLength:
      return "run-length";
  }
  return "?";
}

void SmartArray::CopyZoneMapFrom(const SmartArray& src) {
  SA_DCHECK(src.num_chunks() == num_chunks());
  const uint64_t chunks = num_chunks();
  for (uint64_t c = 0; c < chunks; ++c) {
    zone_min_[c].store(src.zone_min_[c].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    zone_max_[c].store(src.zone_max_[c].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
}

const uint64_t* SmartArray::GetReplicaForCurrentThread() const {
  if (!replicated()) {
    return replica_ptrs_[0];
  }
  // Resolve through the CPU the thread runs on; Callisto workers are pinned,
  // so this is stable for the duration of a loop. Unknown CPUs (synthetic
  // topologies) fall back to replica 0, which is always a valid copy.
  const int socket = topology_.is_host() ? topology_.SocketOfCpu(platform::CurrentCpu()) : -1;
  return GetReplica(socket >= 0 ? socket : 0);
}

bool SmartArray::allocation_ok() const {
  for (const platform::MappedRegion& region : regions_) {
    if (!region.valid()) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<SmartArray> SmartArray::Allocate(uint64_t length, PlacementSpec placement,
                                                 uint32_t bits,
                                                 const platform::Topology& topology) {
  auto array = TryAllocate(length, placement, bits, topology);
  SA_CHECK_MSG(array != nullptr, "smart-array replica allocation failed");
  return array;
}

std::unique_ptr<SmartArray> SmartArray::TryAllocate(uint64_t length, PlacementSpec placement,
                                                    uint32_t bits,
                                                    const platform::Topology& topology) {
  SA_CHECK_MSG(bits >= 1 && bits <= 64, "bit width must be 1..64");
  auto array = kCreators[bits](length, placement, topology);
  if (!array->allocation_ok()) {
    return nullptr;
  }
  return array;
}

}  // namespace sa::smart
