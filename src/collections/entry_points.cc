#include "collections/entry_points.h"

#include <span>

#include "collections/smart_map.h"
#include "collections/smart_set.h"
#include "common/macros.h"
#include "encodings/encoding.h"
#include "smart/entry_points.h"
#include "smart/restructure.h"

namespace {

using sa::collections::SetLayout;
using sa::collections::SmartMap;
using sa::collections::SmartSet;
using sa::smart::Encoding;

sa::smart::PlacementSpec PlacementFromFlags(int replicated, int interleaved, int pinned) {
  SA_CHECK_MSG(!(replicated && interleaved), "data placements cannot be combined");
  SA_CHECK_MSG(!((replicated || interleaved) && pinned >= 0),
               "data placements cannot be combined");
  if (replicated) {
    return sa::smart::PlacementSpec::Replicated();
  }
  if (interleaved) {
    return sa::smart::PlacementSpec::Interleaved();
  }
  if (pinned >= 0) {
    return sa::smart::PlacementSpec::SingleSocket(pinned);
  }
  return sa::smart::PlacementSpec::OsDefault();
}

// Entry-point allocations resolve the topology exactly as saArrayAllocate
// does: synthesize it through the smart-array C ABI to share the default.
sa::platform::Topology CurrentTopology() {
  const int sockets = saGetNumSockets();
  // The default topology is either the host's or a synthetic one; rebuild an
  // equivalent logical view (collections only need the socket structure).
  const auto host = sa::platform::Topology::Host();
  if (host.num_sockets() == sockets) {
    return host;
  }
  return sa::platform::Topology::Synthetic(sockets, 1);
}

}  // namespace

extern "C" {

void* saEncodedCreate(const uint64_t* values, uint64_t length, int encoding, int replicated,
                      int interleaved, int pinned) {
  SA_CHECK(values != nullptr && length > 0);
  SA_CHECK_MSG(encoding >= -1 && encoding <= 3, "unknown encoding id");
  const std::span<const uint64_t> span(values, length);
  const Encoding chosen = encoding >= 0
                              ? static_cast<Encoding>(encoding)
                              : sa::encodings::ChooseEncoding(sa::encodings::AnalyzeValues(span));
  return sa::smart::Encode(span, chosen, PlacementFromFlags(replicated, interleaved, pinned),
                           CurrentTopology())
      .release();
}

int saEncodedKind(const void* sa) {
  return static_cast<int>(static_cast<const sa::smart::SmartArray*>(sa)->encoding());
}

void* saSetCreate(const uint64_t* values, uint64_t length, int layout, int replicated,
                  int interleaved, int pinned) {
  SA_CHECK(values != nullptr && length > 0);
  SA_CHECK_MSG(layout == 0 || layout == 1, "unknown set layout");
  const auto topo = CurrentTopology();
  return new SmartSet(std::span<const uint64_t>(values, length),
                      layout == 0 ? SetLayout::kSorted : SetLayout::kEytzinger,
                      PlacementFromFlags(replicated, interleaved, pinned), topo);
}

void saSetFree(void* set) { delete static_cast<SmartSet*>(set); }

uint64_t saSetSize(const void* set) { return static_cast<const SmartSet*>(set)->size(); }

int saSetContains(const void* set, uint64_t value) {
  return static_cast<const SmartSet*>(set)->Contains(value) ? 1 : 0;
}

uint64_t saSetFootprintBytes(const void* set) {
  return static_cast<const SmartSet*>(set)->footprint_bytes();
}

void* saMapCreate(const uint64_t* keys, const uint64_t* values, uint64_t length,
                  int replicated, int interleaved, int pinned) {
  SA_CHECK(keys != nullptr && values != nullptr && length > 0);
  std::vector<std::pair<uint64_t, uint64_t>> pairs(length);
  for (uint64_t i = 0; i < length; ++i) {
    pairs[i] = {keys[i], values[i]};
  }
  const auto topo = CurrentTopology();
  return new SmartMap(pairs, PlacementFromFlags(replicated, interleaved, pinned), topo);
}

void saMapFree(void* map) { delete static_cast<SmartMap*>(map); }

uint64_t saMapSize(const void* map) { return static_cast<const SmartMap*>(map)->size(); }

int saMapGet(const void* map, uint64_t key, uint64_t* out) {
  const auto result = static_cast<const SmartMap*>(map)->Get(key);
  if (!result.has_value()) {
    return 0;
  }
  *out = *result;
  return 1;
}

}  // extern "C"
