// The alternative bounded map() API (paper §7): "This API will provide a
// bounded map() interface accepting a lambda and a range to apply it over.
// In comparison to the iterator API, the map interface can further improve
// performance as it does not stall on the branches."
//
// MapRange streams the range through the array's bulk decode
// (SmartArray::RangeUnpack) in stack blocks, so the per-element "new
// chunk?" test of the iterator disappears and every encoding takes the same
// path: whole chunks of a bit-packed array decode branch-free through the
// selected chunk decoder.
#ifndef SA_SMART_MAP_API_H_
#define SA_SMART_MAP_API_H_

#include <algorithm>

#include "common/bits.h"
#include "smart/smart_array.h"

namespace sa::smart {

// Applies fn(value, index) to every element of [begin, end), reading the
// replica of `socket`, 1,024 decoded elements at a time.
template <typename Fn>
void MapRange(const SmartArray& array, uint64_t begin, uint64_t end, int socket, Fn&& fn) {
  SA_CHECK(begin <= end && end <= array.length());
  const uint64_t* replica = array.GetReplica(socket);
  uint64_t buffer[16 * kChunkElems];
  for (uint64_t batch = begin; batch < end; batch += 16 * kChunkElems) {
    const uint64_t batch_end = std::min(end, batch + 16 * kChunkElems);
    array.RangeUnpack(replica, batch, batch_end, buffer);
    for (uint64_t i = batch; i < batch_end; ++i) {
      fn(buffer[i - batch], i);
    }
  }
}

// Reduction flavour: returns the sum of fn(value, index) over the range.
template <typename Fn>
uint64_t MapReduceRange(const SmartArray& array, uint64_t begin, uint64_t end, int socket,
                        Fn&& fn) {
  uint64_t acc = 0;
  MapRange(array, begin, end, socket,
           [&](uint64_t value, uint64_t index) { acc += fn(value, index); });
  return acc;
}

}  // namespace sa::smart

#endif  // SA_SMART_MAP_API_H_
