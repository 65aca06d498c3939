// On-the-fly restructuring (paper §6: "one could collect workload
// information from early batches of a loop over the array, and restructure
// the array on the fly"): rebuilds a smart array under a new placement
// and/or bit width, in parallel, preserving contents.
#ifndef SA_SMART_RESTRUCTURE_H_
#define SA_SMART_RESTRUCTURE_H_

#include <memory>
#include <span>

#include "rts/worker_pool.h"
#include "smart/smart_array.h"

namespace sa::smart {

// Optional timing breakdown of one rebuild, for the telemetry layer and the
// daemon's trace spans. unpack/pack nanoseconds are summed across worker
// batches (so they can exceed wall_ns on a multi-worker pool); both stay 0
// on the same-width word-copy fast path.
struct RestructureStats {
  uint64_t wall_ns = 0;
  uint64_t unpack_ns = 0;
  uint64_t pack_ns = 0;
  int replicas = 0;
  bool same_width = false;
};

// Returns a new array with `source`'s contents under (placement, bits).
// `bits` must be wide enough for every stored value; pass 0 to keep the
// source width. Aborts if a value does not fit the requested width.
std::unique_ptr<SmartArray> Restructure(rts::WorkerPool& pool, const SmartArray& source,
                                        PlacementSpec placement, uint32_t bits,
                                        const platform::Topology& topology);

// Non-aborting variant: returns nullptr when a stored value does not fit
// `bits`. The adaptation daemon narrows arrays that concurrent writers may
// still be widening, so overflow there is an expected outcome to retry
// from, not a caller bug. `stats`, when non-null, receives the timing
// breakdown (filled on success and on overflow aborts alike). `encoding`
// picks the target representation: the other encodings are built by
// TryEncode (then `bits` only sets the logical width; the storage comes from
// the measured data).
std::unique_ptr<SmartArray> TryRestructure(rts::WorkerPool& pool, const SmartArray& source,
                                           PlacementSpec placement, uint32_t bits,
                                           const platform::Topology& topology,
                                           RestructureStats* stats = nullptr,
                                           Encoding encoding = Encoding::kBitPacked);

// The factory of the read-optimised encodings (kForDelta, kDictionary,
// kRunLength): builds `encoding`'s representation of `source` (any
// encoding) under `placement`, serially, streaming `source` chunk by chunk.
// `bits` is the logical width (0 keeps the source's). The result installs
// exact value zones. Returns nullptr when a replica allocation fails.
std::unique_ptr<SmartArray> TryEncode(const SmartArray& source, Encoding encoding,
                                      PlacementSpec placement, uint32_t bits,
                                      const platform::Topology& topology);

// `values` under `encoding`: bit-packed at the narrowest width that holds
// them, the other encodings through TryEncode from that. Aborts when a
// replica allocation fails.
std::unique_ptr<SmartArray> Encode(std::span<const uint64_t> values, Encoding encoding,
                                   PlacementSpec placement, const platform::Topology& topology);

// Narrowest width that holds every element of `array` (a parallel max scan;
// what "compress with the least number of bits required" needs, §5.2).
uint32_t MinimalBits(rts::WorkerPool& pool, const SmartArray& array);

}  // namespace sa::smart

#endif  // SA_SMART_RESTRUCTURE_H_
