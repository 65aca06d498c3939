// Frame-of-reference + delta encoding (kForDelta), the repository's one
// frame-of-reference implementation.
//
// Each 64-element chunk has a base (its minimum value at build time), and the
// packed words hold `value - base` deltas at one uniform delta width — the
// widest any chunk needs. Every replica holds the packed deltas followed by
// the per-chunk bases, so replication covers the bases and footprint_bytes()
// counts them. Data whose values are large but locally clustered (timestamps,
// sorted keys, node degrees within a community) packs in far fewer bits than
// BitsForValue(max) would demand, which is exactly the §6 trade-off the
// adaptation daemon arbitrates: the zone maps expose max(BitsForValue(zmax -
// zmin)) essentially for free, so the selector can price FoR against plain
// bit-packing without touching the data.
//
// Zones hold exact absolute values after the build. Scans classify a chunk on
// its zone, then translate the predicate into the chunk's delta domain
// (TranslateToDelta) for the bit-packed kernels (chunk_walk.h).
//
// The encoding is read-optimized and the daemon only selects it for sealed
// read-only slots: writes are accepted but must stay within the chunk's
// frame ([base, base + max_delta]); a write outside the frame aborts, and
// Admits() lets failable callers refuse it first.
#ifndef SA_SMART_FOR_DELTA_H_
#define SA_SMART_FOR_DELTA_H_

#include <memory>

#include "smart/smart_array.h"

namespace sa::smart {

class ForDeltaArray final : public SmartArray {
 public:
  // Builds a FoR copy of `source` (any encoding), streaming it chunk by
  // chunk twice: one pass measures the uniform delta width, the second
  // writes the bases and deltas and installs exact zone bounds. `logical_bits`
  // is the width callers see (pass 0 to keep the source's); the delta width is
  // measured. Returns nullptr when a replica allocation fails. TryEncode
  // (restructure.h) is the factory that dispatches here.
  static std::unique_ptr<SmartArray> TryBuild(const SmartArray& source, PlacementSpec placement,
                                              uint32_t logical_bits,
                                              const platform::Topology& topology);

  // Delta-width upper bound estimated from `source`'s zone maps alone, as a
  // fraction of its logical width (1.0 = FoR saves nothing; unknown zones
  // price as full width). The daemon's selector input.
  static double EstimateDeltaRatio(const SmartArray& source);

  Encoding encoding() const override { return Encoding::kForDelta; }
  uint32_t delta_bits() const { return storage_bits(); }
  // The per-chunk bases held in `replica`: chunk c's elements are
  // bases(replica)[c] plus their deltas.
  const uint64_t* bases(const uint64_t* replica) const { return replica + bases_; }
  uint64_t base(uint64_t chunk) const { return bases(replica_ptrs_[0])[chunk]; }

  void Init(uint64_t index, uint64_t value) override;
  void InitAtomic(uint64_t index, uint64_t value) override;
  uint64_t Get(uint64_t index, const uint64_t* replica) const override;
  // True when `value` fits the width and `index`'s chunk frame.
  bool Admits(uint64_t index, uint64_t value) const override;
  void Unpack(uint64_t chunk, const uint64_t* replica, uint64_t* out) const override;

  uint64_t RangeSum(const uint64_t* replica, uint64_t begin, uint64_t end) const override;
  void RangeUnpack(const uint64_t* replica, uint64_t begin, uint64_t end,
                   uint64_t* out) const override;

  uint64_t CountIf(const uint64_t* replica, uint64_t begin, uint64_t end, Predicate p,
                   ScanStats* stats = nullptr) const override;
  uint64_t SelectIf(const uint64_t* replica, uint64_t begin, uint64_t end, Predicate p,
                    uint64_t* bitmap, ScanStats* stats = nullptr) const override;
  uint64_t FilteredSum(const uint64_t* replica, uint64_t begin, uint64_t end, Predicate p,
                       ScanStats* stats = nullptr) const override;

 private:
  ForDeltaArray(uint64_t length, PlacementSpec placement, uint32_t bits, uint32_t delta_bits,
                const platform::Topology& topology);

  // Aborts unless `value` fits `index`'s frame; returns the delta.
  uint64_t DeltaForWrite(uint64_t index, uint64_t value) const;

  uint64_t bases_;  // word offset of the per-chunk bases in every replica
};

}  // namespace sa::smart

#endif  // SA_SMART_FOR_DELTA_H_
