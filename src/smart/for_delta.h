// Frame-of-reference + delta encoding: the first smart-array representation
// whose storage geometry is not the logical bit width.
//
// Each 64-element chunk stores a base (its minimum value at build time) in a
// side vector, and the packed words hold `value - base` deltas at one
// uniform delta width — the widest any chunk needs. Data whose values are
// large but locally clustered (timestamps, sorted keys, node degrees within
// a community) packs in far fewer bits than BitsForValue(max) would demand,
// which is exactly the §6 trade-off the adaptation daemon arbitrates: the
// zone maps expose max(BitsForValue(zmax - zmin)) essentially for free, so
// the selector can price FoR against plain bit-packing without touching the
// data.
//
// The encoding is read-optimized and the daemon only selects it for sealed
// read-only slots: writes are accepted but must stay within the chunk's
// frame ([base, base + max_delta]); a write outside the frame aborts, and
// Admits() lets failable callers refuse it first.
#ifndef SA_SMART_FOR_DELTA_H_
#define SA_SMART_FOR_DELTA_H_

#include <memory>
#include <vector>

#include "smart/smart_array.h"

namespace sa::smart {

class ForDeltaArray final : public SmartArray {
 public:
  // Builds a FoR copy of `source` (any encoding): one serial decode pass
  // measures the per-chunk bases and the uniform delta width, a second pass
  // packs the deltas and installs exact zone bounds. `logical_bits` is the
  // width callers see (pass 0 to keep the source's); the storage width is
  // measured. Returns nullptr when a replica allocation fails.
  static std::unique_ptr<SmartArray> TryBuild(const SmartArray& source, PlacementSpec placement,
                                              uint32_t logical_bits,
                                              const platform::Topology& topology);

  // Delta-width upper bound estimated from `source`'s zone maps alone, as a
  // fraction of its logical width (1.0 = FoR saves nothing; unknown zones
  // price as full width). The daemon's selector input.
  static double EstimateDeltaRatio(const SmartArray& source);

  Encoding encoding() const override { return Encoding::kForDelta; }
  uint32_t delta_bits() const { return storage_bits(); }
  uint64_t base(uint64_t chunk) const { return bases_[chunk]; }

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
                const platform::Topology& topology, std::vector<uint64_t> bases);

  // Aborts unless `value` fits `index`'s frame; returns the delta.
  uint64_t DeltaForWrite(uint64_t index, uint64_t value) const;

  std::vector<uint64_t> bases_;  // one per chunk, immutable after build
};

}  // namespace sa::smart

#endif  // SA_SMART_FOR_DELTA_H_
