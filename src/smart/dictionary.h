// Dictionary encoding (kDictionary): bit-packed codes into a sorted
// dictionary of the distinct values (paper §7's first alternative
// technique).
//
// Code order is value order, so a range predicate over values is a range
// predicate over codes: scans classify each chunk on its exact value zone and
// run the bit-packed kernels on the codes of the mixed ones, through the zone
// walker the other packed encodings share (chunk_walk.h); a group-by on codes
// comes out sorted by value. Every replica holds the packed codes followed by
// the dictionary, so a reader needs only GetReplica(socket).
//
// The encoding is read-optimized: a write must store a value the dictionary
// already holds (it then rewrites one code); any other value aborts, and
// Admits() lets failable callers refuse it first.
#ifndef SA_SMART_DICTIONARY_H_
#define SA_SMART_DICTIONARY_H_

#include <memory>

#include "smart/smart_array.h"

namespace sa::smart {

class DictionaryArray final : public SmartArray {
 public:
  // Builds a dictionary copy of `source` (any encoding), streaming it chunk
  // by chunk twice: one pass collects the sorted distinct values, the second
  // packs the codes and installs exact value zones. `logical_bits` as in
  // ForDeltaArray::TryBuild. Returns nullptr when a replica allocation fails.
  static std::unique_ptr<SmartArray> TryBuild(const SmartArray& source, PlacementSpec placement,
                                              uint32_t logical_bits,
                                              const platform::Topology& topology);

  Encoding encoding() const override { return Encoding::kDictionary; }
  uint64_t dictionary_size() const { return dictionary_size_; }
  uint32_t code_bits() const { return storage_bits(); }
  // The sorted distinct values held in `replica`: code c stands for
  // dictionary(replica)[c].
  const uint64_t* dictionary(const uint64_t* replica) const { return replica + dictionary_; }
  // Decodes the codes of [begin, end) from `replica` into out[0 .. end-begin)
  // (the code-domain operators).
  void RangeUnpackCodes(const uint64_t* replica, uint64_t begin, uint64_t end,
                        uint64_t* out) const;

  void Init(uint64_t index, uint64_t value) override;
  void InitAtomic(uint64_t index, uint64_t value) override;
  uint64_t Get(uint64_t index, const uint64_t* replica) const override;
  // True when the dictionary holds `value`.
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
  DictionaryArray(uint64_t length, PlacementSpec placement, uint32_t bits,
                  uint64_t dictionary_size, const platform::Topology& topology);

  // Code of `value`, or dictionary_size() when the dictionary lacks it.
  uint64_t CodeOf(uint64_t value) const;
  // Aborts unless the dictionary holds `value`; returns its code.
  uint64_t CodeForWrite(uint64_t value) const;

  uint64_t dictionary_size_;
  uint64_t dictionary_;  // word offset of the dictionary in every replica
};

}  // namespace sa::smart

#endif  // SA_SMART_DICTIONARY_H_
