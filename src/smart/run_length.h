// Run-length encoding (kRunLength): one (start, value) pair per maximal run
// of equal adjacent values (paper §7's second alternative technique).
//
// Every replica holds the run starts, bit-packed at the width of the last
// index, followed by the run values, bit-packed at the width of the largest
// one. Random access binary-searches the starts; range decodes and scans
// replay the runs that overlap the range, checking a predicate once per run
// (so scans walk no zones: they leave ScanStats and the chunk counters
// alone). Zones hold exact values after the build, for the metadata readers.
//
// The encoding is read-optimized: a write must keep the run's value (it then
// changes nothing); any other value aborts, and Admits() lets failable
// callers refuse it first.
#ifndef SA_SMART_RUN_LENGTH_H_
#define SA_SMART_RUN_LENGTH_H_

#include <memory>

#include "smart/smart_array.h"

namespace sa::smart {

class RunLengthArray final : public SmartArray {
 public:
  // Builds a run-length copy of `source` (any encoding), streaming it chunk
  // by chunk twice: one pass counts the runs and measures the value width,
  // the second writes the runs and installs exact value zones. `logical_bits`
  // as in ForDeltaArray::TryBuild. Returns nullptr when a replica allocation
  // fails.
  static std::unique_ptr<SmartArray> TryBuild(const SmartArray& source, PlacementSpec placement,
                                              uint32_t logical_bits,
                                              const platform::Topology& topology);

  Encoding encoding() const override { return Encoding::kRunLength; }
  uint64_t num_runs() const { return num_runs_; }

  void Init(uint64_t index, uint64_t value) override;
  void InitAtomic(uint64_t index, uint64_t value) override;
  uint64_t Get(uint64_t index, const uint64_t* replica) const override;
  // True when `value` is the value of `index`'s run.
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
  RunLengthArray(uint64_t length, PlacementSpec placement, uint32_t bits, uint64_t num_runs,
                 uint32_t value_bits, const platform::Topology& topology);

  // Index of the run containing `index`.
  uint64_t FindRun(uint64_t index, const uint64_t* replica) const;

  // Calls fn(value, lo, hi) for every run overlapping [begin, end), with
  // [lo, hi) the overlap, in order.
  template <typename Fn>
  void ForEachRun(const uint64_t* replica, uint64_t begin, uint64_t end, Fn&& fn) const;

  uint64_t num_runs_;
  uint32_t start_bits_;
  uint64_t values_;  // word offset of the run values in every replica
};

}  // namespace sa::smart

#endif  // SA_SMART_RUN_LENGTH_H_
