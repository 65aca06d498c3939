// Read-only encoded arrays: a common interface over the alternative
// compression techniques of §7, all storing their payloads in smart arrays
// so NUMA placement composes with every encoding.
//
// Every payload is packed once at Encode time, chunk by chunk, with its
// exact [min, max] zone installed, and is never written again. Scans can
// therefore trust the zones to prune chunks (SmartArray::SelectIf), every
// encoding answers predicates on its encoded form (SelectIf) instead of
// decoding first, and MIN/MAX over whole chunks reads only metadata
// (MinMax).
#ifndef SA_ENCODINGS_ENCODED_ARRAY_H_
#define SA_ENCODINGS_ENCODED_ARRAY_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "encodings/encoding.h"
#include "platform/topology.h"
#include "smart/placement.h"
#include "smart/predicate.h"
#include "smart/smart_array.h"

namespace sa::encodings {

// The exact [min, max] of a set of values. The default is the empty set's
// (min > max), and += merges two sets, so rts::ParallelReduce folds
// per-grain answers.
struct MinMax {
  uint64_t min = ~uint64_t{0};
  uint64_t max = 0;

  MinMax& operator+=(const MinMax& o) {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    return *this;
  }
};

class EncodedArray {
 public:
  virtual ~EncodedArray() = default;

  EncodedArray(const EncodedArray&) = delete;
  EncodedArray& operator=(const EncodedArray&) = delete;

  uint64_t length() const { return length_; }
  Encoding encoding() const { return encoding_; }

  // Element at `index`, decoded, reading socket-local replicas when the
  // payload is replicated. `socket` as in SmartArray::GetReplica.
  virtual uint64_t Get(uint64_t index, int socket) const = 0;

  // Decodes [begin, end) into `out` (the scan path: payloads decode through
  // the chunk-streaming SmartArray::RangeUnpack seam).
  virtual void Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const = 0;

  // Predicate pushdown on the encoded payload, with the contract of
  // SmartArray::SelectIf: bit j of `bitmap` = whether element begin+j
  // matches `p`; the callee zeroes the (end-begin+63)/64 output words
  // first. Returns the match count.
  virtual uint64_t SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                            uint64_t* bitmap) const = 0;

  // The exact [min, max] of elements [begin, end), answered from metadata
  // the encoding already stores, never from decoded rows: the payload's
  // chunk zones (bit-packed), the codes' zones through the sorted
  // dictionary (dictionary), each chunk's base plus its delta zone
  // (frame-of-reference), or the values of the runs that overlap the range
  // (run-length). Zones are per 64-element chunk, so the range must be
  // non-empty, start on a chunk and end on a chunk or at length() (the
  // grains the table operators run in); other ranges abort.
  virtual encodings::MinMax MinMax(uint64_t begin, uint64_t end, int socket) const = 0;

  // The smart arrays holding the encoded payload.
  virtual std::vector<const smart::SmartArray*> payloads() const = 0;

  // Total bytes across all payload arrays and replicas.
  uint64_t footprint_bytes() const;

  // Builds the array with `encoding`, or with the technique ChooseEncoding
  // picks from the data when `encoding` is nullopt (§7's dynamic selection).
  static std::unique_ptr<EncodedArray> Encode(std::span<const uint64_t> values,
                                              std::optional<Encoding> encoding,
                                              const smart::PlacementSpec& placement,
                                              const platform::Topology& topology);

 protected:
  EncodedArray(uint64_t length, Encoding encoding) : length_(length), encoding_(encoding) {}

  uint64_t length_;
  Encoding encoding_;
};

// ---- Concrete encodings ----

// Plain §4.2 bit packing behind the EncodedArray interface.
class BitPackedArray final : public EncodedArray {
 public:
  BitPackedArray(std::span<const uint64_t> values, const smart::PlacementSpec& placement,
                 const platform::Topology& topology);
  uint64_t Get(uint64_t index, int socket) const override;
  void Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const override;
  uint64_t SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                    uint64_t* bitmap) const override;
  encodings::MinMax MinMax(uint64_t begin, uint64_t end, int socket) const override;
  std::vector<const smart::SmartArray*> payloads() const override { return {data_.get()}; }

 private:
  std::unique_ptr<smart::SmartArray> data_;
};

// Dictionary encoding: sorted distinct values + bit-packed codes. Code
// order is value order, so range predicates map to code ranges and a
// group-by on codes comes out sorted by value.
class DictionaryArray final : public EncodedArray {
 public:
  DictionaryArray(std::span<const uint64_t> values, const smart::PlacementSpec& placement,
                  const platform::Topology& topology);
  uint64_t Get(uint64_t index, int socket) const override;
  void Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const override;
  uint64_t SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                    uint64_t* bitmap) const override;
  encodings::MinMax MinMax(uint64_t begin, uint64_t end, int socket) const override;
  std::vector<const smart::SmartArray*> payloads() const override {
    return {dictionary_.get(), codes_.get()};
  }

  uint64_t dictionary_size() const { return dictionary_->length(); }
  uint32_t code_bits() const { return codes_->bits(); }

  // Decodes the codes of [begin, end) into `out` (code-domain operators).
  void DecodeCodes(uint64_t begin, uint64_t end, int socket, uint64_t* out) const;
  // The value `code` stands for.
  uint64_t code_value(uint64_t code) const { return dictionary_->GetReplica(0)[code]; }

 private:
  // `p` over values as an equivalent predicate over codes.
  smart::Predicate ToCodePredicate(smart::Predicate p) const;

  std::unique_ptr<smart::SmartArray> dictionary_;  // sorted distinct values, 64-bit
  std::unique_ptr<smart::SmartArray> codes_;       // indexes into the dictionary
};

// Run-length encoding: per run a start offset and a value; random access by
// binary search over the starts, scans by run replay.
class RunLengthArray final : public EncodedArray {
 public:
  RunLengthArray(std::span<const uint64_t> values, const smart::PlacementSpec& placement,
                 const platform::Topology& topology);
  uint64_t Get(uint64_t index, int socket) const override;
  void Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const override;
  uint64_t SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                    uint64_t* bitmap) const override;
  encodings::MinMax MinMax(uint64_t begin, uint64_t end, int socket) const override;
  std::vector<const smart::SmartArray*> payloads() const override {
    return {run_starts_.get(), run_values_.get()};
  }

  uint64_t num_runs() const { return run_values_->length(); }

 private:
  // Index of the run containing `index`.
  uint64_t FindRun(uint64_t index, const uint64_t* starts_replica) const;

  // Calls fn(value, lo, hi) for every run overlapping [begin, end), with
  // [lo, hi) the overlap, in order.
  template <typename Fn>
  void ForEachRun(uint64_t begin, uint64_t end, int socket, Fn&& fn) const;

  std::unique_ptr<smart::SmartArray> run_starts_;  // first element index of each run
  std::unique_ptr<smart::SmartArray> run_values_;  // packed run values
};

// Frame-of-reference: per 64-element chunk a 64-bit base (chunk minimum)
// plus bit-packed chunk-local deltas.
class FrameOfReferenceArray final : public EncodedArray {
 public:
  FrameOfReferenceArray(std::span<const uint64_t> values,
                        const smart::PlacementSpec& placement,
                        const platform::Topology& topology);
  uint64_t Get(uint64_t index, int socket) const override;
  void Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const override;
  uint64_t SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                    uint64_t* bitmap) const override;
  encodings::MinMax MinMax(uint64_t begin, uint64_t end, int socket) const override;
  std::vector<const smart::SmartArray*> payloads() const override {
    return {bases_.get(), deltas_.get()};
  }

  uint32_t delta_bits() const { return deltas_->bits(); }

 private:
  std::unique_ptr<smart::SmartArray> bases_;   // one per chunk, 64-bit
  std::unique_ptr<smart::SmartArray> deltas_;  // bit-packed chunk-local offsets
};

}  // namespace sa::encodings

#endif  // SA_ENCODINGS_ENCODED_ARRAY_H_
