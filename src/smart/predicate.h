// Predicate vocabulary for the pushdown scan engine.
//
// A scan evaluates `v ⊖ constant` over every element of a packed range. The
// six comparison operators callers speak (EQ/NE/LT/LE/GT/GE) normalize to a
// two-kernel canon — `v < bound` and `v == bound`, each optionally
// complemented — so the codec needs exactly two compare flavours per width
// and the AVX2 network reuses one compare per group. Constants outside the
// width's value range resolve at normalization time to kNone / kAll, which
// the scan layer answers in closed form without touching the array.
//
// Normalization also bounds the compare constant: for widths <= 63 every
// surviving bound fits in 63 bits (LE/GT with constant >= max_value become
// kAll/kNone before bound = constant + 1 could reach 2^63), so the AVX2
// kernels may use signed 64-bit compares on values that are always
// non-negative. Width 64 is served by the scalar block kernels only.
#ifndef SA_SMART_PREDICATE_H_
#define SA_SMART_PREDICATE_H_

#include <cstdint>

#include "common/bits.h"
#include "common/macros.h"

namespace sa::smart {

// Caller-facing comparison operators. The integer values are part of the
// C ABI (saArrayCountIf takes them as an int); append, never reorder.
enum class CmpOp : uint8_t {
  kEq = 0,
  kNe = 1,
  kLt = 2,
  kLe = 3,
  kGt = 4,
  kGe = 5,
};

inline const char* ToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

struct Predicate {
  CmpOp op = CmpOp::kEq;
  uint64_t constant = 0;
};

// Raw semantics, the scalar truth every kernel is measured against.
inline bool Matches(Predicate p, uint64_t value) {
  switch (p.op) {
    case CmpOp::kEq:
      return value == p.constant;
    case CmpOp::kNe:
      return value != p.constant;
    case CmpOp::kLt:
      return value < p.constant;
    case CmpOp::kLe:
      return value <= p.constant;
    case CmpOp::kGt:
      return value > p.constant;
    case CmpOp::kGe:
      return value >= p.constant;
  }
  return false;
}

// Canonical form consumed by the kernels and the zone-map classifier.
struct ScanPredicate {
  enum class Kind : uint8_t {
    kNone,  // matches nothing in this width's value range
    kAll,   // matches everything in this width's value range
    kLt,    // v < bound (complemented when invert)
    kEq,    // v == bound (complemented when invert)
  };
  Kind kind = Kind::kNone;
  uint64_t bound = 0;
  bool invert = false;

  bool trivial() const { return kind == Kind::kNone || kind == Kind::kAll; }
};

// Scalar truth of a normalized predicate (trivial kinds included).
inline bool Matches(ScanPredicate p, uint64_t value) {
  switch (p.kind) {
    case ScanPredicate::Kind::kNone:
      return false;
    case ScanPredicate::Kind::kAll:
      return true;
    case ScanPredicate::Kind::kLt:
      return (value < p.bound) != p.invert;
    case ScanPredicate::Kind::kEq:
      return (value == p.bound) != p.invert;
  }
  return false;
}

// Reduces `p` over a `bits`-wide value domain. Every surviving bound
// satisfies 1 <= bound <= LowMask(bits) for kLt and bound <= LowMask(bits)
// for kEq.
inline ScanPredicate NormalizePredicate(Predicate p, uint32_t bits) {
  SA_DCHECK(bits >= 1 && bits <= 64);
  const uint64_t max = LowMask(bits);
  const uint64_t c = p.constant;
  switch (p.op) {
    case CmpOp::kEq:
      return c > max ? ScanPredicate{ScanPredicate::Kind::kNone, 0, false}
                     : ScanPredicate{ScanPredicate::Kind::kEq, c, false};
    case CmpOp::kNe:
      return c > max ? ScanPredicate{ScanPredicate::Kind::kAll, 0, false}
                     : ScanPredicate{ScanPredicate::Kind::kEq, c, true};
    case CmpOp::kLt:
      if (c == 0) {
        return {ScanPredicate::Kind::kNone, 0, false};
      }
      return c > max ? ScanPredicate{ScanPredicate::Kind::kAll, 0, false}
                     : ScanPredicate{ScanPredicate::Kind::kLt, c, false};
    case CmpOp::kGe:
      if (c == 0) {
        return {ScanPredicate::Kind::kAll, 0, false};
      }
      return c > max ? ScanPredicate{ScanPredicate::Kind::kNone, 0, false}
                     : ScanPredicate{ScanPredicate::Kind::kLt, c, true};
    case CmpOp::kLe:
      return c >= max ? ScanPredicate{ScanPredicate::Kind::kAll, 0, false}
                      : ScanPredicate{ScanPredicate::Kind::kLt, c + 1, false};
    case CmpOp::kGt:
      return c >= max ? ScanPredicate{ScanPredicate::Kind::kNone, 0, false}
                      : ScanPredicate{ScanPredicate::Kind::kLt, c + 1, true};
  }
  return {ScanPredicate::Kind::kNone, 0, false};
}

// What a chunk-level [min, max] zone tells a scan about one chunk.
enum class ZoneVerdict : uint8_t {
  kSkip,      // no element can match: the chunk is never touched
  kAllMatch,  // every element matches: answer in closed form
  kMixed,     // must run the kernel
};

// Classifies a chunk whose values all lie in [zmin, zmax] against a
// non-trivial normalized predicate. Conservative by construction: a bound
// proven impossible from the zone alone is the only reason to skip.
inline ZoneVerdict ClassifyZone(ScanPredicate p, uint64_t zmin, uint64_t zmax) {
  SA_DCHECK(!p.trivial());
  if (zmin > zmax) {
    return ZoneVerdict::kMixed;  // unknown zone: scan it
  }
  bool all;
  bool none;
  if (p.kind == ScanPredicate::Kind::kLt) {
    all = zmax < p.bound;
    none = zmin >= p.bound;
  } else {
    all = zmin == p.bound && zmax == p.bound;
    none = p.bound < zmin || p.bound > zmax;
  }
  if (p.invert) {
    const bool t = all;
    all = none;
    none = t;
  }
  if (none) {
    return ZoneVerdict::kSkip;
  }
  if (all) {
    return ZoneVerdict::kAllMatch;
  }
  return ZoneVerdict::kMixed;
}

// Maps a non-trivial absolute-domain predicate into the delta domain of a
// frame-of-reference chunk whose elements are `chunk_base + delta` with
// deltas `delta_bits` wide. The result is trivial (kNone/kAll, never
// inverted) when the frame alone decides the chunk; otherwise it is a
// normalized predicate over the deltas, ready for the bit-packed kernels.
inline ScanPredicate TranslateToDelta(ScanPredicate p, uint64_t chunk_base,
                                      uint32_t delta_bits) {
  SA_DCHECK(!p.trivial());
  const uint64_t dmax = LowMask(delta_bits);
  ScanPredicate d = p;
  if (p.kind == ScanPredicate::Kind::kLt) {
    if (p.bound <= chunk_base) {
      d = {ScanPredicate::Kind::kNone, 0, false};  // every v = base + delta >= bound
    } else if (p.bound - chunk_base > dmax) {
      d = {ScanPredicate::Kind::kAll, 0, false};  // every delta <= dmax < bound - base
    } else {
      d.bound = p.bound - chunk_base;
    }
  } else {
    if (p.bound < chunk_base || p.bound - chunk_base > dmax) {
      d = {ScanPredicate::Kind::kNone, 0, false};
    } else {
      d.bound = p.bound - chunk_base;
    }
  }
  if (d.trivial()) {
    if (p.invert) {
      d.kind = d.kind == ScanPredicate::Kind::kNone ? ScanPredicate::Kind::kAll
                                                    : ScanPredicate::Kind::kNone;
    }
    d.invert = false;
  }
  return d;
}

// Mask with the low `n` bits set, n in [0, 64] (LowMask requires n >= 1).
inline uint64_t SliceMask(uint32_t n) { return n == 0 ? 0 : LowMask(n); }

// ORs the low `nbits` bits of `mask` into `bitmap` starting at absolute bit
// position `bit_offset`. The caller owns zeroing the buffer; emission only
// sets bits, which is what lets chunk-aligned parallel grains share it.
inline void EmitMaskBits(uint64_t* bitmap, uint64_t bit_offset, uint64_t mask, uint32_t nbits) {
  SA_DCHECK(nbits <= 64);
  mask &= SliceMask(nbits);
  const uint64_t word = bit_offset / kWordBits;
  const uint32_t off = static_cast<uint32_t>(bit_offset % kWordBits);
  bitmap[word] |= mask << off;
  if (off != 0 && off + nbits > kWordBits) {
    bitmap[word + 1] |= mask >> (kWordBits - off);
  }
}

// Sets bits [bit_begin, bit_end) of `bitmap` — the all-match counterpart of
// EmitMaskBits, same OR-only contract.
inline void SetBitRange(uint64_t* bitmap, uint64_t bit_begin, uint64_t bit_end) {
  while (bit_begin < bit_end) {
    const uint64_t word = bit_begin / kWordBits;
    const uint32_t off = static_cast<uint32_t>(bit_begin % kWordBits);
    const uint32_t n = static_cast<uint32_t>(
        kWordBits - off < bit_end - bit_begin ? kWordBits - off : bit_end - bit_begin);
    bitmap[word] |= SliceMask(n) << off;
    bit_begin += n;
  }
}

}  // namespace sa::smart

#endif  // SA_SMART_PREDICATE_H_
