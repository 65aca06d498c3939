// Runtime `bits` promoted to a compile-time constant, for code that needs
// BitCompressedArray<BITS> itself rather than one width's CodecOps.
//
// The per-width table of codec functions and measured kernels, CodecFor,
// is in kernel_table.h (included here through bit_compressed_array.h).
#ifndef SA_SMART_DISPATCH_H_
#define SA_SMART_DISPATCH_H_

#include <cstdint>
#include <type_traits>
#include <utility>

#include "smart/bit_compressed_array.h"

namespace sa::smart {
namespace internal {

template <typename F, size_t... I>
auto WithBitsImpl(uint32_t bits, F&& f, std::index_sequence<I...>) {
  using R = decltype(f(std::integral_constant<uint32_t, 64>{}));
  R result{};
  const bool matched =
      ((bits == I + 1 ? (result = f(std::integral_constant<uint32_t, I + 1>{}), true) : false) ||
       ...);
  SA_CHECK_MSG(matched, "bit width must be 1..64");
  return result;
}

}  // namespace internal

// Invokes f(std::integral_constant<uint32_t, bits>{}) with the runtime width
// promoted to a compile-time constant — the "profile the number of bits and
// consider it fixed during compilation" trick of §4.3 in library form. The
// callable must return a default-constructible value (return 0 for void-like
// uses).
template <typename F>
auto WithBits(uint32_t bits, F&& f) {
  return internal::WithBitsImpl(bits, std::forward<F>(f), std::make_index_sequence<64>{});
}

}  // namespace sa::smart

#endif  // SA_SMART_DISPATCH_H_
