// C-ABI entry points to the unified smart-array API (paper §3.2, Fig. 7).
//
// In the paper these functions are compiled to LLVM bitcode and executed by
// Sulong so that any GraalVM guest language can call straight into the C++
// implementation; the Java "thin API" is a wrapper around exactly these
// symbols. Here they serve the same role for the MiniVM interop layer
// (src/interop) and for any external runtime loading the library: a stable,
// exception-free boundary with scalar-only arguments ("the use of JNI is
// designed to pass only scalar values", §2.2).
//
// Handles are opaque pointers carried as the paper's `long sa` native
// pointer. The *_with_bits variants take the compression width as an
// argument and branch straight to the concrete codec, "avoiding the
// overhead of the virtual dispatch" (§4.3).
#ifndef SA_SMART_ENTRY_POINTS_H_
#define SA_SMART_ENTRY_POINTS_H_

#include <cstdint>

extern "C" {

// ---- Process-wide topology for entry-point allocations ----
// sockets == 0 selects the host topology (the default).
void saSetDefaultTopology(int sockets, int cpus_per_socket);
int saGetNumSockets(void);

// ---- SmartArray lifecycle (mirrors SmartArray::allocate, Fig. 9) ----
// `pinned` is the target socket, or -1 when not pinned. Placements are
// mutually exclusive; passing none selects the OS default policy.
void* saArrayAllocate(uint64_t length, int replicated, int interleaved, int pinned,
                      uint32_t bits);
void saArrayFree(void* sa);

uint64_t saArrayGetLength(const void* sa);
uint32_t saArrayGetBits(const void* sa);
int saArrayIsReplicated(const void* sa);
uint64_t saArrayFootprintBytes(const void* sa);

// Replica pointer for the calling thread (Fig. 9 getReplica()).
const uint64_t* saArrayGetReplica(const void* sa);

// ---- Element access through virtual dispatch ----
void saArrayInit(void* sa, uint64_t index, uint64_t value);
uint64_t saArrayGet(const void* sa, uint64_t index);
void saArrayUnpack(const void* sa, uint64_t chunk, uint64_t* out);

// ---- Bulk transfer through the chunk-streaming decode seam ----
// Decodes elements [begin, end) into out[0 .. end-begin); whole chunks go
// through the selected (measured) kernel, so foreign callers bulk-read at
// native speed in one boundary crossing.
void saArrayUnpackRange(const void* sa, uint64_t begin, uint64_t end, uint64_t* out);

// Encode twin: packs in[0 .. end-begin) into elements [begin, end) of every
// replica through smart::PackRange, whose always-on checks guard this
// untrusted boundary: an out-of-bounds range, an array in a read-optimised
// encoding and a value wider than the array each abort with a diagnostic.
// Chunks the range covers wholly get exact zones, partial ones widen.
void saArrayPackRange(void* sa, uint64_t begin, uint64_t end, const uint64_t* in);

// ---- Element access branched on `bits` (no virtual dispatch) ----
void saArrayInitWithBits(void* sa, uint64_t index, uint64_t value, uint32_t bits);
uint64_t saArrayGetWithBits(const void* sa, uint64_t index, uint32_t bits);

// ---- SmartArrayIterator (Fig. 9) ----
void* saIterAllocate(const void* sa, uint64_t index);
void saIterFree(void* it);
void saIterReset(void* it, uint64_t index);
uint64_t saIterGet(void* it);
void saIterNext(void* it);

// `bits`-parameterized variants used by the thin APIs after profiling the
// width (Function 4's Java example).
uint64_t saIterGetWithBits(void* it, uint32_t bits);
void saIterNextWithBits(void* it, uint32_t bits);

// ---- Bounded map() API (§7) ----
// Callback receiving decoded spans: `values[0..count)` are the elements at
// indices `first_index..first_index+count`. `ctx` is passed through.
typedef void (*saMapCallback)(const uint64_t* values, uint64_t count, uint64_t first_index,
                              void* ctx);

// Applies `callback` over [begin, end), decoding chunk-at-a-time — the
// branch-stall-free alternative to the iterator entry points.
void saArrayMapRange(const void* sa, uint64_t begin, uint64_t end, saMapCallback callback,
                     void* ctx);

// Built-in reduction: sum of the elements in [begin, end). Runs on the
// chunk-granular block kernels (AVX2 when the host supports it), so foreign
// callers aggregate at native-kernel speed without re-implementing the
// codec.
uint64_t saArraySumRange(const void* sa, uint64_t begin, uint64_t end);

// Fused two-array reduction: sum of sa1[i] + sa2[i] over [begin, end) — the
// paper's §5.1 aggregation kernel as a single boundary call. Both arrays
// must share one bit width.
uint64_t saArraySum2Range(const void* sa1, const void* sa2, uint64_t begin, uint64_t end);

// ---- Pushdown scans (src/smart/predicate.h) ----
// `op` takes the stable CmpOp ABI values: 0 ==, 1 !=, 2 <, 3 <=, 4 >, 5 >=.
// The predicate is evaluated on the packed words through the calibrated
// match-mask kernels; chunks whose zone map proves them irrelevant are
// never touched.

// Number of elements in [begin, end) satisfying `v op constant`.
uint64_t saArrayCountIf(const void* sa, uint64_t begin, uint64_t end, int op,
                        uint64_t constant);

// Emits bit j of `bitmap` = whether element begin+j matches, zeroing the
// output words first. `bitmap_words` is the caller's buffer size in 64-bit
// words and must cover (end - begin + 63) / 64 (hard-checked: untrusted
// boundary). Returns the match count.
uint64_t saArraySelectIf(const void* sa, uint64_t begin, uint64_t end, int op,
                         uint64_t constant, uint64_t* bitmap, uint64_t bitmap_words);

// Sum of the matching elements of [begin, end).
uint64_t saArrayFilteredSum(const void* sa, uint64_t begin, uint64_t end, int op,
                            uint64_t constant);

}  // extern "C"

#endif  // SA_SMART_ENTRY_POINTS_H_
