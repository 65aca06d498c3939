// C-ABI entry points for smart collections and encoded arrays — the §7
// vision applied to the new abstractions: "smart collections are
// implemented once in C++ and are accessible ... by multiple programming
// languages without re-implementation. To support each additional language,
// a per-language thin interface is needed ... to connect to the entry
// points of the unified API."
//
// Same conventions as smart/entry_points.h: opaque handles, scalar-only
// arguments, no exceptions. Placement flags mirror saArrayAllocate
// (replicated/interleaved are mutually exclusive; pinned is a socket or -1).
// Allocation uses the process default topology (saSetDefaultTopology).
#ifndef SA_COLLECTIONS_ENTRY_POINTS_H_
#define SA_COLLECTIONS_ENTRY_POINTS_H_

#include <cstdint>

extern "C" {

// ---- Encoded arrays (§7 alternative compression techniques) ----
// `encoding` takes the smart::Encoding values: 0 bit-packed, 1 frame-of-
// reference (for-delta), 2 dictionary, 3 run-length; -1 selects automatically
// from the data. The handle is a smart-array handle: read, scan and free it
// through the saArray* entry points (smart/entry_points.h), which check
// every index and range.
void* saEncodedCreate(const uint64_t* values, uint64_t length, int encoding, int replicated,
                      int interleaved, int pinned);
int saEncodedKind(const void* sa);  // the encoding actually chosen

// ---- Smart sets ----
// `layout`: 0 sorted, 1 eytzinger.
void* saSetCreate(const uint64_t* values, uint64_t length, int layout, int replicated,
                  int interleaved, int pinned);
void saSetFree(void* set);
uint64_t saSetSize(const void* set);
int saSetContains(const void* set, uint64_t value);
uint64_t saSetFootprintBytes(const void* set);

// ---- Smart maps ----
void* saMapCreate(const uint64_t* keys, const uint64_t* values, uint64_t length,
                  int replicated, int interleaved, int pinned);
void saMapFree(void* map);
uint64_t saMapSize(const void* map);
// Returns 1 and stores through `out` when the key exists, else 0.
int saMapGet(const void* map, uint64_t key, uint64_t* out);

}  // extern "C"

#endif  // SA_COLLECTIONS_ENTRY_POINTS_H_
