// Randomized programs over the smart-array op vocabulary.
//
// An Op carries raw 64-bit parameters; their meaning (indices, values,
// ranges, restructure targets) is derived at *execution* time from the
// current model state (program.h documents the mapping, checker.cc
// implements it). Execution-time interpretation is what makes programs
// shrink-safe: removing any prefix/subset of ops leaves every remaining op
// well-defined, so greedy shrinking never produces an invalid program.
#ifndef SA_TESTKIT_PROGRAM_H_
#define SA_TESTKIT_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testkit/scenario.h"

namespace sa::testkit {

enum class OpKind : uint8_t {
  kInit,          // write a[a%len] = b masked to the current width
  kInitAtomic,    // CAS-per-word write (plain native only)
  kGet,           // read a[a%len] via virtual dispatch, replica b%replicas
  kGetCodec,      // read a[a%len] via the bits-branched codec (*WithBits)
  kUnpack,        // decode chunk a%chunks, diff all 64 slots (zero padding)
  kUnpackRange,   // bulk decode the sorted range (a,b) % (len+1) through the
                  //   streaming seam, diff every element
  kPackRange,     // bulk encode the sorted range (a,b) % (len+1) with the
                  //   deterministic values SplitMix64(c ^ index) & mask
  kIterate,       // iterator reset at a%len, read min(b%129, len-start) elems
  kSumRange,      // block-kernel sum over the sorted range (a,b) % (len+1)
  kFetchAdd,      // synchronized only: previous value of a[a%len] += b
  kWrite,         // registry only: thread-safe slot write
  kSnapshotRead,  // registry only: pin, read indices a,b,c, unpin
  kSnapshotSum,   // registry only: pin, SumRange(a,b), unpin
  kSnapshotStale, // registry only: pin, write through slot, re-read the old
                  //   value through the still-pinned snapshot
  kRestructure,   // rebuild under placement a%4 / width derived from c%3
  kObsSnapshot,   // saObsSnapshot: every telemetry counter must be monotonic
                  //   vs the previous kObsSnapshot in this program
  // Graph ops (registry scenarios with graph_ops): derive a directed graph
  // from the *current model contents* — nv = 2 + a%31 vertices, edges
  // (i % nv) -> (model[i] % nv) for i in [0, len) — upload it into five
  // fresh registry slots (placement b%4, compression tier c%3), run the
  // parallel smart-array kernel over an epoch-pinned snapshot, and diff
  // against the serial plain-CSR reference computed from the same contents.
  // Model-derived inputs keep the ops shrink-safe; under concurrent_daemon
  // the upload+traversal races live restructures of the graph's own slots.
  kGraphBfs,      // BFS levels from source b % nv
  kGraphCc,       // connected components (undirected label propagation)
  kGraphTri,      // triangle count (degree-ordered orientation vs the id-ordered oracle)
  // Pushdown scans (scan_ops scenarios): range = sorted (a,b) % (len+1),
  // comparison op = c % 6, constant picked by c from a boundary ladder
  // (0 / 1 / mid / max / max+1, the normalization edges) or a c-derived
  // random value — each diffed element-for-element against the model.
  kCountIf,       // zone-mapped predicate count over the range
  kSelectIf,      // selection bitmap emit, popcount + every bit diffed
  kFilteredSum,   // sum of matching elements over the range
  kExplainSlot,   // registry only: pin a snapshot, saSlotExplain the slot, and
                  //   assert the newest published audit record describes the
                  //   pinned configuration (packed placement/bits/encoding);
                  //   no-op when the daemon's audit ring has no published
                  //   decision yet — parameters unused
};

const char* ToString(OpKind kind);

struct Op {
  OpKind kind = OpKind::kGet;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

std::string ToString(const Op& op);

struct Program {
  Scenario scenario;
  uint64_t seed = 0;
  std::vector<Op> ops;
};

// Multi-line listing of a program (one op per line, indexed).
std::string ToString(const Program& program);

}  // namespace sa::testkit

#endif  // SA_TESTKIT_PROGRAM_H_
