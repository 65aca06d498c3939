// Harness: one uniform op vocabulary over every SmartArray variant.
//
// The checker executes the same generated program against an ArrayModel and
// against a Harness; MakeHarness picks the concrete implementation from the
// scenario — plain SmartArray (virtual dispatch + bits-branched codec +
// iterators), SynchronizedArray (chunk-locked RMW), or an ArrayRegistry
// slot (snapshot reads, publish-swapped restructures) — each natively or
// through the C-ABI entry points, so the foreign-runtime boundary is proven
// bit-identical to the native classes.
#ifndef SA_TESTKIT_HARNESS_H_
#define SA_TESTKIT_HARNESS_H_

#include <cstdint>
#include <memory>

#include "platform/topology.h"
#include "rts/worker_pool.h"
#include "smart/placement.h"
#include "smart/predicate.h"
#include "testkit/scenario.h"

namespace sa::runtime {
class ArrayRegistry;
class ArraySlot;
}

namespace sa::testkit {

// Topology and worker pool shared across checker runs (shrinking re-runs a
// program hundreds of times; respawning pool threads per run would dominate
// the wall clock). Synthetic 2x4 topology: placements get two sockets to be
// meaningful, and replica selection stays deterministic (synthetic
// topologies always resolve the calling thread to replica 0). Each pool has
// one thread fewer than it has workers, since the caller is the last one:
// 4 workers in `pool` and 2 in `daemon_pool`, split evenly over the sockets.
struct TestContext {
  TestContext()
      : topology(platform::Topology::Synthetic(2, 4)),
        pool(topology, rts::WorkerPool::Options{.num_threads = 3, .pin_threads = false}),
        daemon_pool(topology,
                    rts::WorkerPool::Options{.num_threads = 1, .pin_threads = false}) {}

  platform::Topology topology;
  rts::WorkerPool pool;
  // Separate pool for concurrent_daemon scenarios: WorkerPool::RunOnAll is
  // not reentrant, so daemon rebuilds must never share a pool with the
  // harness's own Restructure calls.
  rts::WorkerPool daemon_pool;
};

enum class RestructureResult : uint8_t {
  kUnsupported,     // variant has no restructure path
  kPublished,       // rebuilt and swapped in
  kRejected,        // TryRestructure refused: width overflow or injected OOM
  kPublishRefused,  // registry only: a write raced the rebuild
};

class Harness {
 public:
  virtual ~Harness() = default;

  virtual uint64_t length() const = 0;
  virtual uint32_t bits() const = 0;

  // ---- write paths ----
  virtual void Init(uint64_t index, uint64_t value) = 0;
  virtual void InitAtomic(uint64_t index, uint64_t value) { Init(index, value); }

  // ---- read paths ----
  // Virtual-dispatch read; `replica` selects the socket whose copy is read
  // (modulo the actual replica count).
  virtual uint64_t Get(uint64_t index, uint64_t replica) = 0;
  // Bits-branched codec read (the *WithBits / dispatch-table path).
  virtual uint64_t GetCodec(uint64_t index) = 0;
  // Decode one whole chunk into out[0..63]. False when the variant has no
  // unpack surface (registry snapshots).
  virtual bool Unpack(uint64_t chunk, uint64_t* out) {
    (void)chunk;
    (void)out;
    return false;
  }
  // Bulk decode of [begin, end) through the streaming seam (UnpackRange).
  // False when the variant has no bulk surface (registry snapshots,
  // synchronized arrays).
  virtual bool UnpackRange(uint64_t begin, uint64_t end, uint64_t* out) {
    (void)begin;
    (void)end;
    (void)out;
    return false;
  }
  // Bulk encode twin (PackRange): writes in[0 .. end-begin) to [begin, end)
  // of every replica. False when unsupported.
  virtual bool PackRange(uint64_t begin, uint64_t end, const uint64_t* in) {
    (void)begin;
    (void)end;
    (void)in;
    return false;
  }
  // Iterator scan of [start, start+count) into out. False when unsupported.
  virtual bool IterRead(uint64_t start, uint64_t count, uint64_t* out) {
    (void)start;
    (void)count;
    (void)out;
    return false;
  }
  // Chunk-granular block-kernel sum (AVX2 when the host dispatches to it).
  virtual uint64_t SumRange(uint64_t begin, uint64_t end) = 0;

  // ---- pushdown scans (scan_ops scenarios) ----
  // False when the variant has no scan surface. SelectIf fills `bitmap`
  // ((end-begin+63)/64 caller-provided words) with bit j = element begin+j
  // matches; all three report the match count / filtered sum via `result`.
  virtual bool CountIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* result) {
    (void)begin;
    (void)end;
    (void)p;
    (void)result;
    return false;
  }
  virtual bool SelectIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* bitmap,
                        uint64_t* result) {
    (void)begin;
    (void)end;
    (void)p;
    (void)bitmap;
    (void)result;
    return false;
  }
  virtual bool FilteredSum(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* result) {
    (void)begin;
    (void)end;
    (void)p;
    (void)result;
    return false;
  }

  // ---- variant-specific ----
  // Chunk-locked read-modify-write (SynchronizedArray only).
  virtual uint64_t FetchAdd(uint64_t index, uint64_t delta);
  // Rebuild under (placement, bits), preserving contents.
  virtual RestructureResult Restructure(smart::PlacementSpec placement, uint32_t bits);

  // ---- snapshot protocol (registry variants; nullptr when unsupported) ----
  virtual void* SnapshotPin() { return nullptr; }
  virtual uint64_t SnapshotGet(void* snap, uint64_t index);
  virtual uint64_t SnapshotSum(void* snap, uint64_t begin, uint64_t end);
  virtual uint32_t SnapshotBits(void* snap);
  virtual void SnapshotUnpin(void* snap);

  // Raw slot handle for concurrent reader threads (registry variants).
  virtual runtime::ArraySlot* slot() { return nullptr; }

  // Multi-slot registry scenarios: routes every subsequent op to slot
  // `slot % num_slots`. No-op for single-array variants.
  virtual void SelectSlot(int slot) { (void)slot; }

  // Owning registry (registry variants; nullptr otherwise) — what a
  // concurrent_daemon scenario hands to the AdaptationDaemon.
  virtual runtime::ArrayRegistry* registry() { return nullptr; }
};

std::unique_ptr<Harness> MakeHarness(const Scenario& scenario, TestContext& ctx);

}  // namespace sa::testkit

#endif  // SA_TESTKIT_HARNESS_H_
