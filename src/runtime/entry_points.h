// C-ABI entry points to the online-adaptation runtime (registry, snapshots,
// daemon) — the §3.2 thin-API pattern applied to the runtime subsystem.
//
// Like smart/entry_points.h, these are exception-free scalar-argument
// boundary functions so MiniVM/interop clients (or any runtime loading the
// library) transparently benefit from online adaptation: a guest language
// opens a named slot, pins a snapshot, reads through it, and never observes
// a restructure in progress.
//
// Handle discipline:
//  * registry handles own a topology, a worker pool, the slot table and an
//    optional daemon; free with saRegistryFree after all snapshots are
//    unpinned and the daemon is stopped.
//  * slot handles are borrowed from the registry (do not free).
//  * snapshot handles own an epoch pin; every saSlotPin must be paired with
//    saSnapshotUnpin, from the same thread that pinned.
#ifndef SA_RUNTIME_ENTRY_POINTS_H_
#define SA_RUNTIME_ENTRY_POINTS_H_

#include <cstdint>

extern "C" {

// ---- Registry lifecycle ----
// sockets == 0 selects the host topology.
void* saRegistryCreate(int sockets, int cpus_per_socket);
// Like saRegistryCreate, with a sharded control plane: slot names hash to
// one of `shards` (rounded up to a power of two) independent contention
// domains — per-shard mutex, name index, and epoch domain. shards <= 1
// behaves exactly like saRegistryCreate.
void* saRegistryCreateSharded(int sockets, int cpus_per_socket, int shards);
void saRegistryFree(void* reg);

// Creates a named array slot. Placement flags mirror saArrayAllocate:
// `pinned` is the target socket or -1; flags are mutually exclusive, none
// selects the OS default policy. Returns a borrowed slot handle, or NULL
// (without aborting) for a NULL name, length 0, bits outside 1..64,
// combined placement flags, a pinned socket outside the registry's
// topology, or a name that is already defined.
void* saRegistryDefine(void* reg, const char* name, uint64_t length, int replicated,
                       int interleaved, int pinned, uint32_t bits);

// Looks up a slot by name; NULL when absent or when name is NULL. Borrowed
// handle.
void* saRegistryOpen(void* reg, const char* name);

int saRegistryCount(void* reg);

// Frees retired storage whose reader epochs have drained; returns the
// number of versions reclaimed.
uint64_t saRegistryReclaim(void* reg);
// Smallest epoch across the registry's shard domains (single-shard: the
// global epoch, as before).
uint64_t saRegistryEpoch(void* reg);

// ---- Shard plane (saturation visibility) ----
int saRegistryShards(void* reg);
// Slots with undrained workload samples queued on `shard` (-1 on a bad
// shard index).
int64_t saRegistryShardQueueDepth(void* reg, int shard);
// Retired storage versions awaiting reclamation on `shard`'s epoch domain.
int64_t saRegistryShardRetired(void* reg, int shard);

// By-name snapshot acquisition in one call: hashes the name once and probes
// the owning shard's lock-free index under an epoch pin — the multi-tenant
// reader hot path. NULL when the name is NULL or unknown, or the shard's pin
// slots are exhausted (admission control). Unpin with saSnapshotUnpin.
void* saRegistryAcquire(void* reg, const char* name);

// ---- Adaptation daemon ----
// Supplies the machine specification the §6 selector reasons against
// (bytes of memory per socket, aggregate cycles/s per socket, memory and
// interconnect bandwidth in bytes/s). Defaults to the paper's 18-core
// machine; call before the first daemon start / adapt-once, non-positive
// values keep the corresponding default.
void saRegistryConfigureMachine(void* reg, double mem_bytes_per_socket,
                                double exec_cycles_per_socket, double bw_memory,
                                double bw_interconnect);

// Starts the background adaptation thread (idempotent). interval_ms <= 0
// selects the default; min_predicted_win < 0 selects the default margin.
void saRegistryDaemonStart(void* reg, double interval_ms, double min_predicted_win);
// Like saRegistryDaemonStart with an explicit worker-thread count (<= 0
// selects 1). Workers claim due shards (own shards first, then steal).
void saRegistryDaemonStartWorkers(void* reg, double interval_ms, double min_predicted_win,
                                  int workers);
void saRegistryDaemonStop(void* reg);
// One synchronous adaptation pass; returns the number of slots
// restructured. Usable with or without the background thread.
int saRegistryAdaptOnce(void* reg);
uint64_t saRegistryAdaptations(void* reg);

// ---- Slot (stable identity) ----
uint64_t saSlotLength(const void* slot);
// Current storage properties; racy against the daemon by nature.
uint32_t saSlotBits(const void* slot);
int saSlotIsReplicated(const void* slot);
// Restructure generation of the current storage (0 = as created).
uint64_t saSlotSequence(const void* slot);

// Thread-safe element write into the current representation. Serializes
// with other writers and with the daemon's publish; the current
// representation must admit the value (its width, or its chunk frame).
void saSlotWrite(void* slot, uint64_t index, uint64_t value);

// Read-modify-write under the slot's writer lock: returns the previous
// value and stores (old + delta) wrapped at the slot's declared width.
// Aborts when the current representation does not admit the result.
uint64_t saSlotFetchAdd(void* slot, uint64_t index, uint64_t delta);

// ---- Decision audit (explain) ----

// Audit-ring capacity: saSlotExplain never yields more than this many
// decisions (runtime/audit.h keeps the last 8 per slot).
enum : uint32_t { SA_EXPLAIN_MAX_DECISIONS = 8 };

// One adaptation decision, flattened for the C boundary. Configuration
// words use the shared trace packing (adapt::PackConfigWord):
//   encoding << 24 | bits << 16 | placement kind << 8 | socket & 0xff.
struct SaSlotDecision {
  uint64_t trace_id;  // links to SaObsTraceEvent payload ids (0 = untracked)
  uint64_t ns;        // steady-clock nanoseconds at decision time
  // Outcome: reason holds an adapt::DecisionReason value (0 accepted,
  // 1 reject-same-config, 2 reject-margin, 3 flap-hold).
  uint32_t reason;
  uint32_t published;  // accepted and the rebuilt storage actually published
  uint64_t published_sequence;
  // Margin math.
  uint64_t packed_current;
  uint64_t packed_chosen;
  double current_speedup;
  double chosen_speedup;
  double margin;
  double predicted_win;  // chosen_speedup / current_speedup - 1
  // Every candidate the selector weighed (role is NUL-terminated:
  // "uncompressed" / "compressed" / "current").
  uint32_t num_candidates;
  uint32_t reserved;
  uint64_t candidate_config[4];
  double candidate_speedup[4];
  char candidate_role[4][16];
  // Selector inputs snapshot (the load the decision reasoned about).
  double in_accesses_per_second;
  double in_random_fraction;
  double in_mem_utilization;
  double in_ic_utilization;
  double in_compression_ratio;
  double in_for_delta_ratio;
  uint32_t in_read_only;
  uint32_t in_mostly_reads;
  // Calibration score (valid when scored != 0): realized post/pre access
  // rate vs the predicted speedup ratio.
  uint32_t scored;
  uint32_t reserved2;
  double pre_rate;
  double post_rate;
  double predicted_ratio;
  double realized_ratio;
  double calibration_error;
};

// Copies up to cap audit-ring decisions for the slot into out, most recent
// first, and returns the total number of decisions ever recorded (which may
// exceed both cap and SA_EXPLAIN_MAX_DECISIONS; the copied count is
// min(cap, total, SA_EXPLAIN_MAX_DECISIONS)). Returns 0 when the slot has
// no audit state yet — the daemon has never decided on it, or runs with
// audit off. cap == 0 (out may be NULL) is a cheap "any decisions?" probe.
// Works with telemetry off (saObsSetEnabled(0)): the audit plane is runtime
// state, not telemetry.
uint64_t saSlotExplain(void* slot, SaSlotDecision* out, uint64_t cap);

// Copies the newest *published* decision — the one behind the slot's live
// configuration — into out (may be NULL for a probe) and returns 1, or
// returns 0 when the slot has never published an audited decision. Unlike
// saSlotExplain this survives ring eviction: under reject-heavy traffic the
// accepted record ages out of the 8-deep ring, but the slot keeps a copy
// that also receives its realized-vs-predicted calibration score. Works
// with telemetry off.
uint32_t saSlotExplainPublished(void* slot, SaSlotDecision* out);

// ---- Snapshot (consistent read view) ----
// Pins the slot's current representation; all reads through the returned
// handle observe exactly that representation.
void* saSlotPin(void* slot);
// Like saSlotPin, but returns NULL instead of aborting when the slot's
// epoch domain has no free pin slots.
void* saSlotTryPin(void* slot);
void saSnapshotUnpin(void* snap);

// Aborts with "index out of range" unless index < saSnapshotLength(snap).
uint64_t saSnapshotRead(void* snap, uint64_t index);
// Chunk-granular block-kernel sum over [begin, end).
uint64_t saSnapshotSumRange(void* snap, uint64_t begin, uint64_t end);

// ---- Pushdown scans over a pinned snapshot ----
// Same predicate ABI as saArrayCountIf (`op`: 0 ==, 1 !=, 2 <, 3 <=, 4 >,
// 5 >=); the scans feed the slot's selectivity sample like the native
// ArraySnapshot scan calls.
uint64_t saSnapshotCountIf(void* snap, uint64_t begin, uint64_t end, int op,
                           uint64_t constant);
// Bitmap semantics follow saArraySelectIf: bit j describes element begin+j,
// `bitmap_words` must cover (end - begin + 63) / 64 words (hard-checked).
uint64_t saSnapshotSelectIf(void* snap, uint64_t begin, uint64_t end, int op,
                            uint64_t constant, uint64_t* bitmap, uint64_t bitmap_words);
uint64_t saSnapshotFilteredSum(void* snap, uint64_t begin, uint64_t end, int op,
                               uint64_t constant);

uint64_t saSnapshotLength(const void* snap);
uint32_t saSnapshotBits(const void* snap);
uint64_t saSnapshotSequence(const void* snap);

}  // extern "C"

#endif  // SA_RUNTIME_ENTRY_POINTS_H_
