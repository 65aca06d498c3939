#ifndef SA_OBS_TRACE_H_
#define SA_OBS_TRACE_H_

// Lossy ring-buffered trace events covering the full adaptation lifecycle:
// sample-drain -> selector decision -> restructure begin/end -> publish ->
// epoch advance/reclaim. Writers claim a global sequence number and publish
// an 80-byte event into a fixed ring with a per-cell sequence-validated
// protocol; every word of a cell is an atomic, so concurrent emit/drain is
// race-free (TSan-clean) and torn or overwritten cells are detected and
// counted as dropped rather than surfaced.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/telemetry.h"

namespace sa::obs {

// Append-only; the C-ABI exposes these values verbatim.
//
// Causality: the daemon allocates one *trace id* per adaptation attempt and
// threads it through every event of that attempt (sample_drain -> decision
// -> restructure begin/end -> publish -> version_reclaim). The TraceEvent
// layout is frozen at 10 u64 words, so the id rides the high bits of an
// otherwise flag-valued payload word — consumers mask the documented low
// bits for the flag and shift for the id (saObsTraceExportJson does this
// when it rebuilds the per-adaptation span timeline). Id 0 means "not part
// of a threaded adaptation" (e.g. hand-emitted test events).
enum TraceKind : uint32_t {
  kTraceNone = 0,
  kTraceSampleDrain = 1,    // a=reads, b=writes, c=seconds*1e6,
                            // d=dropped flag | trace id << 1
  kTraceDecision = 2,       // a=packed old cfg, b=packed new cfg,
                            // c=reason (TraceDecisionReason) | trace id << 8,
                            // d=win ppm
  kTraceRestructureBegin = 3,  // a=packed old cfg, b=packed new cfg,
                               // c=trace id
  kTraceRestructureEnd = 4,    // a=wall ns, b=unpack ns, c=pack ns,
                               // d=(1 success / 0 abort) | trace id << 1
  kTracePublish = 5,        // a=new version sequence, b=1 ok / 0 refused,
                            // c=trace id
  kTraceEpochAdvance = 6,   // a=new epoch
  kTraceEpochReclaim = 7,   // a=freed count, b=epoch at reclaim
  kTraceFlapHold = 8,       // a=packed cur cfg, b=packed (held) chosen cfg,
                            // c=trace id, d=hold-down decisions remaining
  kTraceVersionReclaim = 9,  // a=retired version sequence, c=trace id of the
                             // publish that retired it (0 = untracked)
  kTraceKindCount,
};

enum TraceDecisionReason : uint64_t {
  kDecisionAccepted = 0,
  kDecisionRejectSameConfig = 1,
  kDecisionRejectMargin = 2,
  kDecisionFlapHold = 3,
};

// Mirrors the C-ABI SaObsTraceEvent layout exactly (10 u64 words).
struct TraceEvent {
  uint64_t seq;    // global emission order
  uint64_t ns;     // steady-clock nanoseconds at emission
  uint32_t kind;   // TraceKind
  uint32_t shard;  // emitting thread's telemetry shard
  char slot[24];   // NUL-truncated slot name ("" when not slot-scoped)
  uint64_t a;
  uint64_t b;
  uint64_t c;
  uint64_t d;
};
static_assert(sizeof(TraceEvent) == 80, "TraceEvent must stay 10 u64 words");

inline constexpr size_t kTraceCapacity = 4096;  // power of two
inline constexpr size_t kTraceWords = sizeof(TraceEvent) / sizeof(uint64_t);

// No-op unless Enabled().
void EmitTrace(TraceKind kind, const char* slot, uint64_t a = 0,
               uint64_t b = 0, uint64_t c = 0, uint64_t d = 0);

// Copies completed events with seq >= *cursor into out (at most cap),
// advancing *cursor past everything consumed or skipped. Events overwritten
// before they could be drained are skipped and added to TraceDropped().
// Stops early at an in-flight cell. Returns the number of events copied.
size_t TraceDrain(uint64_t* cursor, TraceEvent* out, size_t cap);

// Total events ever emitted (== next sequence number).
uint64_t TraceHead();

// Events lost to ring wraparound or torn-cell skips, across all cursors.
uint64_t TraceDropped();

const char* TraceKindName(uint32_t kind);

void TraceResetForTesting();

#define SA_OBS_TRACE(kind, slot, ...) \
  ::sa::obs::EmitTrace(::sa::obs::kind, (slot), ##__VA_ARGS__)

}  // namespace sa::obs

#endif  // SA_OBS_TRACE_H_
