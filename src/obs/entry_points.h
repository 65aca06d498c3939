// C-ABI entry points to the telemetry subsystem — stable struct layouts so a
// foreign runtime (or a scraper dlopen-ing the library) can read counters,
// histograms and the adaptation trace without re-implementing aggregation,
// mirroring the §4.3 entry-point philosophy of smart/runtime entry_points.
//
// All functions are safe to call at any time, including concurrently with
// instrumented hot paths.
#ifndef SA_OBS_ENTRY_POINTS_H_
#define SA_OBS_ENTRY_POINTS_H_

#include <cstdint>

extern "C" {

// ---- Metric snapshot ----

// kind discriminator for SaObsMetric.
enum : uint32_t {
  SA_OBS_METRIC_COUNTER = 0,
  SA_OBS_METRIC_GAUGE = 1,
};

struct SaObsMetric {
  char name[48];   // NUL-terminated Prometheus family name
  uint64_t value;  // gauges are int64 stored two's-complement
  uint32_t kind;   // SA_OBS_METRIC_COUNTER / SA_OBS_METRIC_GAUGE
  uint32_t reserved;
};

// Writes up to cap aggregated metrics (counters first, then gauges) and
// returns the total number available; call with cap == 0 to size a buffer.
// Counters are monotonic across repeated snapshots.
int saObsSnapshot(SaObsMetric* out, int cap);

struct SaObsHistogramEntry {
  char name[48];
  uint64_t count;
  uint64_t sum;
  // buckets[0] counts value 0; buckets[i] (1 <= i <= 64) counts values in
  // [2^(i-1), 2^i). Non-cumulative.
  uint64_t buckets[65];
};

int saObsHistograms(SaObsHistogramEntry* out, int cap);

// Aggregated value of a single counter family by its exported name
// (e.g. "sa_publishes_total"); 0 for unknown names.
uint64_t saObsCounterByName(const char* name);

// ---- Trace ----

// Mirrors sa::obs::TraceEvent (10 u64 words, 80 bytes).
struct SaObsTraceEvent {
  uint64_t seq;
  uint64_t ns;
  uint32_t kind;   // see saObsTraceKindName
  uint32_t shard;
  char slot[24];
  uint64_t a;
  uint64_t b;
  uint64_t c;
  uint64_t d;
};

// Drains completed trace events past the process-global drain cursor into
// out (at most cap); returns the number written. Serialized internally, so
// concurrent drainers each see a disjoint slice of the stream.
int saObsTraceDrain(SaObsTraceEvent* out, int cap);

// Events lost to ring wraparound before any drainer reached them.
uint64_t saObsTraceDropped();

// Chrome trace-event JSON of the adaptation timeline (loadable in Perfetto
// or chrome://tracing): drains newly completed ring events into an internal
// accumulator (its own cursor — independent of saObsTraceDrain) and renders
// the accumulated timeline. Same buffer contract as saObsPrometheusText:
// copies at most cap-1 bytes plus a NUL into buf (when cap > 0) and returns
// the full untruncated length; call with buf == NULL to size. Events that
// belong to one adaptation share an args.trace_id.
uint64_t saObsTraceExportJson(char* buf, uint64_t cap);

const char* saObsTraceKindName(uint32_t kind);

// ---- Exposition / control ----

// Prometheus text dump. Copies at most cap-1 bytes plus a NUL into buf (when
// cap > 0) and returns the full untruncated length.
uint64_t saObsPrometheusText(char* buf, uint64_t cap);

// Runtime kill switch for the instrumentation hot path (default enabled).
void saObsSetEnabled(int enabled);
int saObsGetEnabled();

// Zeroes all counters, gauges, histograms, the trace ring and the global
// drain cursor. Intended for tests and demos, not concurrent production use.
void saObsReset();

}  // extern "C"

#endif  // SA_OBS_ENTRY_POINTS_H_
