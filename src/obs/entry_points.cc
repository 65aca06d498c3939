#include "obs/entry_points.h"

#include <cstring>
#include <mutex>

#include "obs/export.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace {

void CopyName(char (&dst)[48], const char* src) {
  std::strncpy(dst, src, sizeof(dst) - 1);
  dst[sizeof(dst) - 1] = '\0';
}

// Process-global drain cursor shared by every saObsTraceDrain caller.
std::mutex g_drain_mu;
uint64_t g_drain_cursor = 0;

}  // namespace

extern "C" {

int saObsSnapshot(SaObsMetric* out, int cap) {
  using namespace sa::obs;
  const int total = static_cast<int>(kCounterIdCount) + static_cast<int>(kGaugeIdCount);
  int written = 0;
  for (int i = 0; i < kCounterIdCount && written < cap; ++i, ++written) {
    const CounterId id = static_cast<CounterId>(i);
    SaObsMetric& m = out[written];
    std::memset(&m, 0, sizeof(m));
    CopyName(m.name, CounterName(id));
    m.value = CounterValue(id);
    m.kind = SA_OBS_METRIC_COUNTER;
  }
  for (int i = 0; i < kGaugeIdCount && written < cap; ++i, ++written) {
    const GaugeId id = static_cast<GaugeId>(i);
    SaObsMetric& m = out[written];
    std::memset(&m, 0, sizeof(m));
    CopyName(m.name, GaugeName(id));
    m.value = static_cast<uint64_t>(GaugeValue(id));
    m.kind = SA_OBS_METRIC_GAUGE;
  }
  return total;
}

int saObsHistograms(SaObsHistogramEntry* out, int cap) {
  using namespace sa::obs;
  static_assert(sizeof(out->buckets) / sizeof(out->buckets[0]) == kHistBuckets);
  for (int i = 0; i < kHistogramIdCount && i < cap; ++i) {
    const HistogramId id = static_cast<HistogramId>(i);
    SaObsHistogramEntry& e = out[i];
    std::memset(&e, 0, sizeof(e));
    CopyName(e.name, HistogramName(id));
    const HistogramSnapshot snap = HistogramValue(id);
    e.count = snap.count;
    e.sum = snap.sum;
    std::memcpy(e.buckets, snap.buckets, sizeof(e.buckets));
  }
  return sa::obs::kHistogramIdCount;
}

uint64_t saObsCounterByName(const char* name) {
  using namespace sa::obs;
  if (name == nullptr) {
    return 0;
  }
  for (int i = 0; i < kCounterIdCount; ++i) {
    const CounterId id = static_cast<CounterId>(i);
    if (std::strcmp(name, CounterName(id)) == 0) {
      return CounterValue(id);
    }
  }
  if (std::strcmp(name, "sa_trace_events_total") == 0) {
    return TraceHead();
  }
  if (std::strcmp(name, "sa_trace_dropped_total") == 0) {
    return TraceDropped();
  }
  return 0;
}

int saObsTraceDrain(SaObsTraceEvent* out, int cap) {
  static_assert(sizeof(SaObsTraceEvent) == sizeof(sa::obs::TraceEvent));
  if (out == nullptr || cap <= 0) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(g_drain_mu);
  return static_cast<int>(sa::obs::TraceDrain(
      &g_drain_cursor, reinterpret_cast<sa::obs::TraceEvent*>(out),
      static_cast<size_t>(cap)));
}

uint64_t saObsTraceDropped() { return sa::obs::TraceDropped(); }

uint64_t saObsTraceExportJson(char* buf, uint64_t cap) {
  const std::string text = sa::obs::ChromeTraceJson();
  if (buf != nullptr && cap > 0) {
    const uint64_t n = text.size() < cap - 1 ? text.size() : cap - 1;
    std::memcpy(buf, text.data(), n);
    buf[n] = '\0';
  }
  return text.size();
}

const char* saObsTraceKindName(uint32_t kind) {
  return sa::obs::TraceKindName(kind);
}

uint64_t saObsPrometheusText(char* buf, uint64_t cap) {
  const std::string text = sa::obs::PrometheusText();
  if (buf != nullptr && cap > 0) {
    const uint64_t n = text.size() < cap - 1 ? text.size() : cap - 1;
    std::memcpy(buf, text.data(), n);
    buf[n] = '\0';
  }
  return text.size();
}

void saObsSetEnabled(int enabled) { sa::obs::SetEnabled(enabled != 0); }

int saObsGetEnabled() { return sa::obs::Enabled() ? 1 : 0; }

int saObsCompiledIn() { return sa::obs::kCompiledIn ? 1 : 0; }

void saObsReset() {
  std::lock_guard<std::mutex> lock(g_drain_mu);
  sa::obs::ResetForTesting();
  sa::obs::TraceResetForTesting();
  sa::obs::ChromeTraceReset();
  g_drain_cursor = 0;
}

}  // extern "C"
