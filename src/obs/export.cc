#include "obs/export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sa::obs {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, static_cast<size_t>(n) < sizeof(buf)
                         ? static_cast<size_t>(n)
                         : sizeof(buf) - 1);
  }
}

void AppendCounterFamily(std::string* out, const char* name, uint64_t value) {
  AppendF(out, "# TYPE %s counter\n%s %" PRIu64 "\n", name, name, value);
}

}  // namespace

std::string PrometheusText() {
  std::string out;
  out.reserve(8192);
  for (int i = 0; i < kCounterIdCount; ++i) {
    const CounterId id = static_cast<CounterId>(i);
    AppendCounterFamily(&out, CounterName(id), CounterValue(id));
  }
  AppendCounterFamily(&out, "sa_trace_events_total", TraceHead());
  AppendCounterFamily(&out, "sa_trace_dropped_total", TraceDropped());
  for (int i = 0; i < kGaugeIdCount; ++i) {
    const GaugeId id = static_cast<GaugeId>(i);
    AppendF(&out, "# TYPE %s gauge\n%s %" PRId64 "\n", GaugeName(id),
            GaugeName(id), GaugeValue(id));
  }
  for (int i = 0; i < kHistogramIdCount; ++i) {
    const HistogramId id = static_cast<HistogramId>(i);
    const char* name = HistogramName(id);
    const HistogramSnapshot snap = HistogramValue(id);
    AppendF(&out, "# TYPE %s histogram\n", name);
    uint64_t cumulative = 0;
    for (int b = 0; b < kHistBuckets; ++b) {
      cumulative += snap.buckets[b];
      if (b == kHistBuckets - 1) {
        AppendF(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name, cumulative);
      } else if (b < 2) {
        // Bucket 0 holds value 0; bucket 1 holds value 1.
        AppendF(&out, "%s_bucket{le=\"%d\"} %" PRIu64 "\n", name, b, cumulative);
      } else {
        // Bucket b (2..63) holds bit_width==b values, upper bound 2^b - 1.
        AppendF(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", name,
                (uint64_t{1} << b) - 1, cumulative);
      }
    }
    AppendF(&out, "%s_sum %" PRIu64 "\n", name, snap.sum);
    AppendF(&out, "%s_count %" PRIu64 "\n", name, snap.count);
  }
  return out;
}

std::string JsonText() {
  std::string out;
  out.reserve(4096);
  out += "{\"enabled\":";
  out += Enabled() ? "true" : "false";
  out += ",\"counters\":{";
  for (int i = 0; i < kCounterIdCount; ++i) {
    const CounterId id = static_cast<CounterId>(i);
    AppendF(&out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",", CounterName(id),
            CounterValue(id));
  }
  out += "},\"gauges\":{";
  for (int i = 0; i < kGaugeIdCount; ++i) {
    const GaugeId id = static_cast<GaugeId>(i);
    AppendF(&out, "%s\"%s\":%" PRId64, i == 0 ? "" : ",", GaugeName(id),
            GaugeValue(id));
  }
  out += "},\"histograms\":{";
  for (int i = 0; i < kHistogramIdCount; ++i) {
    const HistogramId id = static_cast<HistogramId>(i);
    const HistogramSnapshot snap = HistogramValue(id);
    AppendF(&out, "%s\"%s\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 "}",
            i == 0 ? "" : ",", HistogramName(id), snap.count, snap.sum);
  }
  AppendF(&out,
          "},\"trace\":{\"events\":%" PRIu64 ",\"dropped\":%" PRIu64 "}}",
          TraceHead(), TraceDropped());
  return out;
}

namespace {

// Accumulator behind ChromeTraceJson: its own drain cursor (independent of
// the C-ABI saObsTraceDrain cursor, so exporting never steals events from a
// raw drainer) plus the events drained so far. Bounded: a demo/CLI-lifetime
// tool, not a production sink.
constexpr size_t kChromeTraceMaxEvents = 1 << 16;
std::mutex g_chrome_mu;
uint64_t g_chrome_cursor = 0;
uint64_t g_chrome_truncated = 0;
std::vector<TraceEvent> g_chrome_events;

// The per-adaptation trace id threaded through an event's payload words
// (trace.h documents the per-kind packing); 0 = not part of an adaptation.
uint64_t TraceIdOf(const TraceEvent& ev) {
  switch (ev.kind) {
    case kTraceSampleDrain:
      return ev.d >> 1;
    case kTraceDecision:
      return ev.c >> 8;
    case kTraceRestructureBegin:
      return ev.c;
    case kTraceRestructureEnd:
      return ev.d >> 1;
    case kTracePublish:
      return ev.c;
    case kTraceFlapHold:
      return ev.c;
    case kTraceVersionReclaim:
      return ev.c;
    default:
      return 0;
  }
}

void AppendJsonString(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      AppendF(out, "\\u%04x", c);
    } else {
      out->push_back(static_cast<char>(c));
    }
  }
  out->push_back('"');
}

void AppendChromeEvent(std::string* out, const TraceEvent& ev) {
  // "X" (complete) events: restructures get their measured wall time as the
  // span; point events get a nominal 1us slice so every row renders.
  uint64_t start_ns = ev.ns;
  double dur_us = 1.0;
  if (ev.kind == kTraceRestructureEnd && ev.a > 0 && ev.a < ev.ns) {
    start_ns = ev.ns - ev.a;  // a = wall ns; emitted at completion
    dur_us = static_cast<double>(ev.a) / 1000.0;
  }
  AppendF(out, "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,",
          TraceKindName(ev.kind), static_cast<double>(start_ns) / 1000.0, dur_us, ev.shard);
  out->append("\"args\":{\"slot\":");
  AppendJsonString(out, ev.slot);
  AppendF(out, ",\"seq\":%" PRIu64, ev.seq);
  const uint64_t trace_id = TraceIdOf(ev);
  if (trace_id != 0) {
    AppendF(out, ",\"trace_id\":%" PRIu64, trace_id);
  }
  switch (ev.kind) {
    case kTraceSampleDrain:
      AppendF(out, ",\"reads\":%" PRIu64 ",\"writes\":%" PRIu64 ",\"interval_us\":%" PRIu64
                   ",\"thin\":%" PRIu64,
              ev.a, ev.b, ev.c, ev.d & 1);
      break;
    case kTraceDecision:
      AppendF(out, ",\"cfg_current\":%" PRIu64 ",\"cfg_chosen\":%" PRIu64 ",\"reason\":%" PRIu64
                   ",\"win_ppm\":%" PRIu64,
              ev.a, ev.b, ev.c & 0xff, ev.d);
      break;
    case kTraceRestructureBegin:
      AppendF(out, ",\"cfg_current\":%" PRIu64 ",\"cfg_chosen\":%" PRIu64, ev.a, ev.b);
      break;
    case kTraceRestructureEnd:
      AppendF(out, ",\"wall_ns\":%" PRIu64 ",\"unpack_ns\":%" PRIu64 ",\"pack_ns\":%" PRIu64
                   ",\"ok\":%" PRIu64,
              ev.a, ev.b, ev.c, ev.d & 1);
      break;
    case kTracePublish:
      AppendF(out, ",\"sequence\":%" PRIu64 ",\"ok\":%" PRIu64, ev.a, ev.b);
      break;
    case kTraceFlapHold:
      AppendF(out, ",\"cfg_current\":%" PRIu64 ",\"cfg_held\":%" PRIu64
                   ",\"hold_remaining\":%" PRIu64,
              ev.a, ev.b, ev.d);
      break;
    case kTraceVersionReclaim:
      AppendF(out, ",\"sequence\":%" PRIu64, ev.a);
      break;
    default:
      AppendF(out, ",\"a\":%" PRIu64 ",\"b\":%" PRIu64, ev.a, ev.b);
      break;
  }
  out->append("}}");
}

}  // namespace

std::string ChromeTraceJson() {
  std::lock_guard<std::mutex> lock(g_chrome_mu);
  TraceEvent batch[256];
  for (;;) {
    const size_t n = TraceDrain(&g_chrome_cursor, batch, 256);
    if (n == 0) {
      break;
    }
    for (size_t i = 0; i < n; ++i) {
      if (g_chrome_events.size() >= kChromeTraceMaxEvents) {
        ++g_chrome_truncated;
      } else {
        g_chrome_events.push_back(batch[i]);
      }
    }
  }
  std::string out;
  out.reserve(128 + g_chrome_events.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < g_chrome_events.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    AppendChromeEvent(&out, g_chrome_events[i]);
  }
  AppendF(&out, "],\"truncated\":%" PRIu64 ",\"dropped\":%" PRIu64 "}", g_chrome_truncated,
          TraceDropped());
  return out;
}

void ChromeTraceReset() {
  std::lock_guard<std::mutex> lock(g_chrome_mu);
  g_chrome_cursor = 0;
  g_chrome_truncated = 0;
  g_chrome_events.clear();
}

}  // namespace sa::obs
