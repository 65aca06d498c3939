#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

// Bounds the traced run's memory: about 32 MB of spans.
constexpr size_t kMaxSpans = size_t{1} << 20;

struct ThreadBuffer {
  std::vector<Span> spans;
  uint16_t tid = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_next_id{1};
std::atomic<size_t> g_stored{0};
std::atomic<uint64_t> g_dropped{0};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint32_t t_current = 0;  // innermost open span on this thread
thread_local uint32_t t_op = 0;       // op the innermost open span belongs to

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Record(const Span& span) {
  if (g_stored.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->tid = static_cast<uint16_t>(g_buffers.size());
    t_buffer->spans.reserve(4096);
  }
  t_buffer->spans.push_back(span);
  t_buffer->spans.back().tid = t_buffer->tid;
}

void AppendF(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void AppendF(std::string* out, const char* fmt, ...) {
  char buf[320];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kSmart:
      return "smart";
    case Layer::kRts:
      return "rts";
    case Layer::kRuntime:
      return "runtime";
    case Layer::kAdapt:
      return "adapt";
    case Layer::kGraph:
      return "graph";
    case Layer::kTable:
      return "table";
  }
  return "unknown";
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = s.parent != 0 ? index_of.find(s.parent) : index_of.end();
    if (it != index_of.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(lo, spans[i].end_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t run_begin = 0;
    uint64_t run_end = 0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::clamp(b, lo, hi);
      e = std::clamp(e, lo, hi);
      if (b >= e) {
        continue;
      }
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) {
        covered += run_end - run_begin;
      }
      run_begin = b;
      run_end = e;
      open = true;
    }
    if (open) {
      covered += run_end - run_begin;
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<Span>& spans, size_t max_events) {
  const size_t n = std::min(spans.size(), max_events);
  uint64_t origin = ~uint64_t{0};
  for (size_t i = 0; i < n; ++i) {
    origin = std::min(origin, spans[i].start_ns);
  }
  std::string out;
  out.reserve(64 + n * 200);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    AppendF(&out,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
            "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%" PRIu32 ",\"parent\":%" PRIu32
            ",\"op\":%" PRIu32 ",\"work\":%" PRIu64 "}}",
            i == 0 ? "" : ",", s.name, LayerName(s.layer),
            static_cast<double>(s.start_ns - origin) / 1000.0, static_cast<double>(dur) / 1000.0,
            static_cast<unsigned>(s.tid), s.id, s.parent, s.op, s.work);
  }
  AppendF(&out, "],\"truncated\":%zu,\"dropped\":%" PRIu64 "}", spans.size() - n,
          tracer::Dropped());
  return out;
}

namespace tracer {

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& buffer : g_buffers) {
    buffer->spans.clear();
  }
  g_stored.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
}

std::vector<Span> Collect() {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& buffer : g_buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

uint64_t Dropped() { return g_dropped.load(std::memory_order_relaxed); }

}  // namespace tracer

ScopedSpan::ScopedSpan(Layer layer, const char* name, uint64_t work, bool sample) {
  if (!sample || !tracer::Enabled()) {
    return;
  }
  active_ = true;
  implicit_ = true;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current;
  span_.op = t_op != 0 ? t_op : span_.id;
  span_.layer = layer;
  span_.name = name;
  span_.work = work;
  saved_current_ = t_current;
  saved_op_ = t_op;
  t_current = span_.id;
  t_op = span_.op;
  span_.start_ns = NowNs();
}

ScopedSpan::ScopedSpan(Layer layer, const char* name, uint32_t parent, uint32_t op,
                       uint64_t work) {
  if (parent == 0 || !tracer::Enabled()) {
    return;
  }
  active_ = true;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  span_.op = op;
  span_.layer = layer;
  span_.name = name;
  span_.work = work;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  span_.end_ns = NowNs();
  if (implicit_) {
    t_current = saved_current_;
    t_op = saved_op_;
  }
  Record(span_);
}

}  // namespace perfbench
