// In-memory span tracer for the benchmark's traced run.
//
// Spans are recorded only around the calls the benchmark itself makes into
// a library layer (op, query or algorithm, loop, grain, acquire, release,
// write); nothing inside the library is instrumented. Each thread appends to
// its own buffer, and the buffers are merged once the traced window ends.
// A span's self time is its duration minus the union of its children's
// intervals, so a loop span whose grains ran on other workers is charged
// only for the time no grain covered.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kBench,    // the benchmark's own op and query spans
  kSmart,    // SmartArray range ops and restructures
  kRts,      // ParallelFor / ParallelReduce loops
  kRuntime,  // registry acquire, release, snapshot reads, writes
  kAdapt,    // adaptation decisions
  kGraph,    // graph algorithms
  kTable,    // table queries
};
inline constexpr int kNumLayers = 7;

const char* LayerName(Layer layer);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t work = 0;    // values the call covered (0 when not meaningful)
  uint32_t id = 0;      // unique, nonzero
  uint32_t parent = 0;  // 0 for a root span
  uint32_t op = 0;      // id of the op span every span of one op shares
  uint16_t tid = 0;
  Layer layer = Layer::kBench;
  const char* name = "";  // static string
};

// Self time of spans[i]: its duration minus the union of the intervals of
// its direct children (clipped to the span). Children may overlap each
// other, as grains on different workers do.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

// Chrome trace-event JSON in the shape the library's trace export writes
// ({"displayTimeUnit":"ms","traceEvents":[{"ph":"X",...}],...}), loadable
// in Perfetto. At most `max_events` spans are written; the rest are counted
// in "truncated".
std::string ChromeTraceJson(const std::vector<Span>& spans, size_t max_events);

namespace tracer {

bool Enabled();
void Enable(bool on);
// Drops every recorded span (call while no thread is recording).
void Clear();
// Merges all thread buffers, ordered by start time (call while quiescent).
std::vector<Span> Collect();
// Spans refused because the in-memory cap was reached.
uint64_t Dropped();

}  // namespace tracer

// Records one span from construction to destruction when tracing is on and
// `sample` is true. The implicit constructor parents the span to the
// innermost open span of the calling thread; the explicit one is for work a
// span hands to other threads (loop grains run on pool workers).
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, const char* name, uint64_t work = 0, bool sample = true);
  ScopedSpan(Layer layer, const char* name, uint32_t parent, uint32_t op, uint64_t work);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // 0 when the span is not being recorded.
  uint32_t id() const { return span_.id; }
  uint32_t op() const { return span_.op; }

 private:
  Span span_;
  bool active_ = false;
  bool implicit_ = false;
  uint32_t saved_current_ = 0;
  uint32_t saved_op_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
