#include "graph/smart_graph.h"

#include <algorithm>

#include "smart/parallel_ops.h"

namespace sa::graph {
namespace {

template <typename T>
std::unique_ptr<smart::SmartArray> MakeArray(const std::vector<T>& values, uint32_t bits,
                                             const smart::PlacementSpec& placement,
                                             const platform::Topology& topology,
                                             rts::WorkerPool& pool) {
  // Smart arrays cannot be empty; an edgeless (or vertexless) graph still
  // gets one-element storage, and num_vertices/num_edges keep every kernel
  // from reading past the logical end.
  const uint64_t length = std::max<uint64_t>(values.size(), 1);
  auto array = smart::SmartArray::Allocate(length, placement, bits, topology);
  smart::ParallelFill(pool, *array, [&values](uint64_t i) {
    return i < values.size() ? static_cast<uint64_t>(values[i]) : 0;
  });
  return array;
}

}  // namespace

CsrWidths ChooseWidths(const CsrGraph& csr, const SmartGraphOptions& options) {
  CsrWidths widths;
  widths.out_degrees.resize(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    widths.out_degrees[v] = csr.OutDegree(v);
  }
  if (options.compress_indexes) {
    widths.index_bits = std::max(MinBitsFor(csr.begin()), MinBitsFor(csr.rbegin()));
    widths.degree_bits = MinBitsFor(widths.out_degrees);
  }
  if (options.compress_edges) {
    widths.edge_bits = std::max(MinBitsFor(csr.edge()), MinBitsFor(csr.redge()));
  }
  return widths;
}

SmartCsrGraph::SmartCsrGraph(const CsrGraph& csr, const SmartGraphOptions& options,
                             const platform::Topology& topology, rts::WorkerPool& pool)
    : num_vertices_(csr.num_vertices()), num_edges_(csr.num_edges()), options_(options) {
  const CsrWidths widths = ChooseWidths(csr, options);
  begin_ = MakeArray(csr.begin(), widths.index_bits, options.placement, topology, pool);
  rbegin_ = MakeArray(csr.rbegin(), widths.index_bits, options.placement, topology, pool);
  edge_ = MakeArray(csr.edge(), widths.edge_bits, options.placement, topology, pool);
  redge_ = MakeArray(csr.redge(), widths.edge_bits, options.placement, topology, pool);
  out_degree_ =
      MakeArray(widths.out_degrees, widths.degree_bits, options.placement, topology, pool);
}

uint64_t SmartCsrGraph::footprint_bytes() const {
  return begin_->footprint_bytes() + rbegin_->footprint_bytes() + edge_->footprint_bytes() +
         redge_->footprint_bytes() + out_degree_->footprint_bytes();
}

}  // namespace sa::graph
