// CSR graph stored in smart arrays (paper §5.2).
//
// Mirrors the PGX prototype: begin/rbegin/edge/redge become smart arrays
// sharing one NUMA placement, with the compression variants of Fig. 12 —
// "U" (native widths: 64-bit indices, 32-bit edges), "V" (begin/rbegin and
// the out-degree property at the least required bits), and "V+E" (edges
// too). Output arrays stay interleaved regardless of placement (§5.2).
#ifndef SA_GRAPH_SMART_GRAPH_H_
#define SA_GRAPH_SMART_GRAPH_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/bits.h"
#include "graph/csr.h"
#include "graph/view.h"
#include "rts/worker_pool.h"
#include "smart/smart_array.h"

namespace sa::graph {

struct SmartGraphOptions {
  smart::PlacementSpec placement = smart::PlacementSpec::Interleaved();
  // "V": store begin/rbegin (and the out-degree property) with the least
  // number of bits required instead of 64.
  bool compress_indexes = false;
  // "V+E": additionally store edge/redge with the least bits required
  // instead of 32.
  bool compress_edges = false;
};

// Least bits required to store every element of `values` (at least 1).
template <typename T>
uint32_t MinBitsFor(const std::vector<T>& values) {
  T max_value = 0;
  for (const T& v : values) {
    max_value = std::max(max_value, v);
  }
  return BitsForValue(static_cast<uint64_t>(max_value));
}

// Storage widths of the Fig. 12 variants for `csr`, and the out-degree
// property they size. Offsets are natively 64-bit and vertex ids 32-bit
// (§5.2); the compress flags tighten each to the least bits its data needs.
// SmartCsrGraph and RegistryCsrGraph both store at these widths.
struct CsrWidths {
  uint32_t index_bits = 64;  // begin, rbegin
  uint32_t edge_bits = 32;   // edge, redge
  uint32_t degree_bits = 64;
  std::vector<uint64_t> out_degrees;
};
CsrWidths ChooseWidths(const CsrGraph& csr, const SmartGraphOptions& options);

class SmartCsrGraph {
 public:
  // Converts `csr` into smart-array storage, filling in parallel on `pool`.
  SmartCsrGraph(const CsrGraph& csr, const SmartGraphOptions& options,
                const platform::Topology& topology, rts::WorkerPool& pool);

  VertexId num_vertices() const { return num_vertices_; }
  EdgeId num_edges() const { return num_edges_; }
  const SmartGraphOptions& options() const { return options_; }

  const smart::SmartArray& begin() const { return *begin_; }
  const smart::SmartArray& rbegin() const { return *rbegin_; }
  const smart::SmartArray& edge() const { return *edge_; }
  const smart::SmartArray& redge() const { return *redge_; }
  // Out-degree vertex property (used by PageRank; 22-bit compressed in "V").
  const smart::SmartArray& out_degree() const { return *out_degree_; }

  // Non-owning window the analytics kernels run over; valid while this
  // graph is alive (the registry twin is GraphSnapshot::view()).
  CsrView view() const {
    return CsrView{begin_.get(), edge_.get(),      rbegin_.get(), redge_.get(),
                   out_degree_.get(), num_vertices_, num_edges_};
  }

  uint32_t index_bits() const { return begin_->bits(); }
  uint32_t edge_bits() const { return edge_->bits(); }
  uint32_t degree_bits() const { return out_degree_->bits(); }

  // Bytes across the four CSR arrays plus the out-degree property, all
  // replicas included.
  uint64_t footprint_bytes() const;

 private:
  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
  SmartGraphOptions options_;
  std::unique_ptr<smart::SmartArray> begin_;
  std::unique_ptr<smart::SmartArray> rbegin_;
  std::unique_ptr<smart::SmartArray> edge_;
  std::unique_ptr<smart::SmartArray> redge_;
  std::unique_ptr<smart::SmartArray> out_degree_;
};

}  // namespace sa::graph

#endif  // SA_GRAPH_SMART_GRAPH_H_
