// Registry-held CSR graphs: the five property arrays of a CSR graph
// (begin/edge/rbegin/redge/out_degree) uploaded into named ArrayRegistry
// slots, so the AdaptationDaemon can restructure each one independently —
// width, placement — *while analytics traverse the graph*.
//
// The concurrency contract is the registry's: a GraphSnapshot pins one
// published version of every property array (epoch pins, acquired back to
// back), and every kernel reads exclusively through the pinned view. A
// daemon publish mid-traversal is invisible until the next Pin(); the
// pinned storage cannot be reclaimed until the snapshot releases. That is
// the snapshot-consistency argument DESIGN.md §4i spells out and the
// testkit's kGraphBfs/kGraphCc/kGraphTri ops prove differentially.
//
// On release, a GraphSnapshot flushes the access tallies the kernels
// accounted (AccessMix) into the slots' workload counters — the daemon
// drains those, so each property array adapts to the access pattern of the
// algorithms actually touching it (paper §5.2: BFS gathers offsets,
// PageRank gathers the degree property; the selector may send the same
// array to different layouts under different algorithms).
#ifndef SA_GRAPH_CONCURRENT_H_
#define SA_GRAPH_CONCURRENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "graph/algorithms.h"
#include "graph/algorithms2.h"
#include "graph/csr.h"
#include "graph/smart_graph.h"
#include "graph/view.h"
#include "runtime/registry.h"

namespace sa::graph {

// A consistent, epoch-pinned view over one RegistryCsrGraph. Move-only;
// short-lived by design (a pinned snapshot blocks storage reclamation).
class GraphSnapshot {
 public:
  GraphSnapshot() = default;
  GraphSnapshot(GraphSnapshot&&) = default;
  GraphSnapshot& operator=(GraphSnapshot&&) = default;

  bool valid() const { return begin_.valid(); }
  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return num_edges_; }

  // Non-owning kernel window over the five pinned versions. Valid until
  // Release()/destruction. The kernels cache raw replica pointers and read
  // them through the per-width codec, which is only sound on bit-packed
  // geometry — the selector's encoding axis never re-encodes slots without
  // observed predicate-scan traffic (graph slots have none), and this check
  // turns any future violation of that contract into a loud failure instead
  // of silently wrong traversals.
  CsrView view() const {
    SA_CHECK(begin_.array().encoding() == smart::Encoding::kBitPacked &&
             edge_.array().encoding() == smart::Encoding::kBitPacked &&
             rbegin_.array().encoding() == smart::Encoding::kBitPacked &&
             redge_.array().encoding() == smart::Encoding::kBitPacked &&
             degree_.array().encoding() == smart::Encoding::kBitPacked);
    return CsrView{&begin_.array(),  &edge_.array(),  &rbegin_.array(),
                   &redge_.array(),  &degree_.array(), num_vertices_, num_edges_};
  }

  // Sum of the five pinned version sequences — a cheap fingerprint tests
  // and benchmarks use to observe daemon restructures between pins.
  uint64_t sequence_sum() const {
    return begin_.sequence() + edge_.sequence() + rbegin_.sequence() + redge_.sequence() +
           degree_.sequence();
  }

  // Feeds one kernel run's access tallies into the pinned slots' workload
  // counters (flushed on Release). Call from one thread.
  void Account(const AccessMix& mix);

  // Releases all five pins early (destructor otherwise does it).
  void Release();

 private:
  friend class RegistryCsrGraph;

  runtime::ArraySnapshot begin_;
  runtime::ArraySnapshot edge_;
  runtime::ArraySnapshot rbegin_;
  runtime::ArraySnapshot redge_;
  runtime::ArraySnapshot degree_;
  uint64_t num_vertices_ = 0;
  uint64_t num_edges_ = 0;
};

// Uploads a CsrGraph into five registry slots named `<prefix>.begin`,
// `<prefix>.edge`, `<prefix>.rbegin`, `<prefix>.redge`, `<prefix>.deg`.
// Initial widths follow SmartGraphOptions (the Fig. 12 U/V/V+E tiers);
// after upload the daemon owns the representation.
class RegistryCsrGraph {
 public:
  RegistryCsrGraph(runtime::ArrayRegistry& registry, std::string_view prefix,
                   const CsrGraph& csr, const SmartGraphOptions& options);

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return num_edges_; }
  const std::string& prefix() const { return prefix_; }
  // Slot order: begin, edge, rbegin, redge, deg.
  const std::vector<runtime::ArraySlot*>& slots() const { return slots_; }

  // Pins one consistent version of every property array.
  GraphSnapshot Pin() const;

 private:
  std::string prefix_;
  uint64_t num_vertices_ = 0;
  uint64_t num_edges_ = 0;
  std::vector<runtime::ArraySlot*> slots_;
};

// Kernel runs over a pinned snapshot: forward to the CsrView kernels and
// account the run's access mix into the snapshot before returning. The
// snapshot stays pinned (and its counters unflushed) until the caller
// releases it — pin fresh per run so daemon adaptations take effect.
std::vector<uint64_t> BfsLevels(rts::WorkerPool& pool, GraphSnapshot& snapshot, VertexId source,
                                const platform::Topology& topology);
std::vector<uint64_t> ConnectedComponents(rts::WorkerPool& pool, GraphSnapshot& snapshot,
                                          const platform::Topology& topology);
uint64_t CountTriangles(rts::WorkerPool& pool, GraphSnapshot& snapshot);
std::vector<uint64_t> DegreeCentrality(rts::WorkerPool& pool, GraphSnapshot& snapshot,
                                       const platform::Topology& topology);
PageRankResult PageRank(rts::WorkerPool& pool, GraphSnapshot& snapshot,
                        const platform::Topology& topology, const PageRankOptions& options = {});

}  // namespace sa::graph

#endif  // SA_GRAPH_CONCURRENT_H_
