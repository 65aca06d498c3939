// Graph analytics kernels (paper §5.2): degree centrality and PageRank,
// each in a serial reference version over plain CSR (for correctness
// testing) and a parallel smart-array version scheduled with the
// Callisto-style runtime.
#ifndef SA_GRAPH_ALGORITHMS_H_
#define SA_GRAPH_ALGORITHMS_H_

#include <memory>
#include <vector>

#include "graph/csr.h"
#include "graph/smart_graph.h"
#include "graph/view.h"
#include "rts/worker_pool.h"
#include "smart/smart_array.h"

namespace sa::graph {

// ---- Degree centrality: out-degree + in-degree per vertex ----

// Serial reference over plain CSR.
std::vector<uint64_t> DegreeCentrality(const CsrGraph& graph);

// Parallel smart-array version; writes into `out` (length at least V; the
// elements past V stay untouched), which the caller allocates — interleaved,
// as the paper fixes for output arrays — at a width that holds every degree
// (checked; a narrower `out` aborts).
// It reads only through the view (SmartCsrGraph::view() or a
// GraphSnapshot's, concurrent.h, which pins it against mid-run restructures);
// `mix` optionally accumulates the access tallies.
void DegreeCentralitySmart(rts::WorkerPool& pool, const CsrView& graph,
                           smart::SmartArray* out, AccessMix* mix = nullptr);

// ---- PageRank ----

struct PageRankOptions {
  double damping = 0.85;
  double tolerance = 1e-3;  // L1 rank delta between iterations (§5.2)
  int max_iterations = 15;
};

struct PageRankResult {
  std::vector<double> ranks;
  int iterations = 0;
  double final_delta = 0.0;
};

// Serial reference over plain CSR (pull-based over reverse edges).
PageRankResult PageRank(const CsrGraph& graph, const PageRankOptions& options = {});

// Parallel smart-array version. Rank vectors are 64-bit vertex properties
// (doubles bit-cast into smart arrays, as PGX stores properties off-heap);
// the two rank arrays follow the graph's placement and swap roles every
// iteration. Reads only through the view, like the rest of the suite.
PageRankResult PageRankSmart(rts::WorkerPool& pool, const CsrView& graph,
                             const platform::Topology& topology,
                             const PageRankOptions& options = {}, AccessMix* mix = nullptr);

}  // namespace sa::graph

#endif  // SA_GRAPH_ALGORITHMS_H_
