// Additional PGX-style analytics kernels over smart-array graphs: BFS,
// connected components, and triangle counting (PGX ships these alongside
// degree centrality and PageRank — §2.3 and its triangle-listing citation
// [51]). Each kernel has a serial reference over plain CSR and a parallel
// smart-array version scheduled on the Callisto-style runtime.
//
// The parallel kernels are written against CsrView (view.h), so the same
// code runs over SmartCsrGraph::view() and over epoch-pinned registry snapshots
// (concurrent.h) — the latter is what makes them safe while the adaptation
// daemon restructures the property arrays mid-traversal. Each kernel
// optionally reports its per-array access mix (AccessMix) so a registry
// caller can feed the slots' workload counters.
#ifndef SA_GRAPH_ALGORITHMS2_H_
#define SA_GRAPH_ALGORITHMS2_H_

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/smart_graph.h"
#include "graph/view.h"
#include "rts/worker_pool.h"

namespace sa::graph {

inline constexpr uint64_t kUnreachable = ~uint64_t{0};

// ---- Breadth-first search (level-synchronous, over out-edges) ----

// Serial reference: BFS levels from `source` (kUnreachable if not reached).
std::vector<uint64_t> BfsLevels(const CsrGraph& graph, VertexId source);

// Parallel frontier-based BFS: each level, workers drain a slice of the
// current frontier into *private* per-worker next-frontier queues (no
// sharing on the hot path; vertex ownership is claimed with a CAS on the
// level array), and the queues are merged after the level barrier. Out-edge
// lists stream through the chunk-granular decode seam. `mix`, when non-null,
// accumulates the kernel's per-array access tallies.
std::vector<uint64_t> BfsLevelsSmart(rts::WorkerPool& pool, const CsrView& graph,
                                     VertexId source, const platform::Topology& topology,
                                     AccessMix* mix = nullptr);

// ---- Connected components (undirected view, label propagation) ----

// Serial reference: component labels (smallest vertex id in the component),
// treating every edge as undirected.
std::vector<uint64_t> ConnectedComponents(const CsrGraph& graph);

// Parallel label propagation with early-exit convergence: rounds stop as
// soon as no label moved. Labels relax monotonically downward through
// relaxed atomics, so cross-worker races only delay convergence.
std::vector<uint64_t> ConnectedComponentsSmart(rts::WorkerPool& pool, const CsrView& graph,
                                               const platform::Topology& topology,
                                               AccessMix* mix = nullptr);

// ---- Triangle counting ----

// Counts undirected triangles {a, b, c}: distinct vertex triples mutually
// connected, ignoring edge direction, duplicates and self-loops. Serial
// reference over plain CSR, id-ordered: every vertex intersects its merged
// list of higher-id neighbors with each such neighbor's list. This is the
// oracle the other two are checked against.
uint64_t CountTriangles(const CsrGraph& graph);

// Serial degree-ordered count over plain CSR, the same algorithm as
// CountTrianglesSmart: every undirected edge points at its endpoint of
// higher (out- plus in-degree, id), N+(v) is v's list of such neighbors, and
// each triangle is found once, at its lowest-ranked vertex v, as a pair
// u in N+(v), w in N+(u) with w in N+(v).
uint64_t CountTrianglesOriented(const CsrGraph& graph);

// Parallel smart-array version of CountTrianglesOriented, three passes over
// the view: the rank keys (degree centrality into a packed per-call array),
// the orientation (each grain merges its vertices' out- and in-lists through
// GrainSlice and packs the kept lists, ids at BitsForValue(V-1) bits and
// bounds at the fewest bits that fit, into whole chunks it alone writes),
// and the count (each vertex marks N+(v) in a per-worker V-bit bitmap and
// probes every N+(u) through a width-specialised GetImpl). The per-call
// arrays are freed on return. `mix` receives two sequential passes over
// begin and rbegin and one over edge and redge: no gather touches the view.
uint64_t CountTrianglesSmart(rts::WorkerPool& pool, const CsrView& graph,
                             AccessMix* mix = nullptr);

}  // namespace sa::graph

#endif  // SA_GRAPH_ALGORITHMS2_H_
