// PGX-style graph analytics on smart arrays (paper §5.2): build a
// Twitter-shaped power-law graph, store its CSR in smart arrays under the
// Fig. 12 compression variants, and run degree centrality and PageRank.
#include <algorithm>
#include <cstdio>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "platform/affinity.h"
#include "report/table.h"

int main() {
  const auto topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo);

  std::printf("generating a Twitter-shaped power-law graph...\n");
  const auto csr = sa::graph::PowerLawGraph(/*vertices=*/300'000, /*edges=*/4'000'000,
                                            /*alpha=*/0.55, /*seed=*/2018);
  csr.CheckInvariants();
  std::printf("graph: %u vertices, %llu edges\n\n", csr.num_vertices(),
              static_cast<unsigned long long>(csr.num_edges()));

  // The Fig. 12 storage variants.
  struct Variant {
    const char* name;
    bool compress_indexes;
    bool compress_edges;
  };
  const Variant variants[] = {{"U (native widths)", false, false},
                              {"V (indices+degrees)", true, false},
                              {"V+E (edges too)", true, true}};

  sa::report::Table table({"variant", "index bits", "edge bits", "footprint", "degree-centrality",
                           "pagerank (15 it)"});
  for (const auto& variant : variants) {
    sa::graph::SmartGraphOptions options;
    options.placement = sa::smart::PlacementSpec::Interleaved();
    options.compress_indexes = variant.compress_indexes;
    options.compress_edges = variant.compress_edges;
    sa::graph::SmartCsrGraph g(csr, options, topo, pool);

    sa::platform::Stopwatch dc_timer;
    auto degrees = sa::smart::SmartArray::Allocate(csr.num_vertices(),
                                                   sa::smart::PlacementSpec::Interleaved(), 64,
                                                   topo);
    sa::graph::DegreeCentralitySmart(pool, g.view(), degrees.get());
    const double dc_seconds = dc_timer.Seconds();

    sa::platform::Stopwatch pr_timer;
    const auto pagerank = sa::graph::PageRankSmart(pool, g.view(), topo);
    const double pr_seconds = pr_timer.Seconds();

    table.AddRow({variant.name, std::to_string(g.index_bits()), std::to_string(g.edge_bits()),
                  sa::report::Num(g.footprint_bytes() / 1e6, 1) + " MB",
                  sa::report::Ms(dc_seconds), sa::report::Ms(pr_seconds)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Show the analytics output itself: top-5 vertices by PageRank.
  sa::graph::SmartCsrGraph g(csr, {}, topo, pool);
  const auto result = sa::graph::PageRankSmart(pool, g.view(), topo);
  std::vector<sa::graph::VertexId> by_rank(csr.num_vertices());
  for (sa::graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
    by_rank[v] = v;
  }
  std::partial_sort(by_rank.begin(), by_rank.begin() + 5, by_rank.end(),
                    [&](auto a, auto b) { return result.ranks[a] > result.ranks[b]; });
  std::printf("converged after %d iterations (delta %.5f); top vertices:\n", result.iterations,
              result.final_delta);
  for (int i = 0; i < 5; ++i) {
    const auto v = by_rank[i];
    std::printf("  #%d: vertex %7u  rank %.6f  in-degree %llu\n", i + 1, v, result.ranks[v],
                static_cast<unsigned long long>(csr.InDegree(v)));
  }
  return 0;
}
