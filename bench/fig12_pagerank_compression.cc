// Figure 12: PageRank on the Twitter follower graph — placements x the
// compression variants "U" (native widths), "32" (32-bit indices), "V"
// (indices+degrees at least bits: 31/22) and "V+E" (edges too: 26 bits) —
// on both machines; plus the §5.2 memory-footprint accounting (V+E saves
// ~21%). A scaled-down real PageRank on the host validates the kernels.
#include <cstdio>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "report/table.h"
#include "sim/workloads.h"

namespace {

struct Variant {
  const char* name;
  uint32_t index_bits;
  uint32_t degree_bits;
  uint32_t edge_bits;
};

const Variant kVariants[] = {
    {"U", 64, 64, 32},
    {"32", 32, 64, 32},
    {"V", 31, 22, 32},
    {"V+E", 31, 22, 26},
};

struct Row {
  const char* name;
  sa::smart::PlacementSpec placement;
  bool original;
};

const Row kRows[] = {
    {"original", sa::smart::PlacementSpec::OsDefault(), true},
    {"os-default", sa::smart::PlacementSpec::OsDefault(), false},
    {"single-socket", sa::smart::PlacementSpec::SingleSocket(0), false},
    {"interleaved", sa::smart::PlacementSpec::Interleaved(), false},
    {"replicated", sa::smart::PlacementSpec::Replicated(), false},
};

void HostValidation() {
  const auto topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo);
  // Twitter-shaped (power-law) graph, scaled to the host.
  const auto csr = sa::graph::PowerLawGraph(50'000, 1'000'000, 0.55, 7);
  const auto want = sa::graph::PageRank(csr);
  int checked = 0;
  for (const auto& variant : {kVariants[0], kVariants[2], kVariants[3]}) {
    sa::graph::SmartGraphOptions options;
    options.compress_indexes = variant.index_bits != 64;
    options.compress_edges = variant.edge_bits != 32;
    sa::graph::SmartCsrGraph g(csr, options, topo, pool);
    const auto got = sa::graph::PageRankSmart(pool, g.view(), topo);
    for (sa::graph::VertexId v = 0; v < csr.num_vertices(); v += 997) {
      if (std::abs(got.ranks[v] - want.ranks[v]) > 1e-12) {
        std::printf("HOST VALIDATION FAILED (%s) at vertex %u\n", variant.name, v);
        return;
      }
    }
    ++checked;
  }
  std::printf("host validation: %d compression variants reproduce the reference ranks "
              "(50k-vertex scaled Twitter-like graph)\n\n",
              checked);
}

}  // namespace

int main() {
  std::printf("Figure 12: PageRank — compression variants x placements\n");
  std::printf("Graph: Twitter followers [27], 42M vertices / 1.5B edges, 15 iterations\n\n");

  HostValidation();

  for (const auto& spec :
       {sa::sim::MachineSpec::OracleX5_8Core(), sa::sim::MachineSpec::OracleX5_18Core()}) {
    const sa::sim::MachineModel machine(spec);
    std::printf("--- %s ---\n", spec.name.c_str());
    sa::report::Table table(
        {"variant", "placement", "time", "instructions", "mem b/w"});
    for (const auto& variant : kVariants) {
      for (const auto& row : kRows) {
        sa::sim::PageRankConfig config;
        config.index_bits = variant.index_bits;
        config.degree_bits = variant.degree_bits;
        config.edge_bits = variant.edge_bits;
        config.placement = row.placement;
        config.original = row.original;
        const auto r = sa::sim::SimulatePageRank(machine, config);
        table.AddRow({variant.name, row.name, sa::report::Sec(r.seconds),
                      sa::report::Num(r.total_instructions / 1e11, 2) + "e11",
                      sa::report::Gbps(r.total_mem_gbps)});
      }
      table.AddRule();
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // §5.2 memory-footprint formula: 2*bits_e*V + 2*bits_v*E + bits_deg*V + 64*V.
  std::printf("Memory footprint (paper formula):\n");
  sa::report::Table footprint({"variant", "bytes", "vs U"});
  sa::sim::PageRankConfig base;
  double u_bytes = 0;
  for (const auto& variant : kVariants) {
    sa::sim::PageRankConfig config;
    config.index_bits = variant.index_bits;
    config.degree_bits = variant.degree_bits;
    config.edge_bits = variant.edge_bits;
    const double bytes = static_cast<double>(sa::sim::PageRankFootprintBytes(config));
    if (variant.name[0] == 'U') {
      u_bytes = bytes;
    }
    footprint.AddRow({variant.name, sa::report::Gib(bytes),
                      sa::report::Num((1.0 - bytes / u_bytes) * 100.0, 1) + "% saved"});
  }
  std::printf("%s\n", footprint.ToString().c_str());
  std::printf("Paper: variation \"V+E\" reduces memory space requirements by around 21%%.\n");
  return 0;
}
