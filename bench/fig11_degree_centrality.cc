// Figure 11: degree centrality on the 1.5 B-vertex uniform graph (3 random
// edges per vertex), across placements {original, OS default, single socket,
// interleaved, replicated} x compression {uncompressed, 33-bit}, on both
// machines; time, instructions and memory bandwidth panels.
//
// A scaled-down real run over the actual smart-array kernel validates the
// result against the serial reference before the machine-model sweep.
#include <cstdio>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "report/table.h"
#include "sim/workloads.h"

namespace {

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
  const auto csr = sa::graph::UniformRandomGraph(200'000, 3, 2024);
  const auto want = sa::graph::DegreeCentrality(csr);
  int checked = 0;
  for (const bool compress : {false, true}) {
    sa::graph::SmartGraphOptions options;
    options.compress_indexes = compress;
    sa::graph::SmartCsrGraph g(csr, options, topo, pool);
    auto out = sa::smart::SmartArray::Allocate(csr.num_vertices(),
                                               sa::smart::PlacementSpec::Interleaved(), 64, topo);
    sa::graph::DegreeCentralitySmart(pool, g.view(), out.get());
    for (sa::graph::VertexId v = 0; v < csr.num_vertices(); v += 1009) {
      if (out->Get(v, out->GetReplica(0)) != want[v]) {
        std::printf("HOST VALIDATION FAILED at vertex %u\n", v);
        return;
      }
    }
    ++checked;
  }
  std::printf("host validation: %d kernel variants match the serial reference "
              "(200k-vertex scaled graph)\n\n",
              checked);
}

}  // namespace

int main() {
  std::printf("Figure 11: degree centrality — placement x compression\n");
  std::printf("Graph: 1.5B vertices, 3 random edges/vertex (index arrays need 33 bits)\n\n");

  HostValidation();

  for (const auto& spec :
       {sa::sim::MachineSpec::OracleX5_8Core(), sa::sim::MachineSpec::OracleX5_18Core()}) {
    const sa::sim::MachineModel machine(spec);
    std::printf("--- %s ---\n", spec.name.c_str());
    sa::report::Table table(
        {"placement", "bits", "time", "instructions", "mem b/w"});
    for (const uint32_t bits : {64u, 33u}) {
      for (const auto& row : kRows) {
        sa::sim::DegreeCentralityConfig config;
        config.placement = row.placement;
        config.original = row.original;
        config.index_bits = bits;
        const auto r = sa::sim::SimulateDegreeCentrality(machine, config);
        table.AddRow({row.name, bits == 64 ? "U" : "33", sa::report::Ms(r.seconds),
                      sa::report::Giga(r.total_instructions),
                      sa::report::Gbps(r.total_mem_gbps)});
      }
      if (bits == 64) {
        table.AddRule();
      }
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  std::printf("Paper shape: 8-core — replication wins, compression boosts the non-replicated\n"
              "placements; 18-core — interleaving beats single socket, replication slightly\n"
              "better, 33-bit compression improves further (§5.2).\n");
  return 0;
}
