#include "graph/io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/bits.h"
#include "common/macros.h"

namespace sa::graph {
namespace {

// Streams every (src, dst) pair of the forward CSR in edge order.
template <typename Fn>
void ForEachEdge(const CsrGraph& graph, const Fn& fn) {
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (EdgeId e = graph.begin()[v]; e < graph.begin()[v + 1]; ++e) {
      fn(v, graph.edge()[e]);
    }
  }
}

struct BinaryHeader {
  uint32_t magic = kEdgeListMagic;
  uint32_t version = 1;
  uint32_t num_vertices = 0;
  uint64_t num_edges = 0;
};

}  // namespace

void WriteEdgeListText(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  SA_CHECK_MSG(out.good(), "cannot open text edge list for writing");
  out << "# smartarrays edge list: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() << " edges\n";
  ForEachEdge(graph, [&](VertexId src, VertexId dst) { out << src << ' ' << dst << '\n'; });
  SA_CHECK_MSG(out.good(), "text edge list write failed");
}

CsrGraph ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  SA_CHECK_MSG(in.good(), "cannot open text edge list for reading");
  std::vector<std::pair<VertexId, VertexId>> edges;
  VertexId max_vertex = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    uint64_t src = 0;
    uint64_t dst = 0;
    SA_CHECK_MSG(static_cast<bool>(fields >> src >> dst), "malformed edge line");
    // The largest 32-bit id is rejected too: n = max_vertex + 1 must fit.
    SA_CHECK_MSG(src < ~VertexId{0} && dst < ~VertexId{0}, "vertex id exceeds 32 bits");
    edges.emplace_back(static_cast<VertexId>(src), static_cast<VertexId>(dst));
    max_vertex = std::max({max_vertex, static_cast<VertexId>(src), static_cast<VertexId>(dst)});
  }
  const VertexId n = edges.empty() ? 0 : max_vertex + 1;
  return CsrGraph::FromEdges(n, std::move(edges));
}

void WriteEdgeListBinary(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  SA_CHECK_MSG(out.good(), "cannot open binary edge list for writing");
  BinaryHeader header;
  header.num_vertices = graph.num_vertices();
  header.num_edges = graph.num_edges();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  ForEachEdge(graph, [&](VertexId src, VertexId dst) {
    const VertexId pair[2] = {src, dst};
    out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
  });
  SA_CHECK_MSG(out.good(), "binary edge list write failed");
}

CsrGraph ReadEdgeListBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SA_CHECK_MSG(in.good(), "cannot open binary edge list for reading");
  BinaryHeader header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  SA_CHECK_MSG(in.good() && header.magic == kEdgeListMagic, "not a smartarrays edge list");
  SA_CHECK_MSG(header.version == 1, "unsupported edge list version");
  // Check the claimed edge count against the bytes left before reserving.
  const std::streamoff body_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const auto body_bytes = static_cast<uint64_t>(in.tellg() - body_begin);
  in.seekg(body_begin);
  SA_CHECK_MSG(header.num_edges <= body_bytes / (2 * sizeof(VertexId)),
               "binary edge list truncated");
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(header.num_edges);
  for (uint64_t e = 0; e < header.num_edges; ++e) {
    VertexId pair[2];
    in.read(reinterpret_cast<char*>(pair), sizeof(pair));
    SA_CHECK_MSG(in.good(), "binary edge list truncated");
    edges.emplace_back(pair[0], pair[1]);
  }
  return CsrGraph::FromEdges(header.num_vertices, std::move(edges));
}

CsrGraph LoadGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SA_CHECK_MSG(in.good(), "cannot open graph file");
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.close();
  return magic == kEdgeListMagic ? ReadEdgeListBinary(path) : ReadEdgeListText(path);
}

GraphStats ComputeStats(const CsrGraph& graph) {
  GraphStats stats;
  stats.num_vertices = graph.num_vertices();
  stats.num_edges = graph.num_edges();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    stats.max_out_degree = std::max(stats.max_out_degree, graph.OutDegree(v));
    stats.max_in_degree = std::max(stats.max_in_degree, graph.InDegree(v));
  }
  stats.avg_degree = stats.num_vertices == 0
                         ? 0.0
                         : static_cast<double>(stats.num_edges) / stats.num_vertices;
  stats.index_bits_required = BitsForValue(stats.num_edges);
  stats.edge_bits_required =
      stats.num_vertices == 0 ? 1 : BitsForValue(stats.num_vertices - 1);
  return stats;
}

}  // namespace sa::graph
