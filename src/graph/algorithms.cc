#include "graph/algorithms.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/bits.h"
#include "graph/grain_slice.h"
#include "obs/telemetry.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::graph {

std::vector<uint64_t> DegreeCentrality(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<uint64_t> out(n);
  for (VertexId v = 0; v < n; ++v) {
    out[v] = graph.OutDegree(v) + graph.InDegree(v);
  }
  return out;
}

void DegreeCentralitySmart(rts::WorkerPool& pool, const CsrView& graph,
                           smart::SmartArray* out, AccessMix* mix) {
  SA_CHECK(out != nullptr && out->length() >= graph.num_vertices);

  // One pass: each chunk-aligned grain decodes begin[b, e+1) and
  // rbegin[b, e+1) in bulk (each at its own width: registry-held offsets
  // adapt independently) and packs out-degree plus in-degree into `out`
  // once; PackRange checks `out`'s width and installs exact zones.
  rts::WorkerLocal<std::vector<uint64_t>> scratch(pool.num_workers());
  rts::ParallelFor(
      pool, 0, graph.num_vertices, smart::kChunkAlignedGrain,
      [&](int worker, uint64_t b, uint64_t e) {
        const int socket = pool.worker_socket(worker);
        std::vector<uint64_t>& buf = scratch[worker];
        buf.resize(2 * (e - b + 1));
        uint64_t* fwd = buf.data();  // begin[b, e+1), then the degrees in place
        uint64_t* rev = fwd + (e - b + 1);
        graph.begin->RangeUnpack(graph.begin->GetReplica(socket), b, e + 1, fwd);
        graph.rbegin->RangeUnpack(graph.rbegin->GetReplica(socket), b, e + 1, rev);
        for (uint64_t j = 0; j < e - b; ++j) {
          fwd[j] = (fwd[j + 1] - fwd[j]) + (rev[j + 1] - rev[j]);
        }
        smart::PackRange(*out, b, e, fwd);
      });
  if (mix != nullptr) {
    // One pure streaming pass over each offset array, nothing else.
    mix->begin_seq += graph.num_vertices + 1;
    mix->rbegin_seq += graph.num_vertices + 1;
  }
}

PageRankResult PageRank(const CsrGraph& graph, const PageRankOptions& options) {
  const VertexId n = graph.num_vertices();
  SA_CHECK(n > 0);
  const double base = (1.0 - options.damping) / n;
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);

  PageRankResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double delta = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      double sum = 0.0;
      for (EdgeId e = graph.rbegin()[v]; e < graph.rbegin()[v + 1]; ++e) {
        const VertexId u = graph.redge()[e];
        sum += rank[u] / static_cast<double>(graph.OutDegree(u));
      }
      next[v] = base + options.damping * sum;
      delta += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) {
      break;
    }
  }
  result.ranks = std::move(rank);
  return result;
}

PageRankResult PageRankSmart(rts::WorkerPool& pool, const CsrView& graph,
                             const platform::Topology& topology,
                             const PageRankOptions& options, AccessMix* mix) {
  const uint64_t n = graph.num_vertices;
  SA_CHECK(n > 0);
  const double base = (1.0 - options.damping) / n;

  // Rank vertex properties: 64-bit smart arrays holding bit-cast doubles, at
  // the graph's placement so replication also covers the ranks. Each
  // iteration packs `next` grain by grain, then the two swap roles.
  const smart::PlacementSpec placement = graph.begin->placement();
  auto rank = smart::SmartArray::Allocate(n, placement, 64, topology);
  auto next = smart::SmartArray::Allocate(n, placement, 64, topology);
  smart::ParallelFill(pool, *rank,
                      [n](uint64_t) { return std::bit_cast<uint64_t>(1.0 / n); });

  const int workers = pool.num_workers();
  rts::WorkerLocal<std::vector<uint64_t>> scratch(workers);
  rts::WorkerLocal<std::vector<uint64_t>> ranks_out(workers);
  PageRankResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // rbegin/redge stream through the grain's bulk-decoded slice; only the
    // per-edge degree gather is specialized on its width (it dominates the
    // run, §5.2), and rank[u] is a raw 64-bit load.
    const double delta = smart::WithBits(graph.degree_bits(), [&](auto degree_bits_const) {
      constexpr uint32_t kDegreeBits = degree_bits_const();
      using Degree = smart::BitCompressedArray<kDegreeBits>;
      return rts::ParallelReduce<double>(
          pool, 0, n, smart::kChunkAlignedGrain, [&](int worker, uint64_t b, uint64_t e) {
            const int socket = pool.worker_socket(worker);
            const uint64_t* rank_rep = rank->GetReplica(socket);
            const uint64_t* degree_rep = graph.out_degree->GetReplica(socket);
            GrainSlice in_edges(*graph.rbegin, *graph.redge, socket, b, e, scratch[worker]);
            std::vector<uint64_t>& out = ranks_out[worker];
            out.resize(e - b);
            double local_delta = 0.0;
            for (uint64_t v = b; v < e; ++v) {
              double sum = 0.0;
              in_edges.ForEachTarget(v, [&](uint64_t u) {
                sum += std::bit_cast<double>(rank_rep[u]) /
                       static_cast<double>(Degree::GetImpl(degree_rep, u));
              });
              const double new_rank = base + options.damping * sum;
              out[v - b] = std::bit_cast<uint64_t>(new_rank);
              local_delta += std::abs(new_rank - std::bit_cast<double>(rank_rep[v]));
            }
            smart::PackRange(*next, b, e, out.data());
            return local_delta;
          });
    });
    rank.swap(next);

    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) {
      break;
    }
  }

  const uint64_t iters = static_cast<uint64_t>(result.iterations);
  SA_OBS_COUNT_N(kGraphEdgesStreamed, iters * graph.num_edges);
  SA_OBS_COUNT_N(kGraphRandomGathers, 2 * iters * graph.num_edges);
  if (mix != nullptr) {
    // Pull-based: the reverse pair streams once per iteration, the degree
    // property is gathered at data-dependent sources.
    mix->rbegin_seq += iters * (n + 1);
    mix->redge_seq += iters * graph.num_edges;
    mix->degree_rand += iters * graph.num_edges;
  }

  result.ranks.resize(n);
  const uint64_t* rank_rep = rank->GetReplica(0);
  for (uint64_t v = 0; v < n; ++v) {
    result.ranks[v] = std::bit_cast<double>(smart::BitCompressedArray<64>::GetImpl(rank_rep, v));
  }
  return result;
}

}  // namespace sa::graph
