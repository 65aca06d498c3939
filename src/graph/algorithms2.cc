#include "graph/algorithms2.h"

#include <algorithm>
#include <atomic>
#include <queue>

#include "common/macros.h"
#include "graph/grain_slice.h"
#include "obs/telemetry.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::graph {
namespace {

// One CSR array read per element through its runtime codec, at its own
// width (registry-held arrays adapt their widths independently).
struct CodecReader {
  CodecReader(const smart::SmartArray& array, int socket)
      : codec(smart::CodecFor(array.bits())), replica(array.GetReplica(socket)) {}
  uint64_t operator()(uint64_t index) const { return codec.get(replica, index); }
  const smart::CodecOps& codec;
  const uint64_t* replica;
};

// The four ordered-adjacency arrays, resolved once per grain. Lists are short
// (about 8 elements on average), so per-element reads beat a bulk decode per
// list.
struct Adjacency {
  // Sorted unique neighbors of `v` (forward + reverse lists merged), keeping
  // only ids greater than `floor`. Both list heads stay in locals, so every
  // element is decoded once. Returns the number of packed edge-list
  // elements decoded (for the access-mix tally).
  uint64_t NeighborsAbove(uint64_t v, uint64_t floor, std::vector<uint64_t>* out) const {
    out->clear();
    uint64_t fwd = begin(v);
    const uint64_t fwd_end = begin(v + 1);
    uint64_t rev = rbegin(v);
    const uint64_t rev_end = rbegin(v + 1);
    const uint64_t decoded = (fwd_end - fwd) + (rev_end - rev);
    // Vertex ids fit 32 bits, so an exhausted list's head is a sentinel
    // above every id, and the merge takes the smaller head until both end.
    constexpr uint64_t kDone = ~uint64_t{0};
    uint64_t f = fwd < fwd_end ? edge(fwd) : kDone;
    uint64_t r = rev < rev_end ? redge(rev) : kDone;
    while (f != kDone || r != kDone) {
      uint64_t next;
      if (f <= r) {
        next = f;
        f = ++fwd < fwd_end ? edge(fwd) : kDone;
      } else {
        next = r;
        r = ++rev < rev_end ? redge(rev) : kDone;
      }
      if (next > floor && next != v && (out->empty() || out->back() != next)) {
        out->push_back(next);
      }
    }
    return decoded;
  }

  CodecReader begin;
  CodecReader edge;
  CodecReader rbegin;
  CodecReader redge;
};

// Plain-CSR flavour of the same helper, for the serial reference.
void NeighborsAboveRef(const CsrGraph& graph, uint64_t v, uint64_t floor,
                       std::vector<uint64_t>* out) {
  out->clear();
  uint64_t fwd = graph.begin()[v];
  const uint64_t fwd_end = graph.begin()[v + 1];
  uint64_t rev = graph.rbegin()[v];
  const uint64_t rev_end = graph.rbegin()[v + 1];
  while (fwd < fwd_end || rev < rev_end) {
    uint64_t next;
    if (fwd < fwd_end && (rev >= rev_end || graph.edge()[fwd] <= graph.redge()[rev])) {
      next = graph.edge()[fwd++];
    } else {
      next = graph.redge()[rev++];
    }
    if (next > floor && next != v && (out->empty() || out->back() != next)) {
      out->push_back(next);
    }
  }
}

uint64_t SortedIntersectionSize(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// 64-bit property arrays are word-per-element, so relaxed atomic access via
// atomic_ref keeps the cross-worker races (level claims, label relaxations)
// well-defined without any locking.
inline uint64_t LoadRelaxed(const uint64_t* cell) {
  return std::atomic_ref<const uint64_t>(*cell).load(std::memory_order_relaxed);
}
inline void StoreRelaxed(uint64_t* cell, uint64_t value) {
  std::atomic_ref<uint64_t>(*cell).store(value, std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

std::vector<uint64_t> BfsLevels(const CsrGraph& graph, VertexId source) {
  SA_CHECK(source < graph.num_vertices());
  std::vector<uint64_t> level(graph.num_vertices(), kUnreachable);
  std::queue<VertexId> frontier;
  level[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    for (EdgeId e = graph.begin()[v]; e < graph.begin()[v + 1]; ++e) {
      const VertexId u = graph.edge()[e];
      if (level[u] == kUnreachable) {
        level[u] = level[v] + 1;
        frontier.push(u);
      }
    }
  }
  return level;
}

std::vector<uint64_t> BfsLevelsSmart(rts::WorkerPool& pool, const CsrView& graph,
                                     VertexId source, const platform::Topology& topology,
                                     AccessMix* mix) {
  SA_CHECK(source < graph.num_vertices);
  const uint64_t n = graph.num_vertices;
  // Levels as a 64-bit interleaved property (output arrays stay interleaved,
  // §5.2; one word per element so CAS claims need no packing care).
  auto level = smart::SmartArray::Allocate(n, smart::PlacementSpec::Interleaved(), 64, topology);
  uint64_t* level_data = level->MutableReplica(0);
  rts::ParallelFor(pool, 0, n, smart::kChunkAlignedGrain, [&](int, uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      level_data[v] = kUnreachable;
    }
  });
  level_data[source] = 0;

  const int workers = pool.num_workers();
  const auto& index_codec = smart::CodecFor(graph.begin_bits());
  // Private per-worker next-frontier queues, merged after each level
  // barrier; hoisted out of the level loop so their capacity is reused.
  rts::WorkerLocal<std::vector<uint64_t>> queues(workers);
  rts::WorkerLocal<uint64_t> streamed(workers);
  std::vector<uint64_t> frontier{source};
  std::vector<uint64_t> next;

  uint64_t rounds = 0;
  uint64_t visited = 1;  // source
  uint64_t edges_streamed = 0;

  smart::WithBits(graph.edge_bits(), [&](auto edge_bits_const) {
    constexpr uint32_t kEdgeBits = edge_bits_const();
    for (uint64_t round = 0; !frontier.empty(); ++round) {
      ++rounds;
      // Frontier slices are per-edge heavy, so the grain is much finer than
      // a vertex sweep's: keep every worker busy even on small frontiers.
      const uint64_t grain =
          std::max<uint64_t>(64, frontier.size() / (static_cast<uint64_t>(workers) * 8 + 1));
      rts::ParallelFor(
          pool, 0, frontier.size(), grain, [&](int worker, uint64_t b, uint64_t e) {
            const int socket = pool.worker_socket(worker);
            const uint64_t* begin_rep = graph.begin->GetReplica(socket);
            const uint64_t* edge_rep = graph.edge->GetReplica(socket);
            std::vector<uint64_t>& out = queues[worker];
            uint64_t local_streamed = 0;
            for (uint64_t i = b; i < e; ++i) {
              const uint64_t v = frontier[i];
              const uint64_t first = index_codec.get(begin_rep, v);
              const uint64_t last = index_codec.get(begin_rep, v + 1);
              local_streamed += last - first;
              // Chunk-granular decode of the out-edge list (range kernel).
              smart::BitCompressedArray<kEdgeBits>::ForEachRangeImpl(
                  edge_rep, first, last, [&](uint64_t u, uint64_t /*ei*/) {
                    // Claim u with a CAS on its level word: exactly one
                    // worker wins, so u lands in exactly one private queue.
                    std::atomic_ref<uint64_t> cell(level_data[u]);
                    uint64_t unreached = kUnreachable;
                    if (cell.load(std::memory_order_relaxed) == kUnreachable &&
                        cell.compare_exchange_strong(unreached, round + 1,
                                                     std::memory_order_relaxed)) {
                      out.push_back(u);
                    }
                  });
            }
            streamed[worker] += local_streamed;
          });

      // Merge the private queues into the next frontier. The ParallelFor
      // return above is the level barrier: every claim made this level
      // happens-before this merge.
      next.clear();
      queues.ForEach([&](int, std::vector<uint64_t>& q) {
        next.insert(next.end(), q.begin(), q.end());
        q.clear();
      });
#ifdef SA_GRAPH_MUTATION_CANARY
      // Planted bug for the CI canary: the merge silently drops one claimed
      // vertex per level, so its subtree gets a too-late (or no) level. The
      // differential oracle must catch this.
      if (next.size() > 1) {
        next.pop_back();
      }
#endif
      visited += next.size();
      frontier.swap(next);
    }
    return 0;
  });

  streamed.ForEach([&](int, uint64_t& c) { edges_streamed += c; });
  SA_OBS_COUNT_N(kGraphBfsRounds, rounds);
  SA_OBS_COUNT_N(kGraphFrontierPushes, visited);
  SA_OBS_COUNT_N(kGraphEdgesStreamed, edges_streamed);
  if (mix != nullptr) {
    // Frontier order is data-dependent, so the offset reads are random
    // gathers; the edge lists themselves stream.
    mix->begin_rand += 2 * visited;
    mix->edge_seq += edges_streamed;
  }
  return std::vector<uint64_t>(level_data, level_data + n);
}

std::vector<uint64_t> BfsLevelsSmart(rts::WorkerPool& pool, const SmartCsrGraph& graph,
                                     VertexId source, const platform::Topology& topology) {
  return BfsLevelsSmart(pool, graph.view(), source, topology, nullptr);
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

std::vector<uint64_t> ConnectedComponents(const CsrGraph& graph) {
  const uint64_t n = graph.num_vertices();
  std::vector<uint64_t> label(n);
  for (uint64_t v = 0; v < n; ++v) {
    label[v] = v;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint64_t v = 0; v < n; ++v) {
      uint64_t m = label[v];
      for (EdgeId e = graph.begin()[v]; e < graph.begin()[v + 1]; ++e) {
        m = std::min(m, label[graph.edge()[e]]);
      }
      for (EdgeId e = graph.rbegin()[v]; e < graph.rbegin()[v + 1]; ++e) {
        m = std::min(m, label[graph.redge()[e]]);
      }
      if (m < label[v]) {
        label[v] = m;
        changed = true;
      }
    }
  }
  return label;
}

std::vector<uint64_t> ConnectedComponentsSmart(rts::WorkerPool& pool, const CsrView& graph,
                                               const platform::Topology& topology,
                                               AccessMix* mix) {
  const uint64_t n = graph.num_vertices;
  if (n == 0) {
    return {};
  }
  auto labels = smart::SmartArray::Allocate(n, smart::PlacementSpec::Interleaved(), 64, topology);
  uint64_t* label = labels->MutableReplica(0);
  rts::ParallelFor(pool, 0, n, smart::kChunkAlignedGrain, [&](int, uint64_t b, uint64_t e) {
    for (uint64_t v = b; v < e; ++v) {
      label[v] = v;
    }
  });

  // One relaxation sweep over one (offsets, targets) pair. Each grain decodes
  // its offsets and the target slice they bound in bulk, each array at its
  // own width (registry slots adapt independently, so the forward and
  // reverse pairs can sit at different widths mid-program); the label reads
  // stay per-element (random gathers). Label propagation converges to the
  // same fixpoint — the per-component minimum — whatever order the edges
  // relax in, so sweeping the forward and reverse lists in separate passes
  // preserves the oracle.
  std::atomic<bool> changed{false};
  rts::WorkerLocal<std::vector<uint64_t>> scratch(pool.num_workers());
  const auto sweep = [&](const smart::SmartArray& offsets, const smart::SmartArray& targets) {
    rts::ParallelFor(pool, 0, n, rts::kDefaultGrain, [&](int worker, uint64_t b, uint64_t e) {
      GrainSlice slice(offsets, targets, pool.worker_socket(worker), b, e, scratch[worker]);
      bool local_changed = false;
      for (uint64_t v = b; v < e; ++v) {
        uint64_t m = LoadRelaxed(&label[v]);
        slice.ForEachTarget(v, [&](uint64_t u) { m = std::min(m, LoadRelaxed(&label[u])); });
        // Monotone decrease; races only delay convergence.
        if (m < LoadRelaxed(&label[v])) {
          StoreRelaxed(&label[v], m);
          local_changed = true;
        }
      }
      if (local_changed) {
        changed.store(true, std::memory_order_relaxed);
      }
    });
  };

  uint64_t iterations = 0;
  // Early-exit convergence: the loop ends the first round no label moved.
  while (true) {
    ++iterations;
    changed.store(false);
    sweep(*graph.begin, *graph.edge);
    sweep(*graph.rbegin, *graph.redge);
    if (!changed.load()) {
      break;
    }
  }

  SA_OBS_COUNT_N(kGraphCcIterations, iterations);
  SA_OBS_COUNT_N(kGraphEdgesStreamed, 2 * iterations * graph.num_edges);
  SA_OBS_COUNT_N(kGraphRandomGathers, 2 * iterations * graph.num_edges);
  if (mix != nullptr) {
    // A round sweeps every offset array in ascending vertex order and
    // streams both edge lists end to end.
    mix->begin_seq += iterations * (n + 1);
    mix->rbegin_seq += iterations * (n + 1);
    mix->edge_seq += iterations * graph.num_edges;
    mix->redge_seq += iterations * graph.num_edges;
  }
  return std::vector<uint64_t>(label, label + n);
}

std::vector<uint64_t> ConnectedComponentsSmart(rts::WorkerPool& pool,
                                               const SmartCsrGraph& graph,
                                               const platform::Topology& topology) {
  return ConnectedComponentsSmart(pool, graph.view(), topology, nullptr);
}

// ---------------------------------------------------------------------------
// Triangle counting
// ---------------------------------------------------------------------------

uint64_t CountTriangles(const CsrGraph& graph) {
  uint64_t count = 0;
  std::vector<uint64_t> nv;
  std::vector<uint64_t> nu;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    NeighborsAboveRef(graph, v, v, &nv);
    for (const uint64_t u : nv) {
      NeighborsAboveRef(graph, u, u, &nu);
      count += SortedIntersectionSize(nv, nu);
    }
  }
  return count;
}

namespace {

struct TriPartial {
  uint64_t triangles = 0;
  uint64_t decoded = 0;        // packed edge-list elements decoded
  uint64_t offset_reads = 0;   // begin/rbegin offset pairs read (each array)
  uint64_t intersections = 0;  // ordered-intersection merges performed

  TriPartial& operator+=(const TriPartial& o) {
    triangles += o.triangles;
    decoded += o.decoded;
    offset_reads += o.offset_reads;
    intersections += o.intersections;
    return *this;
  }
};

}  // namespace

uint64_t CountTrianglesSmart(rts::WorkerPool& pool, const CsrView& graph, AccessMix* mix) {
  if (graph.num_vertices == 0) {
    return 0;
  }
  const TriPartial total = rts::ParallelReduce<TriPartial>(
      pool, 0, graph.num_vertices, rts::kDefaultGrain,
      [&](int worker, uint64_t b, uint64_t e) {
        const int socket = pool.worker_socket(worker);
        const Adjacency adjacency{{*graph.begin, socket},
                                  {*graph.edge, socket},
                                  {*graph.rbegin, socket},
                                  {*graph.redge, socket}};
        std::vector<uint64_t> nv;
        std::vector<uint64_t> nu;
        TriPartial local;
        for (uint64_t v = b; v < e; ++v) {
          local.decoded += adjacency.NeighborsAbove(v, v, &nv);
          local.offset_reads += 2;
          for (const uint64_t u : nv) {
            local.decoded += adjacency.NeighborsAbove(u, u, &nu);
            local.offset_reads += 2;
            local.triangles += SortedIntersectionSize(nv, nu);
            ++local.intersections;
          }
        }
        return local;
      });

  SA_OBS_COUNT_N(kGraphTriIntersections, total.intersections);
  SA_OBS_COUNT_N(kGraphRandomGathers, total.decoded);
  if (mix != nullptr) {
    // Neighbor lists are re-fetched at data-dependent vertices, so the whole
    // access pattern — offsets and list elements alike — is gather-shaped
    // (split evenly across the forward and reverse pairs).
    mix->begin_rand += total.offset_reads;
    mix->rbegin_rand += total.offset_reads;
    mix->edge_rand += total.decoded / 2;
    mix->redge_rand += total.decoded / 2;
  }
  return total.triangles;
}

uint64_t CountTrianglesSmart(rts::WorkerPool& pool, const SmartCsrGraph& graph) {
  return CountTrianglesSmart(pool, graph.view(), nullptr);
}

}  // namespace sa::graph
