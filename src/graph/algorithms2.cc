#include "graph/algorithms2.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <utility>

#include "common/bits.h"
#include "common/macros.h"
#include "graph/algorithms.h"
#include "graph/grain_slice.h"
#include "obs/telemetry.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::graph {
namespace {

// Sorted unique neighbors of `v` (forward + reverse lists merged), keeping
// only ids greater than `floor`: the id-ordered serial reference's lists.
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

// The order the oriented kernels orient by: u outranks v when it has more
// neighbors (out- plus in-degree), ties broken by the larger id. Each
// undirected edge is kept once, at its lower-ranked endpoint, so a hub keeps
// only the few neighbors that outrank it (Schank & Wagner 2005; Latapy 2008).
inline bool Outranks(uint64_t u, uint64_t degree_u, uint64_t v, uint64_t degree_v) {
  return degree_u > degree_v || (degree_u == degree_v && u > v);
}

// Appends the union of the ascending lists `a` and `b` to `out`, each value
// once: one vertex's out- and in-neighbors, which share a value for an edge
// in both directions and repeat it for duplicate edges.
void AppendUnion(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b,
                 std::vector<uint64_t>* out) {
  const size_t first = out->size();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const uint64_t next = j == b.size() || (i < a.size() && a[i] <= b[j]) ? a[i++] : b[j++];
    if (out->size() == first || out->back() != next) {
      out->push_back(next);
    }
  }
}

inline void SetMark(std::vector<uint64_t>& marks, uint64_t u) {
  marks[u / kWordBits] |= uint64_t{1} << (u % kWordBits);
}
inline uint64_t Marked(const std::vector<uint64_t>& marks, uint64_t u) {
  return (marks[u / kWordBits] >> (u % kWordBits)) & 1;
}

}  // namespace

uint64_t CountTrianglesOriented(const CsrGraph& graph) {
  const uint64_t n = graph.num_vertices();
  const std::vector<uint64_t> degree = DegreeCentrality(graph);
  // N+(v), the neighbors that outrank v, for every v as one plain CSR.
  std::vector<uint64_t> above_begin(n + 1, 0);
  std::vector<uint64_t> above;
  std::vector<uint64_t> forward;
  std::vector<uint64_t> reverse;
  for (uint64_t v = 0; v < n; ++v) {
    forward.clear();
    for (EdgeId e = graph.begin()[v]; e < graph.begin()[v + 1]; ++e) {
      const uint64_t u = graph.edge()[e];
      if (Outranks(u, degree[u], v, degree[v])) {
        forward.push_back(u);
      }
    }
    reverse.clear();
    for (EdgeId e = graph.rbegin()[v]; e < graph.rbegin()[v + 1]; ++e) {
      const uint64_t u = graph.redge()[e];
      if (Outranks(u, degree[u], v, degree[v])) {
        reverse.push_back(u);
      }
    }
    AppendUnion(forward, reverse, &above);
    above_begin[v + 1] = above.size();
  }
  // Each triangle is counted once, at its lowest-ranked vertex v: its other
  // two vertices u and w are both in N+(v), and w is in N+(u).
  std::vector<uint64_t> marks((n + kWordBits - 1) / kWordBits, 0);
  uint64_t count = 0;
  for (uint64_t v = 0; v < n; ++v) {
    for (uint64_t i = above_begin[v]; i < above_begin[v + 1]; ++i) {
      SetMark(marks, above[i]);
    }
    for (uint64_t i = above_begin[v]; i < above_begin[v + 1]; ++i) {
      const uint64_t u = above[i];
      for (uint64_t j = above_begin[u]; j < above_begin[u + 1]; ++j) {
        count += Marked(marks, above[j]);
      }
    }
    for (uint64_t i = above_begin[v]; i < above_begin[v + 1]; ++i) {
      marks[above[i] / kWordBits] = 0;
    }
  }
  return count;
}

namespace {

// Vertices per grain of the oriented passes: 64 whole chunks, a quarter of
// a vertex sweep's grain, so the hub-heavy head of a power-law graph spreads
// over several workers.
constexpr uint64_t kTriangleGrain = 64 * kChunkElems;

// Where vertex v's list bounds sit in the oriented offsets. Grain [b, e)
// stores its e - b + 1 bounds from b + 64 * (b / kTriangleGrain) on, so every
// grain starts on a chunk and owns its chunks outright; v's list is
// [offsets[OffsetSlot(v)], offsets[OffsetSlot(v) + 1]).
constexpr uint64_t OffsetSlot(uint64_t v) { return v + kChunkElems * (v / kTriangleGrain); }

struct OrientScratch {
  std::vector<uint64_t> out_slice;  // GrainSlice buffers
  std::vector<uint64_t> in_slice;
  std::vector<uint64_t> forward;  // v's out-neighbors that outrank it
  std::vector<uint64_t> reverse;  // v's in-neighbors that outrank it
  std::vector<uint64_t> lists;    // the grain's N+ lists, concatenated
  std::vector<uint64_t> bounds;   // and their e - b + 1 bounds
};

struct CountScratch {
  std::vector<uint64_t> slice;  // GrainSlice buffer
  std::vector<uint64_t> above;  // N+(v)
  std::vector<std::pair<uint64_t, uint64_t>> spans;  // [first, last) of each N+(u)
  std::vector<uint64_t> marks;  // V bits, set for N+(v) while v is counted
};

struct TriPartial {
  uint64_t triangles = 0;
  uint64_t probes = 0;   // N+(u) lists probed
  uint64_t gathers = 0;  // ids read from them

  TriPartial& operator+=(const TriPartial& o) {
    triangles += o.triangles;
    probes += o.probes;
    gathers += o.gathers;
    return *this;
  }
};

}  // namespace

uint64_t CountTrianglesSmart(rts::WorkerPool& pool, const CsrView& graph, AccessMix* mix) {
  const uint64_t n = graph.num_vertices;
  if (n == 0) {
    return 0;
  }
  // The per-call arrays carry a spare chunk past the last element in use,
  // which GetPaddedImpl's branch-free gathers need.
  const auto allocate = [&](uint64_t length, uint32_t bits) {
    return smart::SmartArray::Allocate(length + kChunkElems, smart::PlacementSpec::Interleaved(),
                                       bits, graph.begin->topology());
  };
  const int workers = pool.num_workers();

  // Pass 1: the rank keys, out- plus in-degree packed per vertex.
  auto degree = allocate(n, BitsForValue(2 * graph.num_edges));
  DegreeCentralitySmart(pool, graph, degree.get(), nullptr);

  // Pass 2: the orientation. Each grain merges its vertices' out- and
  // in-lists, keeps the neighbors that outrank the vertex, and packs the
  // kept lists at a chunk-aligned position it claims. An undirected edge is
  // kept once, so E plus a chunk of padding per grain bounds the output.
  const uint64_t grains = (n + kTriangleGrain - 1) / kTriangleGrain;
  const uint64_t capacity = graph.num_edges + grains * kChunkElems;
  auto above = allocate(capacity, BitsForValue(n - 1));
  auto bounds = allocate(OffsetSlot(n - 1) + 2, BitsForValue(capacity));
  std::atomic<uint64_t> cursor{0};
  rts::WorkerLocal<OrientScratch> orient(workers);
  smart::WithBits(degree->bits(), [&](auto degree_bits_const) {
    using Degree = smart::BitCompressedArray<degree_bits_const()>;
    rts::ParallelFor(pool, 0, n, kTriangleGrain, [&](int worker, uint64_t b, uint64_t e) {
      SA_DCHECK(b % kTriangleGrain == 0);  // OffsetSlot's grains are the loop's batches
      const int socket = pool.worker_socket(worker);
      OrientScratch& s = orient[worker];
      GrainSlice out_edges(*graph.begin, *graph.edge, socket, b, e, s.out_slice);
      GrainSlice in_edges(*graph.rbegin, *graph.redge, socket, b, e, s.in_slice);
      const uint64_t* degree_rep = degree->GetReplica(socket);
      s.lists.clear();
      s.bounds.assign(1, 0);
      for (uint64_t v = b; v < e; ++v) {
        const uint64_t degree_v = Degree::GetPaddedImpl(degree_rep, v);
        s.forward.clear();
        s.reverse.clear();
        out_edges.ForEachTarget(v, [&](uint64_t u) {
          if (Outranks(u, Degree::GetPaddedImpl(degree_rep, u), v, degree_v)) {
            s.forward.push_back(u);
          }
        });
        in_edges.ForEachTarget(v, [&](uint64_t u) {
          if (Outranks(u, Degree::GetPaddedImpl(degree_rep, u), v, degree_v)) {
            s.reverse.push_back(u);
          }
        });
        AppendUnion(s.forward, s.reverse, &s.lists);
        s.bounds.push_back(s.lists.size());
      }
      const uint64_t at =
          cursor.fetch_add(AlignUp(s.lists.size(), kChunkElems), std::memory_order_relaxed);
      smart::PackRange(*above, at, at + s.lists.size(), s.lists.data());
      for (uint64_t& bound : s.bounds) {
        bound += at;
      }
      smart::PackRange(*bounds, OffsetSlot(b), OffsetSlot(b) + s.bounds.size(), s.bounds.data());
    });
    return 0;
  });
  degree.reset();

  // Pass 3: the count. Each vertex marks N+(v) in the worker's bitmap and
  // probes N+(u) for every u in it. The probes are the only random reads,
  // and they land in this call's arrays, never in the graph's. N+(v) is
  // swept three times so their cache misses overlap instead of chaining:
  // prefetch each u's bounds, read them and prefetch each N+(u)'s head,
  // then probe.
  const uint32_t bounds_bits = bounds->bits();
  uint64_t (*const bounds_get)(const uint64_t*, uint64_t) =
      smart::WithBits(bounds_bits, [](auto bits_const) {
        return &smart::BitCompressedArray<bits_const()>::GetPaddedImpl;
      });
  rts::WorkerLocal<CountScratch> count(workers);
  const TriPartial total = smart::WithBits(above->bits(), [&](auto ids_bits_const) {
    constexpr uint32_t kIdsBits = ids_bits_const();
    using Ids = smart::BitCompressedArray<kIdsBits>;
    return rts::ParallelReduce<TriPartial>(
        pool, 0, n, kTriangleGrain, [&](int worker, uint64_t b, uint64_t e) {
          const int socket = pool.worker_socket(worker);
          CountScratch& s = count[worker];
          // All zero between vertices: each vertex clears the words it set.
          s.marks.resize((n + kWordBits - 1) / kWordBits);
          GrainSlice lists(*bounds, *above, socket, b, e, s.slice, OffsetSlot(b));
          const uint64_t* ids_rep = above->GetReplica(socket);
          const uint64_t* bounds_rep = bounds->GetReplica(socket);
          TriPartial local;
          for (uint64_t v = b; v < e; ++v) {
            s.above.clear();
            lists.ForEachTarget(v, [&](uint64_t u) { s.above.push_back(u); });
            if (s.above.size() < 2) {
              continue;
            }
            for (const uint64_t u : s.above) {
              SetMark(s.marks, u);
              __builtin_prefetch(bounds_rep + OffsetSlot(u) * bounds_bits / kWordBits);
            }
            s.spans.clear();
            for (const uint64_t u : s.above) {
              const uint64_t first = bounds_get(bounds_rep, OffsetSlot(u));
              s.spans.emplace_back(first, bounds_get(bounds_rep, OffsetSlot(u) + 1));
              __builtin_prefetch(ids_rep + first * kIdsBits / kWordBits);
            }
            for (const auto& [first, last] : s.spans) {
              for (uint64_t i = first; i < last; ++i) {
                local.triangles += Marked(s.marks, Ids::GetPaddedImpl(ids_rep, i));
              }
              local.gathers += last - first;
            }
            local.probes += s.above.size();
            for (const uint64_t u : s.above) {
              s.marks[u / kWordBits] = 0;
            }
          }
          return local;
        });
  });

  SA_OBS_COUNT_N(kGraphEdgesStreamed, 2 * graph.num_edges);
  // One rank gather per streamed edge-list element, then the probes.
  SA_OBS_COUNT_N(kGraphRandomGathers, 2 * graph.num_edges + total.gathers);
  SA_OBS_COUNT_N(kGraphTriIntersections, total.probes);
  if (mix != nullptr) {
    // Two sequential passes over each offset array (the degrees, then the
    // orientation's grain slices) and one over each edge list. No gather
    // touches the graph's arrays.
    mix->begin_seq += 2 * (n + 1);
    mix->rbegin_seq += 2 * (n + 1);
    mix->edge_seq += graph.num_edges;
    mix->redge_seq += graph.num_edges;
  }
  return total.triangles;
}

}  // namespace sa::graph
