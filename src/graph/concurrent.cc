#include "graph/concurrent.h"

#include <algorithm>

#include "common/bits.h"

namespace sa::graph {
namespace {

// Creates `<name>` and uploads `values` through the slot's write path. The
// first write stores the widest representable data value and is immediately
// overwritten: it floors max_written_bits() at the data width, so a daemon
// restructure that lands *mid-upload* (the testkit runs one concurrently)
// can never narrow the storage below values still waiting to be written —
// ArraySlot::Write checks against the live width and would abort.
template <typename T>
runtime::ArraySlot* UploadSlot(runtime::ArrayRegistry& registry, const std::string& name,
                               const std::vector<T>& values, uint32_t bits,
                               const smart::PlacementSpec& placement) {
  const uint64_t length = std::max<uint64_t>(values.size(), 1);
  runtime::ArraySlot* slot = registry.Create(name, length, placement, bits);
  const uint32_t data_bits = MinBitsFor(values);
  slot->Write(0, LowMask(data_bits));
  slot->Write(0, values.empty() ? 0 : static_cast<uint64_t>(values[0]));
  for (uint64_t i = 1; i < values.size(); ++i) {
    slot->Write(i, static_cast<uint64_t>(values[i]));
  }
  // CSR topology is immutable once uploaded: tell the adaptation hints so
  // (otherwise the upload writes make the slot look write-heavy until ~20
  // read passes have amortized them, and replication/compression stay
  // unreachable).
  slot->SealWrites();
  return slot;
}

}  // namespace

void GraphSnapshot::Account(const AccessMix& mix) {
  if (!valid()) {
    return;
  }
  begin_.AccountReads(mix.begin_seq, mix.begin_rand);
  edge_.AccountReads(mix.edge_seq, mix.edge_rand);
  rbegin_.AccountReads(mix.rbegin_seq, mix.rbegin_rand);
  redge_.AccountReads(mix.redge_seq, mix.redge_rand);
  degree_.AccountReads(mix.degree_seq, mix.degree_rand);
}

void GraphSnapshot::Release() {
  begin_.Release();
  edge_.Release();
  rbegin_.Release();
  redge_.Release();
  degree_.Release();
}

RegistryCsrGraph::RegistryCsrGraph(runtime::ArrayRegistry& registry, std::string_view prefix,
                                   const CsrGraph& csr, const SmartGraphOptions& options)
    : prefix_(prefix), num_vertices_(csr.num_vertices()), num_edges_(csr.num_edges()) {
  const CsrWidths widths = ChooseWidths(csr, options);
  const smart::PlacementSpec& placement = options.placement;
  slots_.push_back(
      UploadSlot(registry, prefix_ + ".begin", csr.begin(), widths.index_bits, placement));
  slots_.push_back(
      UploadSlot(registry, prefix_ + ".edge", csr.edge(), widths.edge_bits, placement));
  slots_.push_back(
      UploadSlot(registry, prefix_ + ".rbegin", csr.rbegin(), widths.index_bits, placement));
  slots_.push_back(
      UploadSlot(registry, prefix_ + ".redge", csr.redge(), widths.edge_bits, placement));
  slots_.push_back(
      UploadSlot(registry, prefix_ + ".deg", widths.out_degrees, widths.degree_bits, placement));
}

GraphSnapshot RegistryCsrGraph::Pin() const {
  GraphSnapshot snapshot;
  snapshot.begin_ = slots_[0]->Acquire();
  snapshot.edge_ = slots_[1]->Acquire();
  snapshot.rbegin_ = slots_[2]->Acquire();
  snapshot.redge_ = slots_[3]->Acquire();
  snapshot.degree_ = slots_[4]->Acquire();
  snapshot.num_vertices_ = num_vertices_;
  snapshot.num_edges_ = num_edges_;
  return snapshot;
}

std::vector<uint64_t> BfsLevels(rts::WorkerPool& pool, GraphSnapshot& snapshot, VertexId source,
                                const platform::Topology& topology) {
  AccessMix mix;
  auto levels = BfsLevelsSmart(pool, snapshot.view(), source, topology, &mix);
  snapshot.Account(mix);
  return levels;
}

std::vector<uint64_t> ConnectedComponents(rts::WorkerPool& pool, GraphSnapshot& snapshot,
                                          const platform::Topology& topology) {
  AccessMix mix;
  auto labels = ConnectedComponentsSmart(pool, snapshot.view(), topology, &mix);
  snapshot.Account(mix);
  return labels;
}

uint64_t CountTriangles(rts::WorkerPool& pool, GraphSnapshot& snapshot) {
  AccessMix mix;
  const uint64_t triangles = CountTrianglesSmart(pool, snapshot.view(), &mix);
  snapshot.Account(mix);
  return triangles;
}

std::vector<uint64_t> DegreeCentrality(rts::WorkerPool& pool, GraphSnapshot& snapshot,
                                       const platform::Topology& topology) {
  AccessMix mix;
  const uint64_t n = snapshot.num_vertices();
  std::vector<uint64_t> out(n);
  if (n > 0) {
    auto centrality =
        smart::SmartArray::Allocate(n, smart::PlacementSpec::Interleaved(), 64, topology);
    DegreeCentralitySmart(pool, snapshot.view(), centrality.get(), &mix);
    snapshot.Account(mix);
    centrality->RangeUnpack(centrality->GetReplica(0), 0, n, out.data());
  }
  return out;
}

PageRankResult PageRank(rts::WorkerPool& pool, GraphSnapshot& snapshot,
                        const platform::Topology& topology, const PageRankOptions& options) {
  AccessMix mix;
  PageRankResult result = PageRankSmart(pool, snapshot.view(), topology, options, &mix);
  snapshot.Account(mix);
  return result;
}

}  // namespace sa::graph
