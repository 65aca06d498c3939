// GrainSlice: the contiguous CSR slice of one vertex-sweep grain, decoded in
// bulk (DESIGN.md §4i). Private to the graph kernels.
//
// A grain [b, e) over an (offsets, targets) pair decodes offsets [b, e+1)
// once, then streams the edge slice they bound through a block of kEdgeBlock
// decoded targets. The block is bounded in edges, not vertices, so a hub's
// list runs through the same buffer as everyone else's.
#ifndef SA_GRAPH_GRAIN_SLICE_H_
#define SA_GRAPH_GRAIN_SLICE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "smart/dispatch.h"
#include "smart/smart_array.h"

namespace sa::graph {

class GrainSlice {
 public:
  // A multiple of kChunkElems, so every block after the grain's first starts
  // on a chunk and decodes whole chunks.
  static constexpr uint64_t kEdgeBlock = 32 * kChunkElems;

  // `scratch` is the calling worker's buffer, grown once and reused by the
  // worker's later grains.
  GrainSlice(const smart::SmartArray& offsets, const smart::SmartArray& targets, int socket,
             uint64_t b, uint64_t e, std::vector<uint64_t>& scratch)
      : GrainSlice(offsets, targets, socket, b, e, scratch, b) {}

  // As above, with the grain's e - b + 1 offsets stored from index
  // `offsets_at` of `offsets` on rather than from b.
  GrainSlice(const smart::SmartArray& offsets, const smart::SmartArray& targets, int socket,
             uint64_t b, uint64_t e, std::vector<uint64_t>& scratch, uint64_t offsets_at)
      : first_(b),
        targets_codec_(smart::CodecFor(targets.bits())),
        targets_rep_(targets.GetReplica(socket)) {
    scratch.resize(std::max<uint64_t>(scratch.size(), e - b + 1 + kEdgeBlock));
    offsets_ = scratch.data();
    block_ = offsets_ + (e - b + 1);
    smart::CodecFor(offsets.bits())
        .unpack_range(offsets.GetReplica(socket), offsets_at, offsets_at + (e - b + 1), offsets_);
    block_begin_ = block_end_ = offsets_[0];
    slice_end_ = offsets_[e - b];
  }

  // Calls fn(u) for every target u of vertex v's list, in list order.
  // Vertices must come in ascending order, as a sweep visits them.
  template <typename Fn>
  void ForEachTarget(uint64_t v, Fn&& fn) {
    const uint64_t last = offsets_[v - first_ + 1];
    for (uint64_t i = offsets_[v - first_]; i < last; ++i) {
      if (i == block_end_) {
        block_begin_ = i;
        block_end_ = std::min(slice_end_, i / kChunkElems * kChunkElems + kEdgeBlock);
        targets_codec_.unpack_range(targets_rep_, block_begin_, block_end_, block_);
      }
      fn(block_[i - block_begin_]);
    }
  }

 private:
  uint64_t first_;
  const smart::CodecOps& targets_codec_;
  const uint64_t* targets_rep_;
  uint64_t* offsets_ = nullptr;  // offsets[first_ + j] at offsets_[j]
  uint64_t* block_ = nullptr;    // targets [block_begin_, block_end_)
  uint64_t block_begin_ = 0;
  uint64_t block_end_ = 0;
  uint64_t slice_end_ = 0;
};

}  // namespace sa::graph

#endif  // SA_GRAPH_GRAIN_SLICE_H_
