#include "smart/restructure.h"

#include <algorithm>
#include <atomic>

#include "common/bits.h"
#include "obs/telemetry.h"
#include "rts/parallel_for.h"
#include "smart/dictionary.h"
#include "smart/for_delta.h"
#include "smart/map_api.h"
#include "smart/parallel_ops.h"
#include "smart/run_length.h"

namespace sa::smart {

std::unique_ptr<SmartArray> TryEncode(const SmartArray& source, Encoding encoding,
                                      PlacementSpec placement, uint32_t bits,
                                      const platform::Topology& topology) {
  switch (encoding) {
    case Encoding::kForDelta:
      return ForDeltaArray::TryBuild(source, placement, bits, topology);
    case Encoding::kDictionary:
      return DictionaryArray::TryBuild(source, placement, bits, topology);
    case Encoding::kRunLength:
      return RunLengthArray::TryBuild(source, placement, bits, topology);
    case Encoding::kBitPacked:
      break;
  }
  SA_CHECK_MSG(false, "TryEncode builds the read-optimised encodings; use TryRestructure");
  return nullptr;
}

std::unique_ptr<SmartArray> Encode(std::span<const uint64_t> values, Encoding encoding,
                                   PlacementSpec placement, const platform::Topology& topology) {
  SA_CHECK_MSG(!values.empty(), "cannot encode an empty array");
  const uint32_t bits = BitsForValue(*std::max_element(values.begin(), values.end()));
  // The other encodings stream from a transient single-replica copy.
  auto packed = SmartArray::Allocate(
      values.size(), encoding == Encoding::kBitPacked ? placement : PlacementSpec::OsDefault(),
      bits, topology);
  PackRange(*packed, 0, values.size(), values.data());
  if (encoding == Encoding::kBitPacked) {
    return packed;
  }
  auto array = TryEncode(*packed, encoding, placement, 0, topology);
  SA_CHECK_MSG(array != nullptr, "smart-array replica allocation failed");
  return array;
}

uint32_t MinimalBits(rts::WorkerPool& pool, const SmartArray& array) {
  std::vector<uint64_t> partial_max(pool.num_workers(), 0);
  rts::ParallelFor(pool, 0, array.length(), kChunkAlignedGrain,
                   [&](int worker, uint64_t b, uint64_t e) {
                     uint64_t local = partial_max[worker];
                     MapRange(array, b, e, pool.worker_socket(worker),
                              [&local](uint64_t value, uint64_t) {
                                local = std::max(local, value);
                              });
                     partial_max[worker] = local;
                   });
  uint64_t max_value = 0;
  for (const uint64_t m : partial_max) {
    max_value = std::max(max_value, m);
  }
  return BitsForValue(max_value);
}

std::unique_ptr<SmartArray> Restructure(rts::WorkerPool& pool, const SmartArray& source,
                                        PlacementSpec placement, uint32_t bits,
                                        const platform::Topology& topology) {
  auto target = TryRestructure(pool, source, placement, bits, topology);
  SA_CHECK_MSG(target != nullptr,
               "restructure failed: target width cannot hold a stored value, or the "
               "target allocation failed");
  return target;
}

std::unique_ptr<SmartArray> TryRestructure(rts::WorkerPool& pool, const SmartArray& source,
                                           PlacementSpec placement, uint32_t bits,
                                           const platform::Topology& topology,
                                           RestructureStats* stats, Encoding encoding) {
  // Timing is collected when the caller wants the breakdown or the telemetry
  // layer is live; otherwise the rebuild runs clock-free.
  const bool timed = stats != nullptr || obs::Enabled();
  const uint64_t wall_start = timed ? obs::NowNs() : 0;
  std::atomic<uint64_t> unpack_ns{0};
  std::atomic<uint64_t> pack_ns{0};
  const auto finish = [&](bool same_width, int replicas) {
    if (!timed) {
      return;
    }
    const uint64_t wall = obs::NowNs() - wall_start;
    const uint64_t unpack = unpack_ns.load(std::memory_order_relaxed);
    const uint64_t pack = pack_ns.load(std::memory_order_relaxed);
    if (stats != nullptr) {
      stats->wall_ns = wall;
      stats->unpack_ns = unpack;
      stats->pack_ns = pack;
      stats->replicas = replicas;
      stats->same_width = same_width;
    }
    SA_OBS_HIST(kRestructureWallNs, wall);
    if (!same_width) {
      SA_OBS_HIST(kRestructureUnpackNs, unpack);
      SA_OBS_HIST(kRestructurePackNs, pack);
    }
  };

  SA_OBS_COUNT(kRestructures);
  const uint32_t target_bits = bits == 0 ? source.bits() : bits;

  // Read-optimised targets: the encoding factory owns the build (the storage
  // is measured from the data, not requested). Serial by design — the daemon
  // builds them only for sealed read-only slots.
  if (encoding != Encoding::kBitPacked) {
    auto target = TryEncode(source, encoding, placement, target_bits, topology);
    if (target == nullptr) {
      SA_OBS_COUNT(kRestructureOverflowAborts);
      finish(/*same_width=*/false, 0);
      return nullptr;
    }
    finish(/*same_width=*/false, target->num_replicas());
    return target;
  }

  // Non-aborting allocation: an injected (or future real) OOM during a
  // rebuild is a retryable outcome for the adaptation daemon, exactly like
  // a width overflow.
  auto target = SmartArray::TryAllocate(source.length(), placement, target_bits, topology);
  if (target == nullptr) {
    return nullptr;
  }

  // Same-width fast path: the packed layouts are identical, so a rebuild
  // that only changes placement is a straight word copy per replica — no
  // decode, no width check (the source already fit). Only available when
  // the source is itself bit-packed; other encodings take the decode path.
  if (target_bits == source.bits() && source.encoding() == Encoding::kBitPacked) {
    const uint64_t words = source.words_per_replica();
    rts::ParallelFor(pool, 0, words, rts::kDefaultGrain,
                     [&](int worker, uint64_t b, uint64_t e) {
                       const uint64_t* src = source.GetReplica(pool.worker_socket(worker));
                       for (int r = 0; r < target->num_replicas(); ++r) {
                         uint64_t* dst = target->MutableReplica(r);
                         std::copy(src + b, src + e, dst + b);
                       }
                     });
    // Contents are identical chunk-for-chunk, so the zones carry over
    // verbatim — a scan against the replica must never see zones narrower
    // than the data (the testkit's scan_ops fault scenarios interleave
    // restructures, failed restructures, and writes with zone-mapped scans).
    target->CopyZoneMapFrom(source);
    finish(/*same_width=*/true, target->num_replicas());
    return target;
  }

  // Width change: chunk-parallel decode -> checked repack. Each worker batch
  // decodes kStageElems elements into a stack buffer through the source's
  // bulk decode and hands it to TryPackRange, whose one bounds pass checks
  // the target width and installs the target's zones before the
  // word-centric pack network writes every replica: no per-value virtual
  // Get and no per-element read-modify-write. Batches are chunk-aligned
  // (kChunkAlignedGrain is a multiple of kStageElems), so parallel packers
  // never share a target word and every chunk gets exact bounds.
  std::atomic<bool> overflow{false};
  rts::ParallelFor(
      pool, 0, source.length(), kChunkAlignedGrain, [&](int worker, uint64_t b, uint64_t e) {
        uint64_t buffer[kStageElems];
        const uint64_t* src = source.GetReplica(pool.worker_socket(worker));
        // Batch-granular so the clock reads amortize over 1k elements.
        uint64_t local_unpack_ns = 0;
        uint64_t local_pack_ns = 0;
        for (uint64_t batch = b; batch < e; batch += kStageElems) {
          const uint64_t batch_end = std::min(e, batch + kStageElems);
          const uint64_t t0 = timed ? obs::NowNs() : 0;
          // Virtual bulk decode: the source may not be bit-packed.
          source.RangeUnpack(src, batch, batch_end, buffer);
          const uint64_t t1 = timed ? obs::NowNs() : 0;
          local_unpack_ns += t1 - t0;
          if (SA_UNLIKELY(!TryPackRange(*target, batch, batch_end, buffer))) {
            overflow.store(true, std::memory_order_relaxed);
            break;
          }
          if (timed) {
            local_pack_ns += obs::NowNs() - t1;
          }
        }
        if (timed) {
          unpack_ns.fetch_add(local_unpack_ns, std::memory_order_relaxed);
          pack_ns.fetch_add(local_pack_ns, std::memory_order_relaxed);
        }
      });
  finish(/*same_width=*/false, target->num_replicas());
  if (overflow.load()) {
    SA_OBS_COUNT(kRestructureOverflowAborts);
    return nullptr;
  }
  return target;
}

}  // namespace sa::smart
