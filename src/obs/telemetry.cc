#include "obs/telemetry.h"

namespace sa::obs {

namespace internal {

Shard g_shards[kShards];
std::atomic<bool> g_enabled{true};

int RegisterThreadShard() {
  static std::atomic<int> next_start{0};
  return next_start.fetch_add(1, std::memory_order_relaxed) % kShards;
}

}  // namespace internal

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t CounterValue(CounterId id) {
  SA_DCHECK(id >= 0 && id < kCounterIdCount);
  uint64_t total = 0;
  for (const internal::Shard& shard : internal::g_shards) {
    total += shard.counters[id].load(std::memory_order_relaxed);
  }
  return total;
}

int64_t GaugeValue(GaugeId id) {
  SA_DCHECK(id >= 0 && id < kGaugeIdCount);
  int64_t total = 0;
  for (const internal::Shard& shard : internal::g_shards) {
    total += shard.gauges[id].load(std::memory_order_relaxed);
  }
  return total;
}

HistogramSnapshot HistogramValue(HistogramId id) {
  SA_DCHECK(id >= 0 && id < kHistogramIdCount);
  HistogramSnapshot snap{};
  for (const internal::Shard& shard : internal::g_shards) {
    for (int b = 0; b < kHistBuckets; ++b) {
      snap.buckets[b] += shard.hist_buckets[id][b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.hist_sums[id].load(std::memory_order_relaxed);
  }
  for (int b = 0; b < kHistBuckets; ++b) {
    snap.count += snap.buckets[b];
  }
  return snap;
}

namespace {

constexpr const char* kCounterNames[kCounterIdCount] = {
    "sa_snapshot_acquires_total",
    "sa_snapshot_reads_total",
    "sa_snapshot_scanned_elems_total",
    "sa_slot_writes_total",
    "sa_publishes_total",
    "sa_publish_lost_writes_total",
    "sa_epoch_advances_total",
    "sa_epoch_reclaimed_total",
    "sa_daemon_passes_total",
    "sa_daemon_sample_drops_total",
    "sa_daemon_restructures_total",
    "sa_daemon_reject_same_config_total",
    "sa_daemon_reject_margin_total",
    "sa_restructures_total",
    "sa_restructure_overflow_aborts_total",
    "sa_unpack_range_calls_total",
    "sa_unpack_range_bytes_total",
    "sa_pack_range_calls_total",
    "sa_pack_range_bytes_total",
    "sa_kernel_select_block_total",
    "sa_kernel_select_v2_total",
    "sa_parallel_for_loops_total",
    "sa_parallel_for_batches_total",
    "sa_parallel_for_steals_total",
    "sa_ffi_transitions_total",
    "sa_epoch_pin_rejects_total",
    "sa_registry_acquire_by_name_total",
    "sa_snapshot_acquire_rejects_total",
    "sa_slot_fetch_adds_total",
    "sa_daemon_shard_claims_total",
    "sa_daemon_shard_steals_total",
    "sa_daemon_backpressure_drops_total",
    "sa_graph_bfs_rounds_total",
    "sa_graph_cc_iterations_total",
    "sa_graph_frontier_pushes_total",
    "sa_graph_edges_streamed_total",
    "sa_graph_random_gathers_total",
    "sa_graph_tri_intersections_total",
    "sa_scan_chunks_scanned_total",
    "sa_scan_chunks_skipped_total",
    "sa_daemon_flap_holds_total",
    "sa_daemon_decisions_scored_total",
    "sa_kernel_select_avx512_total",
};

constexpr const char* kGaugeNames[kGaugeIdCount] = {
    "sa_live_snapshots",
    "sa_retired_versions",
    "sa_registry_slots",
    "sa_daemon_running",
    "sa_daemon_queue_depth",
};

constexpr const char* kHistogramNames[kHistogramIdCount] = {
    "sa_epoch_reclaim_ns",
    "sa_restructure_unpack_ns",
    "sa_restructure_pack_ns",
    "sa_restructure_wall_ns",
    "sa_daemon_pass_ns",
    "sa_daemon_calibration_error_ppm",
    "sa_daemon_realized_speedup_ppm",
};

}  // namespace

const char* CounterName(CounterId id) {
  SA_DCHECK(id >= 0 && id < kCounterIdCount);
  return kCounterNames[id];
}

const char* GaugeName(GaugeId id) {
  SA_DCHECK(id >= 0 && id < kGaugeIdCount);
  return kGaugeNames[id];
}

const char* HistogramName(HistogramId id) {
  SA_DCHECK(id >= 0 && id < kHistogramIdCount);
  return kHistogramNames[id];
}

void ResetForTesting() {
  for (internal::Shard& shard : internal::g_shards) {
    for (auto& c : shard.counters) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& g : shard.gauges) {
      g.store(0, std::memory_order_relaxed);
    }
    for (auto& hist : shard.hist_buckets) {
      for (auto& b : hist) {
        b.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& s : shard.hist_sums) {
      s.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace sa::obs
