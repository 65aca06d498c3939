// Ablations for the design choices DESIGN.md §5 calls out:
//  * chunk unpack() vs 64 repeated get() calls for scans (§4.3's claim that
//    the iterator hides unpack cost);
//  * runtime-bits codec dispatch vs compile-time template specialization;
//  * dynamic batch grain for the Callisto-style loop;
//  * per-socket vs global batch counters (scheduling ablation).
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "rts/parallel_for.h"
#include "smart/dispatch.h"
#include "smart/iterator.h"
#include "smart/map_api.h"
#include "smart/smart_array.h"

namespace {

constexpr uint64_t kN = 1 << 18;
constexpr uint32_t kBits = 33;

std::vector<uint64_t> MakeWords() {
  std::vector<uint64_t> words((kN / sa::kChunkElems) * sa::WordsPerChunk(kBits));
  const auto& codec = sa::smart::CodecFor(kBits);
  sa::Xoshiro256 rng(1);
  for (uint64_t i = 0; i < kN; ++i) {
    codec.init(words.data(), i, rng() & sa::LowMask(kBits));
  }
  return words;
}

// --- unpack-based chunk scan vs repeated getter ---

void BM_ScanViaUnpack(benchmark::State& state) {
  const auto words = MakeWords();
  uint64_t out[sa::kChunkElems];
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t chunk = 0; chunk < kN / sa::kChunkElems; ++chunk) {
      sa::smart::BitCompressedArray<kBits>::UnpackImpl(words.data(), chunk, out);
      for (uint32_t i = 0; i < sa::kChunkElems; ++i) {
        sum += out[i];
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_ScanViaUnpack);

void BM_ScanViaRepeatedGet(benchmark::State& state) {
  const auto words = MakeWords();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t i = 0; i < kN; ++i) {
      sum += sa::smart::BitCompressedArray<kBits>::GetImpl(words.data(), i);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_ScanViaRepeatedGet);

void BM_ScanViaUnrolledUnpack(benchmark::State& state) {
  const auto words = MakeWords();
  uint64_t out[sa::kChunkElems];
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t chunk = 0; chunk < kN / sa::kChunkElems; ++chunk) {
      sa::smart::BitCompressedArray<kBits>::UnpackUnrolledImpl(words.data(), chunk, out);
      for (uint32_t i = 0; i < sa::kChunkElems; ++i) {
        sum += out[i];
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_ScanViaUnrolledUnpack);

// --- iterator vs bounded map() API (§7's alternative unified API) ---

void BM_ScanViaIterator(benchmark::State& state) {
  static const auto topo = sa::platform::Topology::Host();
  static const auto array = [] {
    auto a = sa::smart::SmartArray::Allocate(kN, sa::smart::PlacementSpec::OsDefault(), kBits,
                                             sa::platform::Topology::Host());
    for (uint64_t i = 0; i < kN; ++i) {
      a->Init(i, i & sa::LowMask(kBits));
    }
    return a;
  }();
  for (auto _ : state) {
    sa::smart::TypedIterator<kBits> it(array->GetReplica(0), 0);
    uint64_t sum = 0;
    for (uint64_t i = 0; i < kN; ++i) {
      sum += it.Get();  // per-element "new chunk?" branch
      it.Next();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_ScanViaIterator);

void BM_ScanViaMapApi(benchmark::State& state) {
  static const auto array = [] {
    auto a = sa::smart::SmartArray::Allocate(kN, sa::smart::PlacementSpec::OsDefault(), kBits,
                                             sa::platform::Topology::Host());
    for (uint64_t i = 0; i < kN; ++i) {
      a->Init(i, i & sa::LowMask(kBits));
    }
    return a;
  }();
  for (auto _ : state) {
    uint64_t sum = 0;
    sa::smart::MapRange(*array, 0, kN, 0,
                        [&sum](uint64_t value, uint64_t) { sum += value; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_ScanViaMapApi);

// --- compile-time template vs runtime-bits function-pointer dispatch ---

void BM_DispatchCompileTime(benchmark::State& state) {
  const auto words = MakeWords();
  for (auto _ : state) {
    uint64_t sum = 0;
    sa::smart::TypedIterator<kBits> it(words.data(), 0);
    for (uint64_t i = 0; i < kN; ++i) {
      sum += it.Get();
      it.Next();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_DispatchCompileTime);

// BM_ScanViaUnpack's decoder and loop, with the decoder picked from a width
// the compiler cannot see: one indirect call per chunk.
void BM_DispatchRuntimeBits(benchmark::State& state) {
  const auto words = MakeWords();
  uint32_t bits = kBits;
  benchmark::DoNotOptimize(bits);
  const auto unpack = sa::smart::WithBits(
      bits, [](auto b) { return &sa::smart::BitCompressedArray<b()>::UnpackImpl; });
  uint64_t out[sa::kChunkElems];
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t chunk = 0; chunk < kN / sa::kChunkElems; ++chunk) {
      unpack(words.data(), chunk, out);
      for (uint32_t i = 0; i < sa::kChunkElems; ++i) {
        sum += out[i];
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_DispatchRuntimeBits);

// --- loop grain and scheduling strategy (real pool on the host) ---

void BM_ParallelForGrain(benchmark::State& state) {
  static const auto topo = sa::platform::Topology::Host();
  static sa::rts::WorkerPool pool(topo);
  const auto grain = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    const uint64_t sum = sa::rts::ParallelReduce<uint64_t>(
        pool, 0, kN, grain, [](int, uint64_t b, uint64_t e) {
          uint64_t s = 0;
          for (uint64_t i = b; i < e; ++i) {
            s += i;
          }
          return s;
        });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_ParallelForGrain)->Arg(256)->Arg(4096)->Arg(65536);

void BM_SchedulingStrategy(benchmark::State& state) {
  static const auto topo = sa::platform::Topology::Host();
  static sa::rts::WorkerPool pool(topo);
  const auto scheduling = static_cast<sa::rts::Scheduling>(state.range(0));
  for (auto _ : state) {
    const uint64_t sum = sa::rts::ParallelReduce<uint64_t>(
        pool, 0, kN, 4096,
        [](int, uint64_t b, uint64_t e) {
          uint64_t s = 0;
          for (uint64_t i = b; i < e; ++i) {
            s += i * i;
          }
          return s;
        },
        scheduling);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_SchedulingStrategy)
    ->Arg(static_cast<int>(sa::rts::Scheduling::kDynamicGlobal))
    ->Arg(static_cast<int>(sa::rts::Scheduling::kDynamicPerSocket))
    ->Arg(static_cast<int>(sa::rts::Scheduling::kStatic));

}  // namespace
