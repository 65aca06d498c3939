// Extension bench (§7): alternative compression techniques. For four data
// shapes, reports each technique's footprint, scan rate and random-access
// rate, plus what the automatic selector picks — google-benchmark micros
// live in micro_codec; this binary prints the comparison table.
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "encodings/encoding.h"
#include "platform/affinity.h"
#include "report/table.h"
#include "smart/restructure.h"

namespace {

using sa::smart::Encoding;

std::vector<uint64_t> MakeDataset(const std::string& kind, size_t n) {
  std::vector<uint64_t> v(n);
  sa::Xoshiro256 rng(42);
  if (kind == "uniform-20bit") {
    for (auto& x : v) {
      x = rng.Below(1 << 20);
    }
  } else if (kind == "low-cardinality") {
    for (auto& x : v) {
      x = (uint64_t{1} << 50) + rng.Below(12);
    }
  } else if (kind == "long-runs") {
    for (size_t i = 0; i < n; ++i) {
      v[i] = (i / 2000) % 7;
    }
  } else {  // clustered-timestamps
    for (size_t i = 0; i < n; ++i) {
      v[i] = (uint64_t{1} << 58) + i * 8 + rng.Below(64);
    }
  }
  return v;
}

double ScanRate(const sa::smart::SmartArray& array) {
  std::vector<uint64_t> out(array.length());
  const sa::platform::Stopwatch timer;
  array.RangeUnpack(array.GetReplica(0), 0, array.length(), out.data());
  volatile uint64_t sink = out[array.length() / 2];
  (void)sink;
  return static_cast<double>(array.length()) / timer.Seconds() / 1e6;
}

double RandomRate(const sa::smart::SmartArray& array) {
  sa::Xoshiro256 rng(7);
  constexpr int kProbes = 200'000;
  const uint64_t* replica = array.GetReplica(0);
  uint64_t sum = 0;
  const sa::platform::Stopwatch timer;
  for (int i = 0; i < kProbes; ++i) {
    sum += array.Get(rng.Below(array.length()), replica);
  }
  volatile uint64_t sink = sum;
  (void)sink;
  return kProbes / timer.Seconds() / 1e6;
}

}  // namespace

int main() {
  std::printf("Extension (paper §7): alternative compression techniques\n");
  std::printf("Dataset: 2M elements each; rates measured on this host.\n\n");

  const auto topo = sa::platform::Topology::Host();
  const auto placement = sa::smart::PlacementSpec::OsDefault();
  constexpr size_t kN = 2'000'000;

  for (const std::string kind :
       {"uniform-20bit", "low-cardinality", "long-runs", "clustered-timestamps"}) {
    const auto values = MakeDataset(kind, kN);
    const auto stats = sa::encodings::AnalyzeValues(values);
    const Encoding chosen = sa::encodings::ChooseEncoding(stats);

    std::printf("--- %s (distinct=%llu, runs=%llu) — selector picks: %s ---\n", kind.c_str(),
                static_cast<unsigned long long>(stats.distinct_values),
                static_cast<unsigned long long>(stats.runs), ToString(chosen));
    sa::report::Table table(
        {"technique", "footprint", "bits/elem", "scan M/s", "random-get M/s"});
    for (const Encoding e : {Encoding::kBitPacked, Encoding::kDictionary, Encoding::kRunLength,
                             Encoding::kForDelta}) {
      const auto array = sa::smart::Encode(values, e, placement, topo);
      table.AddRow({std::string(ToString(e)) + (e == chosen ? " *" : ""),
                    sa::report::Num(array->footprint_bytes() / 1e6, 2) + " MB",
                    sa::report::Num(8.0 * array->footprint_bytes() / kN, 2),
                    sa::report::Num(ScanRate(*array), 0), sa::report::Num(RandomRate(*array), 1)});
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  std::printf("'*' marks the technique the §7 dynamic selector chooses per dataset.\n");
  return 0;
}
