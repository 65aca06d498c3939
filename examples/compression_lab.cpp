// Compression lab: the §7 extensions in one walkthrough — alternative
// encodings with automatic technique selection, smart collections, the
// bounded map() API, and on-the-fly restructuring driven by the adaptivity
// layer.
#include <cstdio>

#include "adapt/adaptive_array.h"
#include "collections/smart_map.h"
#include "collections/smart_set.h"
#include "common/random.h"
#include "encodings/encoding.h"
#include "report/table.h"
#include "smart/map_api.h"
#include "smart/restructure.h"

int main() {
  const auto topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo);
  const auto placement = sa::smart::PlacementSpec::OsDefault();

  // --- 1. Encodings pick themselves from the data. -------------------------
  std::printf("1) automatic encoding selection\n");
  sa::Xoshiro256 rng(1);
  sa::report::Table table({"dataset", "selected", "bits/elem", "vs 64-bit"});
  struct Dataset {
    const char* name;
    std::vector<uint64_t> values;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"sensor ids (12 distinct)", {}});
  datasets.push_back({"sorted event times", {}});
  datasets.push_back({"status column (runs)", {}});
  for (size_t i = 0; i < 500'000; ++i) {
    datasets[0].values.push_back((uint64_t{1} << 42) + rng.Below(12));
    datasets[1].values.push_back((uint64_t{1} << 50) + i * 20 + rng.Below(20));
    datasets[2].values.push_back((i / 10'000) % 3);
  }
  for (const auto& d : datasets) {
    const auto encoding = sa::encodings::ChooseEncoding(sa::encodings::AnalyzeValues(d.values));
    const auto array = sa::smart::Encode(d.values, encoding, placement, topo);
    const double bits = 8.0 * array->footprint_bytes() / d.values.size();
    table.AddRow({d.name, ToString(array->encoding()), sa::report::Num(bits, 2),
                  sa::report::Num(64.0 / bits, 1) + "x smaller"});
  }
  std::printf("%s\n", table.ToString().c_str());

  // --- 2. Smart collections. ----------------------------------------------
  std::printf("2) smart collections\n");
  std::vector<uint64_t> user_ids(200'000);
  for (auto& id : user_ids) {
    id = rng.Below(1 << 24);
  }
  const sa::collections::SmartSet premium(user_ids, sa::collections::SetLayout::kEytzinger,
                                          placement, topo);
  std::vector<std::pair<uint64_t, uint64_t>> balances(user_ids.size());
  for (size_t i = 0; i < user_ids.size(); ++i) {
    balances[i] = {user_ids[i], rng.Below(100'000)};
  }
  const sa::collections::SmartMap balance_of(balances, placement, topo);
  const uint64_t probe = user_ids[12'345];
  std::printf("   set: %llu members (%.2f MB, %u-bit elements); contains(%llu) = %s\n",
              static_cast<unsigned long long>(premium.size()),
              premium.footprint_bytes() / 1e6, premium.bits(),
              static_cast<unsigned long long>(probe), premium.Contains(probe) ? "yes" : "no");
  std::printf("   map: %llu entries at load %.2f, avg probe %.2f; balance[%llu] = %llu\n\n",
              static_cast<unsigned long long>(balance_of.size()),
              static_cast<double>(balance_of.size()) / balance_of.capacity(),
              balance_of.average_probe_length(), static_cast<unsigned long long>(probe),
              static_cast<unsigned long long>(*balance_of.Get(probe)));

  // --- 3. The bounded map() API. -------------------------------------------
  std::printf("3) bounded map() API (branch-free chunk scans)\n");
  auto column = sa::smart::SmartArray::Allocate(1'000'000, placement, 18, topo);
  for (uint64_t i = 0; i < column->length(); ++i) {
    column->Init(i, i & sa::LowMask(18));
  }
  uint64_t over_threshold = 0;
  sa::smart::MapRange(*column, 0, column->length(), 0,
                      [&](uint64_t value, uint64_t) { over_threshold += value > 200'000; });
  std::printf("   predicate count over 1M packed elements: %llu matches\n\n",
              static_cast<unsigned long long>(over_threshold));

  // --- 4. Adaptive restructuring. ------------------------------------------
  std::printf("4) adaptive restructuring (observe -> decide -> rebuild)\n");
  sa::adapt::SoftwareHints hints;
  hints.read_only = true;
  hints.mostly_reads = true;
  hints.linear_passes = 20;
  const auto caps = sa::adapt::MachineCaps::FromSpec(sa::sim::MachineSpec::OracleX5_18Core());
  auto raw = sa::smart::SmartArray::Allocate(500'000, placement, 64, topo);
  for (uint64_t i = 0; i < raw->length(); ++i) {
    raw->Init(i, i % 4096);
  }
  sa::adapt::AdaptiveArray adaptive(std::move(raw), pool, topo, caps, hints,
                                    sa::adapt::ArrayCosts::FromCostModel(
                                        sa::sim::CostModel::Default()));
  std::printf("   before: %s, %u-bit storage, %.1f MB\n", ToString(adaptive.current()).c_str(),
              adaptive.array().bits(), adaptive.array().footprint_bytes() / 1e6);
  // Pretend PCM told us the last scan was bandwidth-bound (as it would on
  // the 18-core machine).
  sa::adapt::WorkloadCounters counters;
  counters.exec_current_per_socket = caps.exec_max_per_socket * 0.2;
  counters.bw_current_memory = caps.bw_max_memory * 0.95;
  counters.max_mem_utilization = 0.95;
  counters.max_ic_utilization = 0.8;
  counters.accesses_per_second = 2e9;
  counters.elem_bytes = 8;
  counters.dataset_bytes = adaptive.array().footprint_bytes();
  adaptive.ObserveProfile(counters);
  const bool changed = adaptive.MaybeAdapt();
  std::printf("   after:  %s, %u-bit storage, %.1f MB (%s)\n",
              ToString(adaptive.current()).c_str(), adaptive.array().bits(),
              adaptive.array().footprint_bytes() / 1e6,
              changed ? "rebuilt on the fly" : "unchanged");
  return 0;
}
