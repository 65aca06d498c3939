// Compression lab: the §7 extensions in one walkthrough — alternative
// encodings with automatic technique selection, smart collections, the
// bounded map() API, and on-the-fly restructuring driven by the adaptivity
// layer.
#include <cstdio>

#include "adapt/decision_record.h"
#include "collections/smart_map.h"
#include "collections/smart_set.h"
#include "common/random.h"
#include "encodings/encoding.h"
#include "report/table.h"
#include "runtime/daemon.h"
#include "runtime/entry_points.h"
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
  // One registry slot keeps the array's identity across rebuilds; the
  // daemon's AdaptSlot runs the §6 selection on a profile the caller
  // measured, then rebuilds and publishes under its decision audit.
  std::printf("4) adaptive restructuring (observe -> decide -> rebuild)\n");
  sa::runtime::ArrayRegistry registry(topo);
  sa::runtime::ArraySlot* slot = registry.Create("readings", 500'000, placement, 64);
  for (uint64_t i = 0; i < slot->length(); ++i) {
    slot->Write(i, i % 4096);
  }
  slot->SealWrites();  // the upload does not count against read-only
  for (int pass = 0; pass < 3; ++pass) {
    slot->Acquire().SumRange(0, slot->length());  // linear read passes
  }
  const auto caps = sa::adapt::MachineCaps::FromSpec(sa::sim::MachineSpec::OracleX5_18Core());
  sa::runtime::AdaptationDaemon daemon(
      registry, pool, caps, sa::adapt::ArrayCosts::FromCostModel(sa::sim::CostModel::Default()));
  const auto describe = [&](const char* label) {
    const sa::runtime::ArraySnapshot snap = slot->Acquire();
    const sa::adapt::Configuration config{snap.array().placement(), snap.bits() < 64};
    std::printf("   %-9s %s, %u-bit storage, %.1f MB\n", label, ToString(config).c_str(),
                snap.bits(), snap.array().footprint_bytes() / 1e6);
  };
  describe("before:");
  // Pretend PCM told us the last scan was bandwidth-bound (as it would on
  // the 18-core machine).
  sa::adapt::WorkloadCounters counters;
  counters.exec_current_per_socket = caps.exec_max_per_socket * 0.2;
  counters.bw_current_memory = caps.bw_max_memory * 0.95;
  counters.max_mem_utilization = 0.95;
  counters.max_ic_utilization = 0.8;
  counters.accesses_per_second = 2e9;
  counters.elem_bytes = 8;
  counters.dataset_bytes = static_cast<double>(slot->length()) * 8;
  SaSlotDecision decision;
  if (!daemon.AdaptSlot(*slot, counters) || saSlotExplainPublished(slot, &decision) == 0) {
    std::fprintf(stderr, "   no adaptation was published\n");
    return 1;
  }
  std::printf("   decision: %s, estimated speedup %.2f vs %.2f now (margin %.0f%%), "
              "published as sequence %llu\n",
              sa::adapt::ToString(static_cast<sa::adapt::DecisionReason>(decision.reason)),
              decision.chosen_speedup, decision.current_speedup, decision.margin * 100.0,
              static_cast<unsigned long long>(decision.published_sequence));
  describe("after:");
  return 0;
}
