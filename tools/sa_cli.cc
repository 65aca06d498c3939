// smartarrays command-line driver.
//
// Subcommands:
//   topology                         print the host topology
//   mlc      [--machine 8|18]        simulated Intel-MLC probes (Table 1)
//   aggregate [--bits B] [--placement single|interleaved|replicated|os]
//             [--machine 8|18] [--java] [--elements N]
//                                    simulate the §5.1 aggregation and run a
//                                    scaled real kernel on this host
//   adapt    [--workload agg|degree|pagerank] [--machine 8|18]
//                                    print the §6 two-step selection
//   graph    [--algo degree|pagerank|bfs|wcc|triangles] [--vertices N]
//            [--edges M] [--compress] [--live-daemon]
//                                    generate a power-law graph and run the
//                                    algorithm for real on this host; with
//                                    --live-daemon, through registry slots
//                                    under live adaptation, with telemetry
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adapt/cases.h"
#include "adapt/decision_record.h"
#include "adapt/selector.h"
#include "graph/concurrent.h"
#include "loadgen.h"
#include "runtime/daemon.h"
#include "obs/entry_points.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "runtime/entry_points.h"
#include "graph/algorithms.h"
#include "graph/algorithms2.h"
#include "graph/generators.h"
#include "platform/affinity.h"
#include "report/table.h"
#include "sim/mlc.h"
#include "sim/workloads.h"
#include "smart/parallel_ops.h"

namespace {

using sa::adapt::DecodeConfigWord;
using sa::adapt::DecisionReason;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  bool Has(const std::string& key) const { return options.count(key) > 0; }
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) {
    args.command = argv[1];
  }
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "1";
      }
    }
  }
  return args;
}

sa::sim::MachineSpec MachineFor(const Args& args) {
  return args.Get("machine", "18") == "8" ? sa::sim::MachineSpec::OracleX5_8Core()
                                          : sa::sim::MachineSpec::OracleX5_18Core();
}

sa::smart::PlacementSpec PlacementFor(const Args& args) {
  const std::string p = args.Get("placement", "interleaved");
  if (p == "single") {
    return sa::smart::PlacementSpec::SingleSocket(0);
  }
  if (p == "replicated") {
    return sa::smart::PlacementSpec::Replicated();
  }
  if (p == "os") {
    return sa::smart::PlacementSpec::OsDefault();
  }
  return sa::smart::PlacementSpec::Interleaved();
}

int CmdTopology() {
  const auto topo = sa::platform::Topology::Host();
  std::printf("%s\n", topo.ToString().c_str());
  for (int s = 0; s < topo.num_sockets(); ++s) {
    std::printf("  socket %d (node %d): %zu cpus\n", s, topo.socket(s).node_id,
                topo.socket(s).cpus.size());
  }
  return 0;
}

int CmdMlc(const Args& args) {
  const auto spec = MachineFor(args);
  const auto report = sa::sim::MeasureMlc(sa::sim::MachineModel(spec));
  std::printf("simulated MLC on %s:\n", spec.name.c_str());
  std::printf("  local latency   %.0f ns\n  remote latency  %.0f ns\n", report.local_latency_ns,
              report.remote_latency_ns);
  std::printf("  local b/w       %.1f GB/s\n  remote b/w      %.1f GB/s\n",
              report.local_bw_gbps, report.remote_bw_gbps);
  std::printf("  total local b/w %.1f GB/s\n", report.total_local_bw_gbps);
  return 0;
}

int CmdAggregate(const Args& args) {
  const auto spec = MachineFor(args);
  sa::sim::AggregationConfig config;
  config.bits = static_cast<uint32_t>(args.GetInt("bits", 64));
  config.placement = PlacementFor(args);
  config.java = args.Has("java");
  const auto report = sa::sim::SimulateAggregation(sa::sim::MachineModel(spec), config);
  std::printf("simulated on %s: %s, %u-bit, %s\n", spec.name.c_str(),
              ToString(config.placement).c_str(), config.bits, config.java ? "Java" : "C++");
  std::printf("  time %.1f ms | instructions %.1fe9 | bandwidth %.1f GB/s\n",
              report.seconds * 1e3, report.total_instructions / 1e9, report.total_mem_gbps);

  const uint64_t n = args.GetInt("elements", 4'000'000);
  const auto topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo);
  auto a1 = sa::smart::SmartArray::Allocate(n, config.placement, config.bits, topo);
  auto a2 = sa::smart::SmartArray::Allocate(n, config.placement, config.bits, topo);
  const uint64_t mask = a1->max_value();
  sa::smart::ParallelFill(pool, *a1, [mask](uint64_t i) { return i & mask; });
  sa::smart::ParallelFill(pool, *a2, [mask](uint64_t i) { return (i + 1) & mask; });
  const sa::platform::Stopwatch timer;
  const uint64_t sum = sa::smart::ParallelSum2(pool, *a1, *a2);
  std::printf("real host run (%llu elements): sum=%llu in %.1f ms (%.0f M elem/s)\n",
              static_cast<unsigned long long>(n), static_cast<unsigned long long>(sum),
              timer.Millis(), n / timer.Seconds() / 1e6);
  return 0;
}

int CmdAdapt(const Args& args) {
  const auto spec = MachineFor(args);
  const std::string workload = args.Get("workload", "agg");
  sa::adapt::CaseGridOptions grid;
  grid.bit_widths = {static_cast<uint32_t>(args.GetInt("bits", 33))};
  grid.scenarios = {sa::adapt::MemoryScenario::kPlenty};
  std::vector<sa::adapt::EvalCase> cases;
  if (workload == "degree") {
    cases = sa::adapt::BuildDegreeCentralityCases(spec, grid);
  } else if (workload == "pagerank") {
    cases = sa::adapt::BuildPageRankCases(spec, grid);
  } else {
    cases = sa::adapt::BuildAggregationCases(spec, grid);
  }
  const auto& inputs = cases.front().inputs;
  const auto result = sa::adapt::ChooseConfiguration(inputs);
  std::printf("adaptivity (%s on %s):\n", workload.c_str(), spec.name.c_str());
  std::printf("  Fig13a uncompressed candidate: %s\n",
              ToString(result.uncompressed_candidate).c_str());
  std::printf("  Fig13b compressed candidate:   %s\n",
              result.compressed_candidate ? ToString(*result.compressed_candidate).c_str()
                                          : "no compression");
  std::printf("  chosen configuration:          %s\n", ToString(result.chosen).c_str());
  std::printf("  simulated time under choice:   %.3f s\n", cases.front().run_seconds(result.chosen));
  return 0;
}

int CmdGraph(const Args& args) {
  const auto vertices = static_cast<sa::graph::VertexId>(args.GetInt("vertices", 100'000));
  const uint64_t edges = args.GetInt("edges", 10 * vertices);
  const std::string algo = args.Get("algo", "pagerank");

  const auto topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo);
  std::printf("generating power-law graph: %u vertices, %llu edges...\n", vertices,
              static_cast<unsigned long long>(edges));
  const auto csr = sa::graph::PowerLawGraph(vertices, edges, 0.55, 42);
  sa::graph::SmartGraphOptions options;
  options.compress_indexes = args.Has("compress");
  options.compress_edges = args.Has("compress");
  const sa::graph::SmartCsrGraph g(csr, options, topo, pool);
  std::printf("smart storage: index %u-bit, edge %u-bit, %.1f MB\n", g.index_bits(),
              g.edge_bits(), g.footprint_bytes() / 1e6);

  const sa::platform::Stopwatch timer;
  if (algo == "degree") {
    auto out = sa::smart::SmartArray::Allocate(vertices, sa::smart::PlacementSpec::Interleaved(),
                                               64, topo);
    sa::graph::DegreeCentralitySmart(pool, g.view(), out.get());
    std::printf("degree centrality in %.1f ms; degree[0]=%llu\n", timer.Millis(),
                static_cast<unsigned long long>(out->Get(0, out->GetReplica(0))));
  } else if (algo == "bfs") {
    const auto levels = sa::graph::BfsLevelsSmart(pool, g.view(), 0, topo);
    uint64_t reached = 0;
    for (const uint64_t l : levels) {
      reached += l != sa::graph::kUnreachable;
    }
    std::printf("bfs in %.1f ms; reached %llu vertices\n", timer.Millis(),
                static_cast<unsigned long long>(reached));
  } else if (algo == "wcc") {
    const auto labels = sa::graph::ConnectedComponentsSmart(pool, g.view(), topo);
    std::set<uint64_t> components(labels.begin(), labels.end());
    std::printf("connected components in %.1f ms; %zu components\n", timer.Millis(),
                components.size());
  } else if (algo == "triangles") {
    const uint64_t triangles = sa::graph::CountTrianglesSmart(pool, g.view());
    std::printf("triangle count in %.1f ms; %llu triangles\n", timer.Millis(),
                static_cast<unsigned long long>(triangles));
  } else {
    const auto result = sa::graph::PageRankSmart(pool, g.view(), topo);
    std::printf("pagerank in %.1f ms; %d iterations, top rank %.6f\n", timer.Millis(),
                result.iterations,
                *std::max_element(result.ranks.begin(), result.ranks.end()));
  }
  return 0;
}

// Shared scaffolding for the runtime demos: a registry (host topology), one
// slot filled with --bits-wide values, and --readers threads scanning it
// through pinned snapshots. Everything goes through the C ABI
// (runtime/entry_points.h) — the same surface a guest language would use.
struct RuntimeDemo {
  void* reg = nullptr;
  void* slot = nullptr;
  uint64_t elements = 0;
  uint64_t mask = 0;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> readers;

  void Start(const Args& args, int default_bw_gbps = 10) {
    elements = args.GetInt("elements", 2'000'000);
    const auto data_bits = static_cast<uint32_t>(args.GetInt("bits", 10));
    reg = saRegistryCreate(0, 0);
    // The selector reasons against a machine spec; --bw-gbps sets the
    // per-socket memory bandwidth it assumes (default modest, so host scan
    // traffic registers as memory-bound and the demo visibly adapts).
    const double bw_gbps = static_cast<double>(args.GetInt("bw-gbps", default_bw_gbps));
    saRegistryConfigureMachine(reg, /*mem_bytes_per_socket=*/64e9,
                               /*exec_cycles_per_socket=*/1e11,
                               /*bw_memory=*/bw_gbps * 1e9,
                               /*bw_interconnect=*/bw_gbps * 0.5e9);
    // The slot starts in the §6 profiling shape: interleaved, uncompressed.
    slot = saRegistryDefine(reg, "demo", elements, /*replicated=*/0, /*interleaved=*/1,
                            /*pinned=*/-1, /*bits=*/64);
    mask = (uint64_t{1} << data_bits) - 1;
    for (uint64_t i = 0; i < elements; ++i) {
      saSlotWrite(slot, i, i & mask);
    }
    const int num_readers = static_cast<int>(args.GetInt("readers", 4));
    for (int t = 0; t < num_readers; ++t) {
      readers.emplace_back([this] {
        while (!stop.load(std::memory_order_acquire)) {
          void* snap = saSlotPin(slot);
          const uint64_t sum = saSnapshotSumRange(snap, 0, elements);
          // A selective predicate scan alongside the sum: feeds the slot's
          // selectivity sample and moves the sa_scan_chunks_* counters that
          // `sa_cli obs` exposes (op 2 = "<", ~1/16 of the value range).
          const uint64_t matched =
              saSnapshotCountIf(snap, 0, elements, /*op=*/2, (mask >> 4) + 1);
          saSnapshotUnpin(snap);
          if (sum == ~uint64_t{0} || matched > elements) {
            std::printf("impossible\n");  // keep both results observable
          }
          scans.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }

  void PrintSlot(const char* when) const {
    std::printf("  [%s] sequence=%llu bits=%u replicated=%s epoch=%llu scans=%llu\n", when,
                static_cast<unsigned long long>(saSlotSequence(slot)), saSlotBits(slot),
                saSlotIsReplicated(slot) ? "yes" : "no",
                static_cast<unsigned long long>(saRegistryEpoch(reg)),
                static_cast<unsigned long long>(scans.load()));
  }

  void Finish() {
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) {
      t.join();
    }
    // Verify through a final snapshot that no restructure lost an element.
    void* snap = saSlotPin(slot);
    uint64_t expect = 0;
    uint64_t got = 0;
    for (uint64_t i = 0; i < elements; i += 10'007) {
      expect += i & mask;
      got += saSnapshotRead(snap, i);
    }
    saSnapshotUnpin(snap);
    std::printf("  final spot-check %s; reclaimed %llu retired versions\n",
                got == expect ? "passed" : "FAILED",
                static_cast<unsigned long long>(saRegistryReclaim(reg)));
    saRegistryFree(reg);
  }
};

int CmdRegistry(const Args& args) {
  // Readers keep scanning through snapshots while the main thread forces
  // synchronous adaptation passes: the slot restructures in place, readers
  // never block, retired storage drains through the epoch list.
  RuntimeDemo demo;
  demo.Start(args);
  std::printf("registry: %llu elements, %d reader(s) scanning via snapshots\n",
              static_cast<unsigned long long>(demo.elements),
              static_cast<int>(demo.readers.size()));
  demo.PrintSlot("created");
  const int passes = static_cast<int>(args.GetInt("passes", 5));
  for (int p = 0; p < passes; ++p) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const int restructured = saRegistryAdaptOnce(demo.reg);
    std::printf("  pass %d: restructured %d slot(s)\n", p + 1, restructured);
    demo.PrintSlot("after pass");
  }
  demo.Finish();
  return 0;
}

int CmdDaemon(const Args& args) {
  // Same workload, but adaptation runs on the background daemon thread.
  RuntimeDemo demo;
  demo.Start(args);
  const auto interval_ms = static_cast<double>(args.GetInt("interval", 200));
  const auto seconds = args.GetInt("seconds", 2);
  std::printf("daemon: %llu elements, %d reader(s), interval %.0f ms, running %llu s\n",
              static_cast<unsigned long long>(demo.elements),
              static_cast<int>(demo.readers.size()), interval_ms,
              static_cast<unsigned long long>(seconds));
  demo.PrintSlot("created");
  saRegistryDaemonStart(demo.reg, interval_ms, /*min_predicted_win=*/-1.0);
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  saRegistryDaemonStop(demo.reg);
  std::printf("  daemon stopped after %llu adaptation(s)\n",
              static_cast<unsigned long long>(saRegistryAdaptations(demo.reg)));
  demo.PrintSlot("stopped");
  demo.Finish();
  return 0;
}

// ---- obs: run the daemon demo, then expose the telemetry three ways ----

std::string FormatTraceEvent(const SaObsTraceEvent& ev) {
  char buf[256];
  const char* kind = saObsTraceKindName(ev.kind);
  // Events of one adaptation share a trace id riding the high bits of a
  // payload word (see obs/trace.h); 0 means untracked.
  uint64_t trace_id = 0;
  switch (ev.kind) {
    case 1:  // sample_drain: d = thin flag | id << 1
      trace_id = ev.d >> 1;
      std::snprintf(buf, sizeof(buf), "reads=%llu writes=%llu interval=%.3fs%s",
                    static_cast<unsigned long long>(ev.a),
                    static_cast<unsigned long long>(ev.b),
                    static_cast<double>(ev.c) / 1e6,
                    (ev.d & 1) != 0 ? " (thin, dropped)" : "");
      break;
    case 2:  // decision: c = reason | id << 8
      trace_id = ev.c >> 8;
      std::snprintf(buf, sizeof(buf), "%s %s -> %s win=+%.2f%%",
                    sa::adapt::ToString(static_cast<DecisionReason>(ev.c & 0xff)),
                    DecodeConfigWord(ev.a).c_str(), DecodeConfigWord(ev.b).c_str(),
                    static_cast<double>(ev.d) / 1e4);
      break;
    case 3:  // restructure_begin: c = id
      trace_id = ev.c;
      std::snprintf(buf, sizeof(buf), "%s -> %s", DecodeConfigWord(ev.a).c_str(),
                    DecodeConfigWord(ev.b).c_str());
      break;
    case 4:  // restructure_end: d = ok | id << 1
      trace_id = ev.d >> 1;
      std::snprintf(buf, sizeof(buf), "wall=%.2fms unpack=%.2fms pack=%.2fms %s",
                    static_cast<double>(ev.a) / 1e6, static_cast<double>(ev.b) / 1e6,
                    static_cast<double>(ev.c) / 1e6, (ev.d & 1) != 0 ? "ok" : "ABORTED");
      break;
    case 5:  // publish: c = id
      trace_id = ev.c;
      std::snprintf(buf, sizeof(buf), "sequence=%llu %s",
                    static_cast<unsigned long long>(ev.a),
                    ev.b != 0 ? "ok" : "REFUSED (lost write)");
      break;
    case 6:  // epoch_advance
      std::snprintf(buf, sizeof(buf), "epoch=%llu", static_cast<unsigned long long>(ev.a));
      break;
    case 7:  // epoch_reclaim
      std::snprintf(buf, sizeof(buf), "freed=%llu at epoch %llu",
                    static_cast<unsigned long long>(ev.a),
                    static_cast<unsigned long long>(ev.b));
      break;
    case 8:  // flap_hold: c = id
      trace_id = ev.c;
      std::snprintf(buf, sizeof(buf), "%s held against %s, %llu hold(s) left",
                    DecodeConfigWord(ev.a).c_str(), DecodeConfigWord(ev.b).c_str(),
                    static_cast<unsigned long long>(ev.d));
      break;
    case 9:  // version_reclaim: c = id of the publish that retired it
      trace_id = ev.c;
      std::snprintf(buf, sizeof(buf), "retired sequence=%llu",
                    static_cast<unsigned long long>(ev.a));
      break;
    default:
      std::snprintf(buf, sizeof(buf), "a=%llu b=%llu c=%llu d=%llu",
                    static_cast<unsigned long long>(ev.a),
                    static_cast<unsigned long long>(ev.b),
                    static_cast<unsigned long long>(ev.c),
                    static_cast<unsigned long long>(ev.d));
      break;
  }
  char line[384];
  if (trace_id != 0) {
    std::snprintf(line, sizeof(line), "#%-5llu %-17s %-8s [id %llu] %s",
                  static_cast<unsigned long long>(ev.seq), kind,
                  ev.slot[0] != '\0' ? ev.slot : "-",
                  static_cast<unsigned long long>(trace_id), buf);
  } else {
    std::snprintf(line, sizeof(line), "#%-5llu %-17s %-8s %s",
                  static_cast<unsigned long long>(ev.seq), kind,
                  ev.slot[0] != '\0' ? ev.slot : "-", buf);
  }
  return line;
}

// Drains and prints everything currently in the trace ring; returns the
// number of events printed.
int PrintTrace(const char* indent) {
  std::vector<SaObsTraceEvent> events(sa::obs::kTraceCapacity);
  int printed = 0;
  for (;;) {
    const int n = saObsTraceDrain(events.data(), static_cast<int>(events.size()));
    if (n <= 0) {
      break;
    }
    for (int i = 0; i < n; ++i) {
      std::printf("%s%s\n", indent, FormatTraceEvent(events[i]).c_str());
    }
    printed += n;
  }
  return printed;
}

void PrintObsTable() {
  const int total = saObsSnapshot(nullptr, 0);
  std::vector<SaObsMetric> metrics(total);
  saObsSnapshot(metrics.data(), total);
  std::printf("counters:\n");
  for (const SaObsMetric& m : metrics) {
    if (m.kind == SA_OBS_METRIC_COUNTER && m.value != 0) {
      std::printf("  %-42s %llu\n", m.name, static_cast<unsigned long long>(m.value));
    }
  }
  std::printf("gauges:\n");
  for (const SaObsMetric& m : metrics) {
    if (m.kind == SA_OBS_METRIC_GAUGE) {
      std::printf("  %-42s %lld\n", m.name, static_cast<long long>(m.value));
    }
  }
  const int hist_total = saObsHistograms(nullptr, 0);
  std::vector<SaObsHistogramEntry> hists(hist_total);
  saObsHistograms(hists.data(), hist_total);
  std::printf("histograms (count / mean):\n");
  for (const SaObsHistogramEntry& h : hists) {
    if (h.count == 0) {
      continue;
    }
    std::printf("  %-42s %llu / %.0f\n", h.name, static_cast<unsigned long long>(h.count),
                static_cast<double>(h.sum) / static_cast<double>(h.count));
  }
}

// graph --live-daemon: the same generated graph, but uploaded into registry
// slots (RegistryCsrGraph) and traversed through epoch-pinned snapshots
// while the adaptation daemon restructures the five property arrays
// underneath. Every iteration re-pins and is checked against the serial
// reference, and the run ends with the obs counters, the per-slot layouts
// the daemon chose, and the adaptation trace — the §5.2 story (different
// algorithms push the same arrays toward different layouts) observable
// from the command line.
int CmdGraphLive(const Args& args) {
  const auto vertices = static_cast<sa::graph::VertexId>(args.GetInt("vertices", 50'000));
  const uint64_t edges = args.GetInt("edges", 6 * vertices);
  const std::string algo = args.Get("algo", "pagerank");
  const int iters = static_cast<int>(args.GetInt("iters", 5));

  saObsReset();
  const auto topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo);
  // The daemon rebuilds on its own pool: analytics own `pool`, and one
  // WorkerPool cannot run two parallel regions at once.
  sa::rts::WorkerPool daemon_pool(
      topo, sa::rts::WorkerPool::Options{.num_threads = 1, .pin_threads = false});

  std::printf("generating power-law graph: %u vertices, %llu edges...\n", vertices,
              static_cast<unsigned long long>(edges));
  const auto csr = sa::graph::PowerLawGraph(vertices, edges, 0.55, 42);
  sa::graph::SmartGraphOptions options;
  options.compress_indexes = args.Has("compress");
  options.compress_edges = args.Has("compress");

  sa::runtime::ArrayRegistry registry(topo);
  const sa::graph::RegistryCsrGraph g(registry, "cli", csr, options);

  // Serial references computed once from the plain CSR; every live
  // iteration must reproduce them exactly.
  const auto ref_bfs = algo == "bfs" ? sa::graph::BfsLevels(csr, 0) : std::vector<uint64_t>{};
  const auto ref_cc = algo == "wcc" ? sa::graph::ConnectedComponents(csr) : std::vector<uint64_t>{};
  const uint64_t ref_tri = algo == "triangles" ? sa::graph::CountTriangles(csr) : 0;
  const auto ref_deg = algo == "degree" ? sa::graph::DegreeCentrality(csr) : std::vector<uint64_t>{};
  const auto ref_pr =
      algo == "pagerank" ? sa::graph::PageRank(csr) : sa::graph::PageRankResult{};

  sa::runtime::DaemonOptions daemon_options;
  daemon_options.interval = std::chrono::milliseconds(args.GetInt("interval", 5));
  daemon_options.min_predicted_win = -1.0;  // demo: adapt on any predicted delta
  daemon_options.min_sampled_accesses = 256;
  daemon_options.num_workers = 1;
  sa::runtime::AdaptationDaemon daemon(
      registry, daemon_pool, sa::adapt::MachineCaps::FromSpec(sa::sim::MachineSpec::OracleX5_18Core()),
      sa::adapt::ArrayCosts::FromCostModel(sa::sim::CostModel::Default()), daemon_options);
  daemon.Start();

  bool all_ok = true;
  for (int i = 0; i < iters; ++i) {
    // Pin fresh per iteration so daemon publishes between runs take effect.
    sa::graph::GraphSnapshot snapshot = g.Pin();
    const sa::platform::Stopwatch timer;
    bool ok = true;
    std::string result;
    char buf[96];
    if (algo == "bfs") {
      ok = sa::graph::BfsLevels(pool, snapshot, 0, topo) == ref_bfs;
      result = "levels";
    } else if (algo == "wcc") {
      ok = sa::graph::ConnectedComponents(pool, snapshot, topo) == ref_cc;
      result = "labels";
    } else if (algo == "triangles") {
      const uint64_t triangles = sa::graph::CountTriangles(pool, snapshot);
      ok = triangles == ref_tri;
      std::snprintf(buf, sizeof(buf), "%llu triangles", static_cast<unsigned long long>(triangles));
      result = buf;
    } else if (algo == "degree") {
      ok = sa::graph::DegreeCentrality(pool, snapshot, topo) == ref_deg;
      result = "centrality";
    } else {
      const auto pr = sa::graph::PageRank(pool, snapshot, topo);
      ok = pr.iterations == ref_pr.iterations && pr.ranks == ref_pr.ranks;
      std::snprintf(buf, sizeof(buf), "%d pagerank iterations", pr.iterations);
      result = buf;
    }
    const double ms = timer.Millis();
    const uint64_t fingerprint = snapshot.sequence_sum();
    snapshot.Release();  // flushes this run's access mix into the slots
    std::printf("  iter %d: %s in %.1f ms, pinned sequence-sum %llu, %s\n", i + 1,
                result.empty() ? algo.c_str() : result.c_str(), ms,
                static_cast<unsigned long long>(fingerprint),
                ok ? "matches serial reference" : "MISMATCH vs serial reference");
    all_ok = all_ok && ok;
  }
  daemon.Stop();

  std::printf("daemon: %llu passes, %llu adaptations\n",
              static_cast<unsigned long long>(daemon.passes()),
              static_cast<unsigned long long>(daemon.adaptations()));
  std::printf("slot layouts after adaptation:\n");
  for (const auto* slot : g.slots()) {
    std::printf("  %-12s sequence=%llu %s/%ub\n", slot->name().c_str(),
                static_cast<unsigned long long>(slot->sequence()),
                ToString(slot->placement().kind), slot->bits());
  }
  PrintObsTable();
  std::printf("trace (%llu dropped by ring wraparound):\n",
              static_cast<unsigned long long>(saObsTraceDropped()));
  if (PrintTrace("  ") == 0) {
    std::printf("  (empty)\n");
  }
  return all_ok ? 0 : 1;
}

int CmdObs(const Args& args) {
  saObsReset();

  RuntimeDemo demo;
  demo.Start(args);
  const auto interval_ms = args.GetInt("interval", 200);
  const auto seconds = args.GetInt("seconds", 2);
  const bool follow = args.Has("follow");
  std::fprintf(stderr, "obs: %llu elements, %d reader(s), daemon interval %llu ms, %llu s%s\n",
               static_cast<unsigned long long>(demo.elements),
               static_cast<int>(demo.readers.size()),
               static_cast<unsigned long long>(interval_ms),
               static_cast<unsigned long long>(seconds), follow ? " (follow)" : "");
  saRegistryDaemonStart(demo.reg, static_cast<double>(interval_ms),
                        /*min_predicted_win=*/-1.0);
  if (follow) {
    // Live view: one counter line + freshly drained trace events per tick.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      std::printf("-- acquires=%llu reads=%llu publishes=%llu restructures=%llu drops=%llu\n",
                  static_cast<unsigned long long>(saObsCounterByName("sa_snapshot_acquires_total")),
                  static_cast<unsigned long long>(saObsCounterByName("sa_snapshot_reads_total")),
                  static_cast<unsigned long long>(saObsCounterByName("sa_publishes_total")),
                  static_cast<unsigned long long>(saObsCounterByName("sa_daemon_restructures_total")),
                  static_cast<unsigned long long>(saObsCounterByName("sa_daemon_sample_drops_total")));
      PrintTrace("   ");
      std::fflush(stdout);
    }
  } else {
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
  }
  saRegistryDaemonStop(demo.reg);
  demo.Finish();

  if (args.Has("prom")) {
    std::printf("%s", sa::obs::PrometheusText().c_str());
  } else if (args.Has("json")) {
    std::printf("%s\n", sa::obs::JsonText().c_str());
  } else if (!follow) {
    PrintObsTable();
    std::printf("trace (%llu dropped by ring wraparound):\n",
                static_cast<unsigned long long>(saObsTraceDropped()));
    if (PrintTrace("  ") == 0) {
      std::printf("  (empty)\n");
    }
  }
  return 0;
}

// One audit-ring decision, in full: inputs, every candidate with its
// estimate, the margin math, and the realized-vs-predicted score when the
// calibration loop has settled it.
// index >= 0 labels a ring entry; index < 0 labels the eviction-proof copy
// of the newest published decision.
void PrintDecision(const SaSlotDecision& d, int index) {
  const char* reason = sa::adapt::ToString(static_cast<DecisionReason>(d.reason));
  if (index >= 0) {
    std::printf("  [%d]", index);
  } else {
    std::printf("  [published]");
  }
  std::printf(" id=%llu %s %s -> %s\n", static_cast<unsigned long long>(d.trace_id), reason,
              DecodeConfigWord(d.packed_current).c_str(),
              DecodeConfigWord(d.packed_chosen).c_str());
  std::printf("      inputs: rate=%.3g/s random=%.3f mem-util=%.2f ic-util=%.2f "
              "compress-ratio=%.3f fordelta-ratio=%.3f%s%s\n",
              d.in_accesses_per_second, d.in_random_fraction, d.in_mem_utilization,
              d.in_ic_utilization, d.in_compression_ratio, d.in_for_delta_ratio,
              d.in_read_only != 0 ? " read-only" : "",
              d.in_mostly_reads != 0 ? " mostly-reads" : "");
  std::printf("      candidates:");
  for (uint32_t c = 0; c < d.num_candidates; ++c) {
    std::printf("%s %s %s est=%.3f", c == 0 ? "" : " |", d.candidate_role[c],
                DecodeConfigWord(d.candidate_config[c]).c_str(), d.candidate_speedup[c]);
  }
  std::printf("\n");
  std::printf("      margin: chosen=%.3f current=%.3f win=%+.2f%% needed>%+.2f%% -> %s\n",
              d.chosen_speedup, d.current_speedup, d.predicted_win * 100.0,
              d.margin * 100.0, reason);
  if (d.published != 0) {
    std::printf("      published as sequence %llu\n",
                static_cast<unsigned long long>(d.published_sequence));
  }
  if (d.scored != 0) {
    std::printf("      score: predicted x%.3f, realized x%.3f (rate %.3g/s -> %.3g/s), "
                "calibration error %.1f%%\n",
                d.predicted_ratio, d.realized_ratio, d.pre_rate, d.post_rate,
                d.calibration_error * 100.0);
  }
}

// explain: the daemon demo workload, then the decision audit — why the slot
// runs the configuration it runs, every decision's candidates and margin
// math, and the calibration loop's realized-vs-predicted scores. With
// --trace-out, also exports the causally-linked adaptation timeline as
// Chrome trace-event JSON (open in Perfetto / chrome://tracing).
int CmdExplain(const Args& args) {
  saObsReset();
  RuntimeDemo demo;
  // Lower assumed bandwidth than the other demos: explain is the decision
  // showcase, so by default the scan traffic must register as memory-bound
  // and produce at least one accepted (hence scorable) adaptation.
  demo.Start(args, /*default_bw_gbps=*/4);
  const auto interval_ms = args.GetInt("interval", 100);
  const auto seconds = args.GetInt("seconds", 2);
  std::fprintf(stderr, "explain: %llu elements, %d reader(s), daemon interval %llu ms, %llu s\n",
               static_cast<unsigned long long>(demo.elements),
               static_cast<int>(demo.readers.size()),
               static_cast<unsigned long long>(interval_ms),
               static_cast<unsigned long long>(seconds));
  saRegistryDaemonStart(demo.reg, static_cast<double>(interval_ms),
                        /*min_predicted_win=*/-1.0);
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  saRegistryDaemonStop(demo.reg);

  SaSlotDecision decisions[SA_EXPLAIN_MAX_DECISIONS];
  const uint64_t total = saSlotExplain(demo.slot, decisions, SA_EXPLAIN_MAX_DECISIONS);
  const int shown = static_cast<int>(
      std::min<uint64_t>(total, SA_EXPLAIN_MAX_DECISIONS));
  std::printf("slot \"demo\": sequence=%llu bits=%u replicated=%s\n",
              static_cast<unsigned long long>(saSlotSequence(demo.slot)),
              saSlotBits(demo.slot), saSlotIsReplicated(demo.slot) != 0 ? "yes" : "no");
  int scored = 0;
  for (int i = 0; i < shown; ++i) {
    scored += decisions[i].scored != 0 ? 1 : 0;
  }
  // The decision behind the live configuration lives in the slot's
  // eviction-proof copy — under reject-heavy traffic the accepted record
  // ages out of the ring long before explain runs.
  SaSlotDecision published;
  const bool have_published = saSlotExplainPublished(demo.slot, &published) != 0;
  bool published_in_ring = false;
  if (have_published) {
    for (int i = 0; i < shown; ++i) {
      published_in_ring |= decisions[i].trace_id == published.trace_id;
    }
    if (!published_in_ring && published.scored != 0) {
      ++scored;
    }
    std::printf("current configuration %s from decision id=%llu%s\n",
                DecodeConfigWord(published.packed_chosen).c_str(),
                static_cast<unsigned long long>(published.trace_id),
                published.scored != 0 ? " (scored)" : " (not yet scored)");
  }
  std::printf("decisions recorded: %llu, scored: %d; last %d, newest first:\n",
              static_cast<unsigned long long>(total), scored, shown);
  for (int i = 0; i < shown; ++i) {
    PrintDecision(decisions[i], i);
  }
  if (have_published && !published_in_ring) {
    PrintDecision(published, /*index=*/-1);
  }

  if (args.Has("trace-out")) {
    const std::string path = args.Get("trace-out", "trace.json");
    const uint64_t len = saObsTraceExportJson(nullptr, 0);
    std::vector<char> json(len + 1);
    saObsTraceExportJson(json.data(), json.size());
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "explain: cannot write %s\n", path.c_str());
    } else {
      std::fwrite(json.data(), 1, len, f);
      std::fclose(f);
      std::printf("trace timeline written to %s (%llu bytes; open in Perfetto)\n",
                  path.c_str(), static_cast<unsigned long long>(len));
    }
  }
  demo.Finish();
  return total > 0 ? 0 : 1;
}

int Usage() {
  std::printf(
      "usage: sa_cli <command> [options]\n"
      "commands:\n"
      "  topology\n"
      "  mlc        [--machine 8|18]\n"
      "  aggregate  [--bits B] [--placement single|interleaved|replicated|os]\n"
      "             [--machine 8|18] [--java] [--elements N]\n"
      "  adapt      [--workload agg|degree|pagerank] [--bits B] [--machine 8|18]\n"
      "  graph      [--algo degree|pagerank|bfs|wcc|triangles] [--vertices N]\n"
      "             [--edges M] [--compress]\n"
      "             [--live-daemon [--iters I] [--interval MS]]\n"
      "             with --live-daemon: registry-held arrays, pinned-snapshot\n"
      "             traversals checked vs serial refs while the adaptation\n"
      "             daemon restructures; prints obs counters + trace\n"
      "  registry   [--elements N] [--bits B] [--readers R] [--passes P] [--bw-gbps G]\n"
      "             concurrent snapshot readers + synchronous adaptation passes\n"
      "  daemon     [--elements N] [--bits B] [--readers R] [--interval MS]\n"
      "             [--seconds S] [--bw-gbps G]\n"
      "             same, with the background adaptation daemon\n"
      "  obs        [--elements N] [--bits B] [--readers R] [--interval MS]\n"
      "             [--seconds S] [--bw-gbps G] [--json|--prom|--follow]\n"
      "             runtime telemetry: counters, histograms, adaptation trace\n"
      "  explain    [--elements N] [--bits B] [--readers R] [--interval MS]\n"
      "             [--seconds S] [--bw-gbps G] [--trace-out FILE]\n"
      "             decision audit: every adaptation decision with its\n"
      "             candidates, margin math and realized-vs-predicted score;\n"
      "             --trace-out exports Chrome trace JSON (Perfetto)\n"
      "  loadgen    [--threads=N] [--slots=N] [--shards=N] [--duration=SEC]\n"
      "             [--rate=OPS] [--zipf=S] [--out=PATH] ... (see sa_loadgen)\n"
      "             sharded-registry traffic harness -> BENCH_service.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // loadgen keeps sa_loadgen's --key=value grammar; hand argv through
  // untouched rather than round-tripping it through Args.
  if (argc >= 2 && std::strcmp(argv[1], "loadgen") == 0) {
    return sa::tools::LoadgenMain(argc - 1, argv + 1);
  }
  const Args args = Parse(argc, argv);
  if (args.command == "topology") {
    return CmdTopology();
  }
  if (args.command == "mlc") {
    return CmdMlc(args);
  }
  if (args.command == "aggregate") {
    return CmdAggregate(args);
  }
  if (args.command == "adapt") {
    return CmdAdapt(args);
  }
  if (args.command == "graph") {
    return args.Has("live-daemon") ? CmdGraphLive(args) : CmdGraph(args);
  }
  if (args.command == "registry") {
    return CmdRegistry(args);
  }
  if (args.command == "daemon") {
    return CmdDaemon(args);
  }
  if (args.command == "obs") {
    return CmdObs(args);
  }
  if (args.command == "explain") {
    return CmdExplain(args);
  }
  return Usage();
}
