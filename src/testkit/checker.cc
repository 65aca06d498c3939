#include "testkit/checker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "graph/algorithms2.h"
#include "graph/concurrent.h"
#include "graph/csr.h"
#include "obs/entry_points.h"
#include "platform/fault_injection.h"
#include "runtime/daemon.h"
#include "runtime/entry_points.h"
#include "runtime/registry.h"
#include "sim/cost_model.h"
#include "sim/machine_spec.h"
#include "testkit/generator.h"

namespace sa::testkit {

namespace {

// Domain-separation salts: every seed-derived stream (program ops, racing
// writes, epilogue readers) hashes the seed with its own constant.
constexpr uint64_t kRaceIndexSalt = 0x726163652d69ULL;  // "race-i"
constexpr uint64_t kRaceValueSalt = 0x726163652d76ULL;  // "race-v"
constexpr uint64_t kEpilogueSalt = 0x6570696c6fULL;     // "epilo"
constexpr uint64_t kSlotSalt = 0x736c6f74ULL;           // "slot"
constexpr uint64_t kScanConstSalt = 0x7363616e2d63ULL;  // "scan-c"

const char* ToString(RestructureResult r) {
  switch (r) {
    case RestructureResult::kUnsupported:
      return "unsupported";
    case RestructureResult::kPublished:
      return "published";
    case RestructureResult::kRejected:
      return "rejected";
    case RestructureResult::kPublishRefused:
      return "publish-refused";
  }
  return "?";
}

std::string Diff(const char* what, uint64_t got, uint64_t want) {
  return std::string(what) + ": got " + std::to_string(got) + ", model says " +
         std::to_string(want);
}

smart::PlacementSpec DecodePlacement(uint64_t raw) {
  switch (raw % 4) {
    case 0:
      return smart::PlacementSpec::OsDefault();
    case 1:
      return smart::PlacementSpec::SingleSocket(1);
    case 2:
      return smart::PlacementSpec::Interleaved();
    default:
      return smart::PlacementSpec::Replicated();
  }
}

// Program executor: model + harness in lockstep, first divergence wins.
class Executor {
 public:
  Executor(const Program& program, TestContext& ctx)
      : program_(program),
        scenario_(program.scenario),
        ctx_(ctx),
        len_(program.scenario.length),
        num_slots_(std::max(1, program.scenario.num_slots)),
        harness_(MakeHarness(program.scenario, ctx)),
        models_(static_cast<size_t>(num_slots_),
                ArrayModel(program.scenario.length, program.scenario.bits)) {
    if (scenario_.concurrent_daemon && harness_->registry() != nullptr) {
      // Aggressive settings so the daemon actually republishes under the
      // program: tiny interval, tiny sample floor, and a *negative* margin —
      // on the synthetic test topology the cost model rarely predicts a
      // positive win, and the property under test is publish safety, not
      // decision quality. Its own pool — RunOnAll is not reentrant against
      // harness rebuilds.
      runtime::DaemonOptions options;
      options.interval = std::chrono::milliseconds(1);
      options.min_predicted_win = -1.0;
      options.min_sampled_accesses = 32;
      options.num_workers = 2;
      daemon_ = std::make_unique<runtime::AdaptationDaemon>(
          *harness_->registry(), ctx.daemon_pool,
          adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core()),
          adapt::ArrayCosts::FromCostModel(sim::CostModel::Default()), options);
    }
  }

  RunResult Run(const RunOptions& opts) {
    if (daemon_ != nullptr) {
      daemon_->Start();
    }
    for (size_t i = 0; i < program_.ops.size() && result_.ok; ++i) {
      Step(i, program_.ops[i]);
    }
    if (daemon_ != nullptr) {
      daemon_->Stop();  // quiesce before the exhaustive diff
    }
    if (result_.ok) {
      VerifyAllSlots(program_.ops.size());
    }
    if (result_.ok && opts.concurrent_epilogue && scenario_.variant == Variant::kRegistry) {
      SelectSlot(0);
      ConcurrentEpilogue();
    }
    return result_;
  }

 private:
  void Fail(size_t op_index, const std::string& what) {
    if (!result_.ok) {
      return;
    }
    result_.ok = false;
    if (op_index < program_.ops.size()) {
      result_.message = "op[" + std::to_string(op_index) + "] " +
                        ToString(program_.ops[op_index]) + ": " + what;
    } else {
      result_.message = "final whole-array verification: " + what;
    }
  }

  // Exhaustive diff of every observable: width, every element through the
  // variant's primary read path, and the block-kernel sum.
  void VerifyAll(size_t op_index) {
    // With the daemon's worker set live, representation (width/placement)
    // is daemon-controlled; the oracle is contents only.
    if (!scenario_.concurrent_daemon && harness_->bits() != model().bits()) {
      Fail(op_index, Diff("bits", harness_->bits(), model().bits()));
      return;
    }
    for (uint64_t i = 0; i < len_; ++i) {
      const uint64_t got = harness_->Get(i, i);  // rotate through replicas
      if (got != model().Get(i)) {
        Fail(op_index, Diff(("a[" + std::to_string(i) + "]").c_str(), got, model().Get(i)));
        return;
      }
    }
    const uint64_t got_sum = harness_->SumRange(0, len_);
    if (got_sum != model().SumRange(0, len_)) {
      Fail(op_index, Diff("sum[0,len)", got_sum, model().SumRange(0, len_)));
    }
  }

  void Step(size_t i, const Op& op) {
    if (num_slots_ > 1) {
      // Seed-derived fan-out: the op stream is unchanged, each op is routed
      // to one of the registry's slots (and its model twin). op.c is already
      // part of the replay contract, so shrinking preserves the routing.
      SelectSlot(static_cast<size_t>(SplitMix64(op.c ^ kSlotSalt) %
                                     static_cast<uint64_t>(num_slots_)));
    }
    const uint64_t idx = op.a % len_;
    switch (op.kind) {
      case OpKind::kInit: {
        const uint64_t value = op.b & model().mask();
        harness_->Init(idx, value);
        model().Set(idx, value);
        break;
      }
      case OpKind::kInitAtomic: {
        const uint64_t value = op.b & model().mask();
        harness_->InitAtomic(idx, value);
        model().Set(idx, value);
        break;
      }
      case OpKind::kWrite: {
        const uint64_t value = op.b & model().mask();
        harness_->Init(idx, value);  // registry harness routes to ArraySlot::Write
        model().Set(idx, value);
        break;
      }
      case OpKind::kGet: {
        const uint64_t got = harness_->Get(idx, op.b);
        if (got != model().Get(idx)) {
          Fail(i, Diff("get", got, model().Get(idx)));
        }
        break;
      }
      case OpKind::kGetCodec: {
        const uint64_t got = harness_->GetCodec(idx);
        if (got != model().Get(idx)) {
          Fail(i, Diff("get-codec", got, model().Get(idx)));
        }
        break;
      }
      case OpKind::kUnpack: {
        const uint64_t chunk = op.a % ((len_ + 63) / 64);
        uint64_t out[64] = {};
        if (!harness_->Unpack(chunk, out)) {
          break;  // variant has no unpack surface
        }
        for (uint64_t slot = 0; slot < 64; ++slot) {
          const uint64_t index = chunk * 64 + slot;
          // Slots past the logical length decode the zero padding of the
          // final partial chunk.
          const uint64_t want = index < len_ ? model().Get(index) : 0;
          if (out[slot] != want) {
            Fail(i, Diff(("unpack chunk " + std::to_string(chunk) + " slot " +
                          std::to_string(slot))
                             .c_str(),
                         out[slot], want));
            break;
          }
        }
        break;
      }
      case OpKind::kUnpackRange: {
        const uint64_t x = op.a % (len_ + 1);
        const uint64_t y = op.b % (len_ + 1);
        const uint64_t begin = std::min(x, y);
        const uint64_t end = std::max(x, y);
        std::vector<uint64_t> out(end - begin, ~uint64_t{0});
        if (begin == end || !harness_->UnpackRange(begin, end, out.data())) {
          break;  // empty range or variant has no bulk surface
        }
        for (uint64_t k = 0; k < out.size(); ++k) {
          if (out[k] != model().Get(begin + k)) {
            Fail(i, Diff(("unpack-range a[" + std::to_string(begin + k) + "]").c_str(), out[k],
                         model().Get(begin + k)));
            break;
          }
        }
        break;
      }
      case OpKind::kPackRange: {
        const uint64_t x = op.a % (len_ + 1);
        const uint64_t y = op.b % (len_ + 1);
        const uint64_t begin = std::min(x, y);
        const uint64_t end = std::max(x, y);
        if (begin == end) {
          break;
        }
        // Deterministic in-width values derived from op.c, so shrinking
        // reproduces the exact same bulk write.
        std::vector<uint64_t> values(end - begin);
        for (uint64_t k = 0; k < values.size(); ++k) {
          values[k] = SplitMix64(op.c ^ (begin + k)) & model().mask();
        }
        if (!harness_->PackRange(begin, end, values.data())) {
          break;  // variant has no bulk surface; model untouched
        }
        for (uint64_t k = 0; k < values.size(); ++k) {
          model().Set(begin + k, values[k]);
        }
        break;
      }
      case OpKind::kIterate: {
        const uint64_t start = idx;
        const uint64_t count = std::min<uint64_t>(op.b % 129, len_ - start);
        std::vector<uint64_t> out(count, 0);
        if (count == 0 || !harness_->IterRead(start, count, out.data())) {
          break;
        }
        for (uint64_t k = 0; k < count; ++k) {
          if (out[k] != model().Get(start + k)) {
            Fail(i, Diff(("iterate a[" + std::to_string(start + k) + "]").c_str(), out[k],
                         model().Get(start + k)));
            break;
          }
        }
        break;
      }
      case OpKind::kSumRange: {
        const uint64_t x = op.a % (len_ + 1);
        const uint64_t y = op.b % (len_ + 1);
        const uint64_t begin = std::min(x, y);
        const uint64_t end = std::max(x, y);
        const uint64_t got = harness_->SumRange(begin, end);
        if (got != model().SumRange(begin, end)) {
          Fail(i, Diff(("sum[" + std::to_string(begin) + "," + std::to_string(end) + ")").c_str(),
                       got, model().SumRange(begin, end)));
        }
        break;
      }
      case OpKind::kFetchAdd: {
        const uint64_t got_old = harness_->FetchAdd(idx, op.b);
        const uint64_t want_old = model().FetchAdd(idx, op.b);
        if (got_old != want_old) {
          Fail(i, Diff("fetch-add previous value", got_old, want_old));
        }
        break;
      }
      case OpKind::kSnapshotRead: {
        void* snap = harness_->SnapshotPin();
        if (snap == nullptr) {
          break;
        }
        const uint32_t snap_bits = harness_->SnapshotBits(snap);
        if (!scenario_.concurrent_daemon && snap_bits != model().bits()) {
          Fail(i, Diff("snapshot bits", snap_bits, model().bits()));
        }
        for (const uint64_t raw : {op.a, op.b, op.c}) {
          const uint64_t read_idx = raw % len_;
          const uint64_t got = harness_->SnapshotGet(snap, read_idx);
          if (got != model().Get(read_idx)) {
            Fail(i, Diff("snapshot read", got, model().Get(read_idx)));
            break;
          }
        }
        harness_->SnapshotUnpin(snap);
        break;
      }
      case OpKind::kSnapshotSum: {
        void* snap = harness_->SnapshotPin();
        if (snap == nullptr) {
          break;
        }
        const uint64_t x = op.a % (len_ + 1);
        const uint64_t y = op.b % (len_ + 1);
        const uint64_t begin = std::min(x, y);
        const uint64_t end = std::max(x, y);
        const uint64_t got = harness_->SnapshotSum(snap, begin, end);
        if (got != model().SumRange(begin, end)) {
          Fail(i, Diff("snapshot sum", got, model().SumRange(begin, end)));
        }
        harness_->SnapshotUnpin(snap);
        break;
      }
      case OpKind::kSnapshotStale: {
        // Pin a snapshot, publish a restructure underneath it, and prove the
        // pinned view still observes the pre-publish representation (the
        // epoch guarantee readers rely on).
        void* snap = harness_->SnapshotPin();
        if (snap == nullptr) {
          break;
        }
        const uint32_t old_bits = harness_->SnapshotBits(snap);
        const uint32_t minimal = model().MinimalBits();
        const RestructureResult got =
            harness_->Restructure(DecodePlacement(op.b), minimal);
        if (got != RestructureResult::kPublished) {
          Fail(i, std::string("restructure under pinned snapshot: got ") + ToString(got) +
                      ", expected published");
        } else {
          model().SetBits(minimal);
          const uint32_t stale_bits = harness_->SnapshotBits(snap);
          if (stale_bits != old_bits) {
            Fail(i, Diff("pinned snapshot bits changed across publish", stale_bits, old_bits));
          }
          // Contents are preserved by restructure, so the stale view and the
          // model still agree element-wise.
          const uint64_t stale = harness_->SnapshotGet(snap, idx);
          if (stale != model().Get(idx)) {
            Fail(i, Diff("pinned snapshot read across publish", stale, model().Get(idx)));
          }
        }
        harness_->SnapshotUnpin(snap);
        break;
      }
      case OpKind::kCountIf:
      case OpKind::kSelectIf:
      case OpKind::kFilteredSum:
        StepScan(i, op);
        break;
      case OpKind::kExplainSlot:
        StepExplain(i);
        break;
      case OpKind::kRestructure:
        StepRestructure(i, op);
        break;
      case OpKind::kGraphBfs:
      case OpKind::kGraphCc:
      case OpKind::kGraphTri:
        StepGraph(i, op);
        break;
      case OpKind::kObsSnapshot: {
        // Counters are cumulative across shards; whatever this program (or a
        // concurrent test in the same process) does, an aggregated counter
        // read must never be smaller than an earlier read.
        const int total = saObsSnapshot(nullptr, 0);
        std::vector<SaObsMetric> now(static_cast<size_t>(total));
        saObsSnapshot(now.data(), total);
        for (const SaObsMetric& m : now) {
          if (m.kind != SA_OBS_METRIC_COUNTER) {
            continue;  // gauges legitimately go down
          }
          const auto it = last_obs_counters_.find(m.name);
          if (it != last_obs_counters_.end() && m.value < it->second) {
            Fail(i, std::string("telemetry counter ") + m.name + " went backwards: " +
                        std::to_string(it->second) + " -> " + std::to_string(m.value));
            break;
          }
          last_obs_counters_[m.name] = m.value;
        }
        break;
      }
    }
  }

  // Graph analytics as a differential op: a directed graph derived from the
  // current model contents is uploaded into five fresh registry slots, the
  // parallel smart-array kernel runs over an epoch-pinned snapshot, and its
  // result must match the serial plain-CSR reference computed from the same
  // contents. Everything (vertex count, placement, compression tier, BFS
  // source) derives from the op parameters and the model, so the op stays
  // shrink-safe and replayable. Under concurrent_daemon the daemon's worker
  // set sees the five slots immediately and may restructure them mid-upload
  // and mid-traversal — the pinned snapshot is what keeps the result exact.
  // Cross-check the decision audit against reality: pin a snapshot, and if
  // the audit ring still holds the decision whose publish produced the
  // pinned version (matched by sequence — a sequence published by a manual
  // Restructure has no record, and the bounded ring may have evicted old
  // ones), that record's chosen configuration must describe what the
  // snapshot actually observes. Under concurrent_daemon this runs while the
  // daemon is republishing the same slot.
  void StepExplain(size_t i) {
    runtime::ArraySlot* slot = harness_->slot();
    if (slot == nullptr) {
      return;  // registry-only op; a no-op for plain/synchronized variants
    }
    SaSlotDecision decisions[SA_EXPLAIN_MAX_DECISIONS];
    const uint64_t total = saSlotExplain(slot, decisions, SA_EXPLAIN_MAX_DECISIONS);
    if (total == 0) {
      return;  // no daemon decision yet (or audit disabled)
    }
    runtime::ArraySnapshot snap = slot->TryAcquire();
    if (!snap.valid()) {
      return;
    }
    const uint64_t copied = std::min<uint64_t>(total, SA_EXPLAIN_MAX_DECISIONS);
    for (uint64_t k = 0; k < copied; ++k) {
      const SaSlotDecision& d = decisions[k];
      if (d.published == 0 || d.published_sequence != snap.sequence()) {
        continue;
      }
      const uint64_t audited_bits = (d.packed_chosen >> 16) & 0xff;
      const uint64_t audited_kind = (d.packed_chosen >> 8) & 0xff;
      const uint64_t live_kind = static_cast<uint64_t>(snap.array().placement().kind);
      if (audited_bits != snap.bits()) {
        Fail(i, Diff("explain-slot audited bits vs pinned snapshot", audited_bits,
                     snap.bits()));
      } else if (audited_kind != live_kind) {
        Fail(i, Diff("explain-slot audited placement vs pinned snapshot", audited_kind,
                     live_kind));
      }
      return;  // records are newest-first; the first sequence match is it
    }
  }

  void StepGraph(size_t i, const Op& op) {
    runtime::ArrayRegistry* registry = harness_->registry();
    if (registry == nullptr) {
      return;  // graph ops are registry-only; a no-op elsewhere
    }
    const uint32_t nv = 2 + static_cast<uint32_t>(op.a % 31);
    std::vector<std::pair<graph::VertexId, graph::VertexId>> edge_list;
    edge_list.reserve(len_);
    for (uint64_t k = 0; k < len_; ++k) {
      edge_list.emplace_back(static_cast<graph::VertexId>(k % nv),
                             static_cast<graph::VertexId>(model().Get(k) % nv));
    }
    const graph::CsrGraph csr =
        graph::CsrGraph::FromEdges(static_cast<graph::VertexId>(nv), std::move(edge_list));

    graph::SmartGraphOptions options;
    options.placement = DecodePlacement(op.b);
    options.compress_indexes = (op.c % 3) != 0;  // U / V / V+E tiers
    options.compress_edges = (op.c % 3) == 2;
    // Appended piecewise: gcc 12 at -O3 reports `"g" + std::to_string(n)` as -Wrestrict.
    std::string name = "g";
    name += std::to_string(graph_counter_++);
    const graph::RegistryCsrGraph rgraph(*registry, name, csr, options);
    graph::GraphSnapshot snapshot = rgraph.Pin();

    switch (op.kind) {
      case OpKind::kGraphBfs: {
        const graph::VertexId source = static_cast<graph::VertexId>(op.b % nv);
        const std::vector<uint64_t> got =
            graph::BfsLevels(ctx_.pool, snapshot, source, ctx_.topology);
        const std::vector<uint64_t> want = graph::BfsLevels(csr, source);
        for (uint32_t v = 0; v < nv; ++v) {
          if (got[v] != want[v]) {
            Fail(i, Diff(("bfs level[" + std::to_string(v) + "]").c_str(), got[v], want[v]));
            break;
          }
        }
        break;
      }
      case OpKind::kGraphCc: {
        const std::vector<uint64_t> got =
            graph::ConnectedComponents(ctx_.pool, snapshot, ctx_.topology);
        const std::vector<uint64_t> want = graph::ConnectedComponents(csr);
        for (uint32_t v = 0; v < nv; ++v) {
          if (got[v] != want[v]) {
            Fail(i, Diff(("cc label[" + std::to_string(v) + "]").c_str(), got[v], want[v]));
            break;
          }
        }
        break;
      }
      default: {  // kGraphTri
        const uint64_t got = graph::CountTriangles(ctx_.pool, snapshot);
        const uint64_t want = graph::CountTriangles(csr);
        if (got != want) {
          Fail(i, Diff("triangle count", got, want));
        }
        break;
      }
    }
    snapshot.Release();
  }

  // Pushdown scans as a differential op (program.h documents the parameter
  // mapping): range = sorted (a,b) % (len+1), comparison op = c % 6, and the
  // constant alternates between the boundary ladder the normalization layer
  // branches on (0 / 1 / mid / max / max+1) and a c-derived random 64-bit
  // value (out-of-domain constants must resolve to kNone/kAll closed forms).
  // CountIf/FilteredSum diff one number; SelectIf diffs every bitmap bit
  // against the scalar model, plus the popcount-equals-count invariant and
  // the zeroed padding tail of the last bitmap word.
  void StepScan(size_t i, const Op& op) {
    const uint64_t x = op.a % (len_ + 1);
    const uint64_t y = op.b % (len_ + 1);
    const uint64_t begin = std::min(x, y);
    const uint64_t end = std::max(x, y);
    const uint64_t max = model().mask();
    const uint64_t pick = SplitMix64(op.c ^ kScanConstSalt);
    uint64_t constant;
    if ((pick & 1) != 0) {
      const uint64_t ladder[] = {0, 1, max / 2, max, max == ~uint64_t{0} ? max : max + 1};
      constant = ladder[(pick >> 1) % 5];
    } else {
      constant = SplitMix64(pick);
    }
    const smart::Predicate p{static_cast<smart::CmpOp>(op.c % 6), constant};

    uint64_t want_count = 0;
    uint64_t want_sum = 0;
    for (uint64_t k = begin; k < end; ++k) {
      const uint64_t v = model().Get(k);
      if (smart::Matches(p, v)) {
        ++want_count;
        want_sum += v;
      }
    }

    switch (op.kind) {
      case OpKind::kCountIf: {
        uint64_t got = 0;
        if (!harness_->CountIf(begin, end, p, &got)) {
          break;  // variant has no scan surface
        }
        if (got != want_count) {
          Fail(i, Diff("count-if", got, want_count));
        }
        break;
      }
      case OpKind::kFilteredSum: {
        uint64_t got = 0;
        if (!harness_->FilteredSum(begin, end, p, &got)) {
          break;
        }
        if (got != want_sum) {
          Fail(i, Diff("filtered-sum", got, want_sum));
        }
        break;
      }
      default: {  // kSelectIf
        const uint64_t n = end - begin;
        // Poisoned buffer: a kernel that forgets to clear non-matching bits
        // (or the padding tail) diffs immediately.
        std::vector<uint64_t> bitmap((n + 63) / 64, ~uint64_t{0});
        uint64_t got = 0;
        if (n == 0 || !harness_->SelectIf(begin, end, p, bitmap.data(), &got)) {
          break;
        }
        if (got != want_count) {
          Fail(i, Diff("select-if count", got, want_count));
          break;
        }
        uint64_t popcount = 0;
        for (const uint64_t word : bitmap) {
          popcount += static_cast<uint64_t>(__builtin_popcountll(word));
        }
        if (popcount != want_count) {
          Fail(i, Diff("select-if bitmap popcount", popcount, want_count));
          break;
        }
        for (uint64_t k = 0; k < n; ++k) {
          const bool got_bit = ((bitmap[k / 64] >> (k % 64)) & 1) != 0;
          const bool want_bit = smart::Matches(p, model().Get(begin + k));
          if (got_bit != want_bit) {
            Fail(i, Diff(("select-if bit a[" + std::to_string(begin + k) + "]").c_str(),
                         got_bit ? 1 : 0, want_bit ? 1 : 0));
            break;
          }
        }
        break;
      }
    }
  }

  void StepRestructure(size_t i, const Op& op) {
    if (!scenario_.supports_restructure()) {
      const RestructureResult got = harness_->Restructure(DecodePlacement(op.b), 64);
      if (got != RestructureResult::kUnsupported) {
        Fail(i, std::string("restructure on fixed-representation variant: got ") +
                    ToString(got));
      }
      return;
    }

    const smart::PlacementSpec placement = DecodePlacement(op.b);
    const uint32_t minimal = model().MinimalBits();
    // Under a live daemon the write contract is the declared width (the
    // harness seeds max_written_bits to it, flooring daemon narrowings), so
    // the checker never widens the model mask past it — a wider masked
    // write could overflow a daemon-narrowed representation.
    const uint32_t widest = scenario_.concurrent_daemon ? scenario_.bits : 64;
    uint32_t target;
    switch (op.c % 3) {
      case 0:
        target = minimal;  // tightest legal compression
        break;
      case 1:
        target = widest;  // fully uncompressed (declared width under daemon)
        break;
      default:
        // Deliberate overflow attempt (one bit too narrow) when possible.
        target = minimal > 1 ? minimal - 1 : widest;
        break;
    }
    const bool fits = minimal <= target;
    const bool inject_alloc = scenario_.inject_alloc_failure && ((op.c >> 8) & 1) != 0;
    const bool inject_race = scenario_.inject_publish_race &&
                             scenario_.variant == Variant::kRegistry && ((op.c >> 9) & 1) != 0;

    bool hook_fired = false;
    if (inject_race) {
      // The racing write is applied to the slot *and* the model inside the
      // hook, so the two stay in lockstep whether or not a publish was
      // actually attempted for this op.
      runtime::testing::SetPrePublishHook([this, &hook_fired, &op](runtime::ArraySlot& slot) {
        hook_fired = true;
        const uint64_t race_idx = SplitMix64(op.c ^ kRaceIndexSalt) % len_;
        const uint64_t race_value = SplitMix64(op.c ^ kRaceValueSalt) & model().mask();
        slot.Write(race_idx, race_value);
        model().Set(race_idx, race_value);
      });
    }
    if (inject_alloc) {
      platform::fault::ArmAllocFailure(0);  // fail the very next region mapping
    }

    const RestructureResult got = harness_->Restructure(placement, target);

    const uint64_t fired = platform::fault::AllocFailuresFired();
    platform::fault::Disarm();
    runtime::testing::SetPrePublishHook(nullptr);

    RestructureResult expected;
    if (!fits || inject_alloc) {
      expected = RestructureResult::kRejected;
    } else if (inject_race) {
      expected = RestructureResult::kPublishRefused;
    } else {
      expected = RestructureResult::kPublished;
    }

    if (got != expected) {
      Fail(i, std::string("restructure to ") + ToString(placement) + "/" +
                  std::to_string(target) + "b: got " + ToString(got) + ", expected " +
                  ToString(expected));
      return;
    }
    if (inject_alloc && fits && fired == 0) {
      Fail(i, "armed allocation fault never fired");
      return;
    }
    if (expected == RestructureResult::kPublishRefused && !hook_fired) {
      Fail(i, "publish-race hook installed but never invoked");
      return;
    }
    if (got == RestructureResult::kPublished) {
      model().SetBits(target);
      VerifyAll(i);  // contents must have survived the rebuild bit-for-bit
    }
  }

  // Readers pin snapshots and verify them against the (now frozen) model
  // while the main thread publishes restructures. Restructure preserves
  // contents, so every snapshot — whichever version it pinned — must match
  // the model exactly; only its width may lag.
  void ConcurrentEpilogue() {
    const uint32_t minimal = model().MinimalBits();
    constexpr int kReaders = 2;
    constexpr int kReadsPerReader = 64;
    constexpr int kPublishes = 4;

    std::vector<std::string> reader_errors(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([this, t, minimal, &reader_errors] {
        Xoshiro256 rng(SplitMix64(program_.seed ^ kEpilogueSalt ^ static_cast<uint64_t>(t)));
        for (int iter = 0; iter < kReadsPerReader && reader_errors[t].empty(); ++iter) {
          void* snap = harness_->SnapshotPin();
          const uint32_t snap_bits = harness_->SnapshotBits(snap);
          if (snap_bits < minimal || snap_bits > 64) {
            reader_errors[t] = Diff("snapshot bits out of range", snap_bits, minimal);
          }
          const uint64_t idx = rng.Below(len_);
          const uint64_t got = harness_->SnapshotGet(snap, idx);
          if (reader_errors[t].empty() && got != model().Get(idx)) {
            reader_errors[t] = Diff("concurrent snapshot read", got, model().Get(idx));
          }
          const uint64_t sum = harness_->SnapshotSum(snap, 0, len_);
          if (reader_errors[t].empty() && sum != model().SumRange(0, len_)) {
            reader_errors[t] = Diff("concurrent snapshot sum", sum, model().SumRange(0, len_));
          }
          harness_->SnapshotUnpin(snap);
        }
      });
    }

    std::string publish_error;
    for (int round = 0; round < kPublishes; ++round) {
      const uint32_t target = (round % 2 != 0) ? 64 : minimal;
      const RestructureResult got = harness_->Restructure(DecodePlacement(round), target);
      if (got != RestructureResult::kPublished) {
        publish_error = std::string("epilogue publish round ") + std::to_string(round) +
                        ": got " + ToString(got);
        break;
      }
      model().SetBits(target);
    }

    for (auto& reader : readers) {
      reader.join();
    }
    const size_t op_index = program_.ops.size();
    if (!publish_error.empty()) {
      Fail(op_index, publish_error);
    }
    for (const std::string& error : reader_errors) {
      if (!error.empty()) {
        Fail(op_index, error);
      }
    }
  }

  // The reference model for whichever slot the current op is routed to.
  // Single-slot scenarios never call SelectSlot, so this stays models_[0]
  // and the pre-sharding behaviour is bit-identical.
  ArrayModel& model() { return models_[active_slot_]; }

  void SelectSlot(size_t slot) {
    active_slot_ = slot;
    harness_->SelectSlot(static_cast<int>(slot));
  }

  // Multi-slot scenarios: every slot's model must match its slot — an op
  // leaking into a neighbouring slot shows up as a cross-slot diff here.
  void VerifyAllSlots(size_t op_index) {
    for (size_t s = 0; s < models_.size() && result_.ok; ++s) {
      if (models_.size() > 1) {
        SelectSlot(s);
      }
      VerifyAll(op_index);
    }
  }

  const Program& program_;
  const Scenario& scenario_;
  TestContext& ctx_;
  const uint64_t len_;
  const int num_slots_;
  std::unique_ptr<Harness> harness_;
  std::vector<ArrayModel> models_;
  size_t active_slot_ = 0;
  // Registry slot names must be unique per Create; each graph op gets a
  // fresh "gN" prefix. Resets per Executor, so shrunk replays line up.
  uint64_t graph_counter_ = 0;
  std::unique_ptr<runtime::AdaptationDaemon> daemon_;
  RunResult result_;
  std::map<std::string, uint64_t> last_obs_counters_;
};

}  // namespace

RunResult RunProgram(const Program& program, TestContext& ctx, const RunOptions& opts) {
  // Independent runs: no fault state leaks across executions.
  platform::fault::Disarm();
  runtime::testing::SetPrePublishHook(nullptr);
  Executor executor(program, ctx);
  RunResult result = executor.Run(opts);
  platform::fault::Disarm();
  runtime::testing::SetPrePublishHook(nullptr);
  return result;
}

Program ShrinkProgram(const Program& failing, TestContext& ctx, const RunOptions& opts,
                      uint64_t max_runs, uint64_t* runs_out) {
  Program best = failing;
  uint64_t runs = 0;

  size_t chunk = best.ops.size() / 2;
  if (chunk == 0) {
    chunk = 1;
  }
  while (runs < max_runs) {
    bool removed_any = false;
    for (size_t start = 0; start < best.ops.size() && runs < max_runs;) {
      Program candidate = best;
      const size_t end = std::min(start + chunk, candidate.ops.size());
      candidate.ops.erase(candidate.ops.begin() + static_cast<ptrdiff_t>(start),
                          candidate.ops.begin() + static_cast<ptrdiff_t>(end));
      ++runs;
      if (!RunProgram(candidate, ctx, opts).ok) {
        best = std::move(candidate);
        removed_any = true;
        continue;  // retry the same start against the smaller program
      }
      start += chunk;
    }
    if (chunk == 1) {
      if (!removed_any) {
        break;  // fixpoint at single-op granularity
      }
    } else {
      chunk /= 2;
    }
  }

  if (runs_out != nullptr) {
    *runs_out = runs;
  }
  return best;
}

std::string Verdict::ReplayCommand() const {
  return "sa_testkit --scenario=" + std::to_string(scenario_index) +
         " --seed=" + std::to_string(seed) + " --ops=" + std::to_string(num_ops);
}

std::string Verdict::Report() const {
  if (ok) {
    return "ok";
  }
  std::string report = "FAIL scenario " + std::to_string(scenario_index) + " [" +
                       ToString(minimal.scenario) + "] seed=" + std::to_string(seed) +
                       " ops=" + std::to_string(num_ops) + "\n";
  report += "  divergence: " + failure.message + "\n";
  if (shrink_runs == 0) {
    report += "  program (shrinking disabled): " + std::to_string(minimal.ops.size()) + " op(s)";
  } else {
    report += "  shrunk to " + std::to_string(minimal.ops.size()) + " op(s) in " +
              std::to_string(shrink_runs) + " runs";
  }
  if (!minimal_failure.message.empty() && minimal_failure.message != failure.message) {
    report += " (minimal divergence: " + minimal_failure.message + ")";
  }
  report += "\n";
  // A minimal program is short by construction; an unshrunk one can be
  // thousands of ops, so elide the middle to keep CI logs readable.
  constexpr size_t kMaxPrintedOps = 48;
  const size_t printed = std::min(minimal.ops.size(), kMaxPrintedOps);
  for (size_t i = 0; i < printed; ++i) {
    report += "    [" + std::to_string(i) + "] " + ToString(minimal.ops[i]) + "\n";
  }
  if (printed < minimal.ops.size()) {
    report += "    ... " + std::to_string(minimal.ops.size() - printed) +
              " more op(s); replay below reproduces the full program\n";
  }
  report += "  replay: " + ReplayCommand() + "\n";
  return report;
}

Verdict CheckScenario(size_t scenario_index, uint64_t seed, uint64_t num_ops, TestContext& ctx,
                      const CheckOptions& options) {
  const std::vector<Scenario>& grid = ScenarioGrid();
  SA_CHECK_MSG(scenario_index < grid.size(), "scenario index out of range");

  Verdict verdict;
  verdict.scenario_index = scenario_index;
  verdict.seed = seed;
  verdict.num_ops = num_ops;

  OpSequenceGenerator generator(seed);
  Program program = generator.Generate(grid[scenario_index], num_ops);

  verdict.failure = RunProgram(program, ctx, options.run);
  verdict.ok = verdict.failure.ok;
  if (verdict.ok) {
    return verdict;
  }

  if (options.shrink) {
    verdict.minimal =
        ShrinkProgram(program, ctx, options.run, options.max_shrink_runs, &verdict.shrink_runs);
  } else {
    verdict.minimal = std::move(program);
  }
  verdict.minimal_failure = RunProgram(verdict.minimal, ctx, options.run);
  return verdict;
}

}  // namespace sa::testkit
