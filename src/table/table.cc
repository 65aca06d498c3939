#include "table/table.h"

#include <algorithm>
#include <bit>
#include <map>

#include "common/bits.h"
#include "common/macros.h"
#include "encodings/encoding.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"
#include "smart/dictionary.h"
#include "smart/predicate.h"
#include "smart/restructure.h"

namespace sa::table {
namespace {

// Scans run in grains of this many rows: one pushdown call per predicate
// and column per grain, with the grain's selection bitmaps (256 words each)
// reused across a worker's grains. Rows a query reads decode in blocks of
// kBlock on the stack, straight into the loop that consumes them.
constexpr uint64_t kGrain = rts::kDefaultGrain;
constexpr uint64_t kGrainWords = kGrain / kWordBits;
constexpr uint64_t kBlock = 4 * kChunkElems;

// Calls fn(lo, hi) for the kBlock-row blocks of [b, e).
template <typename Fn>
void ForEachBlock(uint64_t b, uint64_t e, Fn&& fn) {
  for (uint64_t lo = b; lo < e; lo += kBlock) {
    fn(lo, std::min(e, lo + kBlock));
  }
}

// The smart predicates a table predicate stands for (kBetween is kGe value
// AND kLe value2).
struct Lowered {
  smart::Predicate terms[2];
  int count = 1;
};

Lowered Lower(const Predicate& p) {
  using smart::CmpOp;
  switch (p.op) {
    case Predicate::Op::kEq:
      return {{{CmpOp::kEq, p.value}}};
    case Predicate::Op::kNe:
      return {{{CmpOp::kNe, p.value}}};
    case Predicate::Op::kLt:
      return {{{CmpOp::kLt, p.value}}};
    case Predicate::Op::kLe:
      return {{{CmpOp::kLe, p.value}}};
    case Predicate::Op::kGt:
      return {{{CmpOp::kGt, p.value}}};
    case Predicate::Op::kGe:
      return {{{CmpOp::kGe, p.value}}};
    case Predicate::Op::kBetween:
      return {{{CmpOp::kGe, p.value}, {CmpOp::kLe, p.value2}}, 2};
  }
  return {{{CmpOp::kLt, 0}}};  // matches nothing
}

// One conjunct of a scan: a column and a predicate pushed down into it.
struct Term {
  const smart::SmartArray* column;
  smart::Predicate predicate;
};

// The conjunction's terms, smallest column first (stable, so ties keep the
// caller's order). A grain's first term is always scanned in full and later
// ones only while rows survive (SelectGrain), so a run-length or dictionary
// term empties most grains before a wide column is read.
std::vector<Term> ToTerms(const Table& table, const std::vector<Predicate>& predicates) {
  std::vector<Term> terms;
  for (const Predicate& p : predicates) {
    const smart::SmartArray* column = &table.column(p.column);
    const Lowered lowered = Lower(p);
    for (int i = 0; i < lowered.count; ++i) {
      terms.push_back({column, lowered.terms[i]});
    }
  }
  std::stable_sort(terms.begin(), terms.end(), [](const Term& a, const Term& b) {
    return a.column->footprint_bytes() < b.column->footprint_bytes();
  });
  return terms;
}

// Per-worker state of one query, reused across the worker's grains.
struct Scratch {
  uint64_t selected[kGrainWords];  // the grain's conjunction bitmap
  uint64_t term[kGrainWords];      // one term's bitmap
  std::vector<uint64_t> sums;      // group sums by dictionary code
  std::map<uint64_t, uint64_t> groups;
};

// ANDs every term's selection over rows [b, e) into scratch.selected (bit
// j = row b + j), with scratch.term as the per-term buffer. Returns the
// number of selected rows; later terms are skipped once none is left.
uint64_t SelectGrain(const std::vector<Term>& terms, uint64_t b, uint64_t e, int socket,
                     Scratch& scratch) {
  const uint64_t n = e - b;
  const uint64_t words = (n + kWordBits - 1) / kWordBits;
  uint64_t* selected = scratch.selected;
  if (terms.empty()) {
    std::fill_n(selected, words, uint64_t{0});
    smart::SetBitRange(selected, 0, n);
    return n;
  }
  const auto select = [&](const Term& t, uint64_t* bitmap) {
    return t.column->SelectIf(t.column->GetReplica(socket), b, e, t.predicate, bitmap);
  };
  uint64_t count = select(terms[0], selected);
  uint64_t* term = scratch.term;
  for (size_t t = 1; t < terms.size() && count > 0; ++t) {
    select(terms[t], term);
    count = 0;
    for (uint64_t w = 0; w < words; ++w) {
      selected[w] &= term[w];
      count += std::popcount(selected[w]);
    }
  }
  return count;
}

// Sum of rows[j] over the set bits j < n of `selected`.
uint64_t SumSelected(const uint64_t* rows, const uint64_t* selected, uint64_t n) {
  uint64_t sum = 0;
  for (uint64_t w = 0; w * kWordBits < n; ++w) {
    const uint64_t* word_rows = rows + w * kWordBits;
    uint64_t mask = selected[w];
    if (mask == ~uint64_t{0}) {
      for (uint32_t j = 0; j < kWordBits; ++j) {
        sum += word_rows[j];
      }
      continue;
    }
    for (; mask != 0; mask &= mask - 1) {
      sum += word_rows[std::countr_zero(mask)];
    }
  }
  return sum;
}

// GroupBySum on a dictionary key: sums accumulate in a dense per-worker
// array indexed by code, and codes map to keys only at the merge. Codes
// sort in key order and every code occurs in the column, so the result is
// already sorted and complete.
std::vector<std::pair<uint64_t, uint64_t>> GroupByCodes(rts::WorkerPool& pool,
                                                        const smart::DictionaryArray& keys,
                                                        const smart::SmartArray& values) {
  const uint64_t groups = keys.dictionary_size();
  rts::WorkerLocal<Scratch> scratch(pool.num_workers());
  rts::ParallelFor(pool, 0, keys.length(), kGrain, [&](int worker, uint64_t b, uint64_t e) {
    const int socket = pool.worker_socket(worker);
    std::vector<uint64_t>& sums = scratch[worker].sums;
    sums.resize(groups);
    ForEachBlock(b, e, [&](uint64_t lo, uint64_t hi) {
      uint64_t codes[kBlock];
      uint64_t rows[kBlock];
      keys.RangeUnpackCodes(keys.GetReplica(socket), lo, hi, codes);
      values.RangeUnpack(values.GetReplica(socket), lo, hi, rows);
      for (uint64_t i = 0; i < hi - lo; ++i) {
        sums[codes[i]] += rows[i];
      }
    });
  });
  const uint64_t* dictionary = keys.dictionary(keys.GetReplica(0));
  std::vector<std::pair<uint64_t, uint64_t>> result(groups);
  for (uint64_t code = 0; code < groups; ++code) {
    result[code].first = dictionary[code];
  }
  scratch.ForEach([&](int, const Scratch& s) {
    for (uint64_t code = 0; code < s.sums.size(); ++code) {
      result[code].second += s.sums[code];
    }
  });
  return result;
}

}  // namespace

Table::Builder& Table::Builder::AddColumn(std::string name, std::vector<uint64_t> values,
                                          std::optional<smart::Encoding> encoding) {
  for (const auto& staged : staged_) {
    SA_CHECK_MSG(staged.name != name, "duplicate column name");
  }
  if (!staged_.empty()) {
    SA_CHECK_MSG(values.size() == staged_.front().values.size(),
                 "all columns must have the same row count");
  }
  staged_.push_back({std::move(name), std::move(values), encoding});
  return *this;
}

Table Table::Builder::Build(const smart::PlacementSpec& placement,
                            const platform::Topology& topology) {
  SA_CHECK_MSG(!staged_.empty(), "tables need at least one column");
  Table table;
  table.num_rows_ = staged_.front().values.size();
  SA_CHECK_MSG(table.num_rows_ > 0, "tables cannot be empty");
  for (auto& staged : staged_) {
    table.names_.push_back(staged.name);
    const smart::Encoding encoding = staged.encoding.value_or(
        encodings::ChooseEncoding(encodings::AnalyzeValues(staged.values)));
    table.columns_.push_back(smart::Encode(staged.values, encoding, placement, topology));
    std::vector<uint64_t>().swap(staged.values);  // the column holds the rows now
  }
  staged_.clear();
  return table;
}

uint64_t Table::footprint_bytes() const {
  uint64_t total = 0;
  for (const auto& column : columns_) {
    total += column->footprint_bytes();
  }
  return total;
}

const smart::SmartArray& Table::column(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return *columns_[i];
    }
  }
  SA_CHECK_MSG(false, "unknown column");
  __builtin_unreachable();
}

bool Predicate::Matches(uint64_t v) const {
  const Lowered lowered = Lower(*this);
  for (int i = 0; i < lowered.count; ++i) {
    if (!smart::Matches(lowered.terms[i], v)) {
      return false;
    }
  }
  return true;
}

uint64_t CountWhere(rts::WorkerPool& pool, const Table& table,
                    const std::vector<Predicate>& predicates) {
  const std::vector<Term> terms = ToTerms(table, predicates);
  rts::WorkerLocal<Scratch> scratch(pool.num_workers());
  return rts::ParallelReduce<uint64_t>(
      pool, 0, table.num_rows(), kGrain, [&](int worker, uint64_t b, uint64_t e) {
        return SelectGrain(terms, b, e, pool.worker_socket(worker), scratch[worker]);
      });
}

uint64_t SumWhere(rts::WorkerPool& pool, const Table& table, const std::string& sum_column,
                  const std::vector<Predicate>& predicates) {
  const std::vector<Term> terms = ToTerms(table, predicates);
  const smart::SmartArray& values = table.column(sum_column);
  rts::WorkerLocal<Scratch> scratch(pool.num_workers());
  return rts::ParallelReduce<uint64_t>(
      pool, 0, table.num_rows(), kGrain, [&](int worker, uint64_t b, uint64_t e) -> uint64_t {
        const int socket = pool.worker_socket(worker);
        Scratch& s = scratch[worker];
        if (SelectGrain(terms, b, e, socket, s) == 0) {
          return 0;  // the sum column is never decoded for this grain
        }
        uint64_t sum = 0;
        ForEachBlock(b, e, [&](uint64_t lo, uint64_t hi) {
          const uint64_t* selected = s.selected + (lo - b) / kWordBits;
          if (std::all_of(selected, selected + (hi - lo + kWordBits - 1) / kWordBits,
                          [](uint64_t w) { return w == 0; })) {
            return;  // no selected row in this block
          }
          uint64_t rows[kBlock];
          values.RangeUnpack(values.GetReplica(socket), lo, hi, rows);
          sum += SumSelected(rows, selected, hi - lo);
        });
        return sum;
      });
}

std::vector<std::pair<uint64_t, uint64_t>> GroupBySum(rts::WorkerPool& pool, const Table& table,
                                                      const std::string& key_column,
                                                      const std::string& value_column) {
  const smart::SmartArray& keys = table.column(key_column);
  const smart::SmartArray& values = table.column(value_column);
  if (keys.encoding() == smart::Encoding::kDictionary) {
    return GroupByCodes(pool, static_cast<const smart::DictionaryArray&>(keys), values);
  }

  rts::WorkerLocal<Scratch> scratch(pool.num_workers());
  rts::ParallelFor(pool, 0, table.num_rows(), kGrain, [&](int worker, uint64_t b, uint64_t e) {
    const int socket = pool.worker_socket(worker);
    std::map<uint64_t, uint64_t>& groups = scratch[worker].groups;
    ForEachBlock(b, e, [&](uint64_t lo, uint64_t hi) {
      uint64_t key_rows[kBlock];
      uint64_t rows[kBlock];
      keys.RangeUnpack(keys.GetReplica(socket), lo, hi, key_rows);
      values.RangeUnpack(values.GetReplica(socket), lo, hi, rows);
      for (uint64_t i = 0; i < hi - lo; ++i) {
        groups[key_rows[i]] += rows[i];
      }
    });
  });
  std::map<uint64_t, uint64_t> merged;
  scratch.ForEach([&](int, const Scratch& s) {
    for (const auto& [key, sum] : s.groups) {
      merged[key] += sum;
    }
  });
  return {merged.begin(), merged.end()};
}

MinMax MinMaxOf(rts::WorkerPool& pool, const Table& table, const std::string& column) {
  const smart::SmartArray& values = table.column(column);
  return rts::ParallelReduce<MinMax>(
      pool, 0, values.num_chunks(), kGrain / kChunkElems, [&](int, uint64_t b, uint64_t e) {
        MinMax result;
        for (uint64_t chunk = b; chunk < e; ++chunk) {
          result += {values.ZoneMin(chunk), values.ZoneMax(chunk)};
        }
        return result;
      });
}

}  // namespace sa::table
