#include "table/table.h"

#include <algorithm>
#include <bit>
#include <map>

#include "common/bits.h"
#include "common/macros.h"
#include "rts/parallel_for.h"
#include "rts/worker_local.h"
#include "smart/predicate.h"

namespace sa::table {
namespace {

// Scans run in grains of this many rows: one pushdown call per predicate
// and column per grain, with the grain's selection bitmap (256 words) and
// decode buffers reused across a worker's grains.
constexpr uint64_t kGrain = rts::kDefaultGrain;
constexpr uint64_t kGrainWords = kGrain / kWordBits;

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
  const encodings::EncodedArray* column;
  smart::Predicate predicate;
};

// The conjunction's terms, smallest column first (stable, so ties keep the
// caller's order). A grain's first term is always scanned in full and later
// ones only while rows survive (SelectGrain), so a run-length or dictionary
// term empties most grains before a wide column is read.
std::vector<Term> ToTerms(const Table& table, const std::vector<Predicate>& predicates) {
  std::vector<Term> terms;
  for (const Predicate& p : predicates) {
    const encodings::EncodedArray* column = &table.column(p.column);
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

// Per-worker state of one query. Buffers grow (zero-filled) on the
// worker's first grain and are reused by its later grains.
struct Scratch {
  std::vector<uint64_t> selected;  // the grain's conjunction bitmap
  std::vector<uint64_t> term;      // one term's bitmap
  std::vector<uint64_t> keys;      // decoded key column (or its codes)
  std::vector<uint64_t> values;    // decoded value column
  std::vector<uint64_t> sums;      // group sums by dictionary code
  std::map<uint64_t, uint64_t> groups;
};

uint64_t* Reserve(std::vector<uint64_t>& buffer, uint64_t n) {
  if (buffer.size() < n) {
    buffer.resize(n);
  }
  return buffer.data();
}

// ANDs every term's selection over rows [b, e) into scratch.selected (bit
// j = row b + j), with scratch.term as the per-term buffer. Returns the
// number of selected rows; later terms are skipped once none is left.
uint64_t SelectGrain(const std::vector<Term>& terms, uint64_t b, uint64_t e, int socket,
                     Scratch& scratch) {
  const uint64_t n = e - b;
  const uint64_t words = (n + kWordBits - 1) / kWordBits;
  uint64_t* selected = Reserve(scratch.selected, kGrainWords);
  if (terms.empty()) {
    std::fill_n(selected, words, uint64_t{0});
    smart::SetBitRange(selected, 0, n);
    return n;
  }
  uint64_t count = terms[0].column->SelectIf(b, e, socket, terms[0].predicate, selected);
  uint64_t* term = Reserve(scratch.term, kGrainWords);
  for (size_t t = 1; t < terms.size() && count > 0; ++t) {
    terms[t].column->SelectIf(b, e, socket, terms[t].predicate, term);
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
                                                        const encodings::DictionaryArray& keys,
                                                        const encodings::EncodedArray& values) {
  const uint64_t groups = keys.dictionary_size();
  rts::WorkerLocal<Scratch> scratch(pool.num_workers());
  rts::ParallelFor(pool, 0, keys.length(), kGrain, [&](int worker, uint64_t b, uint64_t e) {
    const int socket = pool.worker_socket(worker);
    Scratch& s = scratch[worker];
    uint64_t* sums = Reserve(s.sums, groups);
    uint64_t* codes = Reserve(s.keys, kGrain);
    uint64_t* rows = Reserve(s.values, kGrain);
    keys.DecodeCodes(b, e, socket, codes);
    values.Decode(b, e, socket, rows);
    for (uint64_t i = 0; i < e - b; ++i) {
      sums[codes[i]] += rows[i];
    }
  });
  std::vector<std::pair<uint64_t, uint64_t>> result(groups);
  for (uint64_t code = 0; code < groups; ++code) {
    result[code].first = keys.code_value(code);
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
                                          std::optional<encodings::Encoding> encoding) {
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
    table.columns_.push_back(
        encodings::EncodedArray::Encode(staged.values, staged.encoding, placement, topology));
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

const encodings::EncodedArray& Table::column(const std::string& name) const {
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
  const encodings::EncodedArray& values = table.column(sum_column);
  rts::WorkerLocal<Scratch> scratch(pool.num_workers());
  return rts::ParallelReduce<uint64_t>(
      pool, 0, table.num_rows(), kGrain, [&](int worker, uint64_t b, uint64_t e) -> uint64_t {
        const int socket = pool.worker_socket(worker);
        Scratch& s = scratch[worker];
        if (SelectGrain(terms, b, e, socket, s) == 0) {
          return 0;  // the sum column is never decoded for this grain
        }
        uint64_t* rows = Reserve(s.values, kGrain);
        values.Decode(b, e, socket, rows);
        return SumSelected(rows, s.selected.data(), e - b);
      });
}

std::vector<std::pair<uint64_t, uint64_t>> GroupBySum(rts::WorkerPool& pool, const Table& table,
                                                      const std::string& key_column,
                                                      const std::string& value_column) {
  const encodings::EncodedArray& keys = table.column(key_column);
  const encodings::EncodedArray& values = table.column(value_column);
  if (keys.encoding() == encodings::Encoding::kDictionary) {
    return GroupByCodes(pool, static_cast<const encodings::DictionaryArray&>(keys), values);
  }

  rts::WorkerLocal<Scratch> scratch(pool.num_workers());
  rts::ParallelFor(pool, 0, table.num_rows(), kGrain, [&](int worker, uint64_t b, uint64_t e) {
    const int socket = pool.worker_socket(worker);
    Scratch& s = scratch[worker];
    uint64_t* key_rows = Reserve(s.keys, kGrain);
    uint64_t* rows = Reserve(s.values, kGrain);
    keys.Decode(b, e, socket, key_rows);
    values.Decode(b, e, socket, rows);
    for (uint64_t i = 0; i < e - b; ++i) {
      s.groups[key_rows[i]] += rows[i];
    }
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
  const encodings::EncodedArray& values = table.column(column);
  // Grains start on a chunk and end on one or at the last row, as the
  // metadata-only MinMax requires.
  static_assert(kGrain % kChunkElems == 0);
  return rts::ParallelReduce<MinMax>(
      pool, 0, table.num_rows(), kGrain, [&](int worker, uint64_t b, uint64_t e) {
        return values.MinMax(b, e, pool.worker_socket(worker));
      });
}

}  // namespace sa::table
