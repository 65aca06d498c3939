// Column-store tables over smart arrays.
//
// The paper motivates its aggregation benchmark with database analytics
// ("it can represent the summation of two columns", §5.1) and cites the
// column-scan literature its bit compression comes from [43, 59]. This
// substrate is that workload made concrete: a read-only table whose columns
// are smart::SmartArrays, each in the smart::Encoding the §7 chooser picks
// (or the caller forces) and all under one NUMA placement, scanned on the
// Callisto-style runtime by operators that read metadata before rows:
// MIN/MAX answers from the columns' exact chunk zones, predicates run on the
// encoded words (SmartArray::SelectIf) smallest column first, a dictionary
// key groups on its codes, and only the rows a query still needs are
// decoded, a few hundred at a time.
#ifndef SA_TABLE_TABLE_H_
#define SA_TABLE_TABLE_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rts/worker_pool.h"
#include "smart/smart_array.h"

namespace sa::table {

class Table {
 public:
  // Builder: stage named columns, then Build() encodes them all under one
  // placement.
  class Builder {
   public:
    // `encoding` nullopt = automatic technique selection per column.
    Builder& AddColumn(std::string name, std::vector<uint64_t> values,
                       std::optional<smart::Encoding> encoding = std::nullopt);
    Table Build(const smart::PlacementSpec& placement, const platform::Topology& topology);

   private:
    struct Staged {
      std::string name;
      std::vector<uint64_t> values;
      std::optional<smart::Encoding> encoding;
    };
    std::vector<Staged> staged_;
  };

  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  uint64_t footprint_bytes() const;

  const std::vector<std::string>& column_names() const { return names_; }
  // Aborts on unknown names (schema errors are programming errors here).
  const smart::SmartArray& column(const std::string& name) const;

 private:
  friend class Builder;
  Table() = default;

  uint64_t num_rows_ = 0;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<smart::SmartArray>> columns_;
};

// ---- Scan operators ----

// A comparison on one column. Scans run it as one smart::Predicate, or as
// two (kGe value, kLe value2) for kBetween, pushed down into the column's
// encoding.
struct Predicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe, kBetween };

  std::string column;
  Op op = Op::kEq;
  uint64_t value = 0;
  uint64_t value2 = 0;  // upper bound for kBetween (inclusive)

  bool Matches(uint64_t v) const;
};

// SELECT COUNT(*) WHERE all predicates hold. Per grain, the terms run
// smallest column (footprint_bytes) first, and the rest are skipped once no
// row survives; the answer does not depend on the order. SumWhere runs its
// predicates the same way.
uint64_t CountWhere(rts::WorkerPool& pool, const Table& table,
                    const std::vector<Predicate>& predicates);

// SELECT SUM(sum_column) WHERE all predicates hold.
uint64_t SumWhere(rts::WorkerPool& pool, const Table& table, const std::string& sum_column,
                  const std::vector<Predicate>& predicates);

// SELECT key, SUM(value) GROUP BY key — returned sorted by key. A
// dictionary-encoded key column groups on its codes.
std::vector<std::pair<uint64_t, uint64_t>> GroupBySum(rts::WorkerPool& pool, const Table& table,
                                                      const std::string& key_column,
                                                      const std::string& value_column);

// The exact [min, max] of a set of values. The default is the empty set's
// (min > max), and += merges two sets, so rts::ParallelReduce folds
// per-grain answers.
struct MinMax {
  uint64_t min = ~uint64_t{0};
  uint64_t max = 0;

  MinMax& operator+=(const MinMax& o) {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    return *this;
  }
};

// SELECT MIN(col), MAX(col), folded from the column's exact chunk zones
// without decoding a row (every encoding installs exact zones when it is
// built, and table columns are never written).
MinMax MinMaxOf(rts::WorkerPool& pool, const Table& table, const std::string& column);

}  // namespace sa::table

#endif  // SA_TABLE_TABLE_H_
