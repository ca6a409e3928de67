// ThreadSanitizer-targeted stress test for the exchange operator: runs
// parallel plans at dop >= 4 repeatedly and checks that stats and profile
// merging across fragment threads is race-free and deterministic. Build
// with -DVSTORE_SANITIZE=thread to let TSan watch the merges; the ctest
// label "stress" lets CI schedule it separately.

#include <gtest/gtest.h>

#include <cstdlib>

#include "query/executor.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::MakeTestTable;

int Repeats() {
  const char* v = std::getenv("VSTORE_STRESS_REPEATS");
  int n = v == nullptr ? 25 : std::atoi(v);
  return n > 0 ? n : 25;
}

struct StressFixture {
  Catalog catalog;

  explicit StressFixture(int64_t rows = 30000) {
    TableData data = MakeTestTable(rows);
    ColumnStoreTable::Options options;
    options.row_group_size = 1000;
    options.min_compress_rows = 10;
    auto cs = std::make_unique<ColumnStoreTable>("t", data.schema(), options);
    cs->BulkLoad(data).CheckOK();
    cs->CompressDeltaStores(true).status().CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
  }
};

TEST(ExchangeStressTest, RepeatedParallelAggregateIsRaceFreeAndExact) {
  StressFixture f;
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Filter(expr::Lt(expr::Column(b.schema(), "id"),
                    expr::Lit(Value::Int64(24000))));
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                           {AggFn::kSum, "id", "total"}});
  PlanPtr plan = b.Build();

  QueryOptions serial;
  serial.mode = ExecutionMode::kBatch;
  QueryExecutor serial_exec(&f.catalog, serial);
  QueryResult baseline = serial_exec.Execute(plan).ValueOrDie();

  QueryOptions parallel = serial;
  parallel.dop = 4;
  QueryExecutor exec(&f.catalog, parallel);

  const int repeats = Repeats();
  for (int r = 0; r < repeats; ++r) {
    QueryResult result = exec.Execute(plan).ValueOrDie();
    ASSERT_EQ(result.rows_returned, baseline.rows_returned) << "run " << r;
    // Fragment stats merges are exact and order-independent: the totals
    // must come out identical on every run.
    ASSERT_EQ(result.stats.rows_scanned, baseline.stats.rows_scanned)
        << "run " << r;
    ASSERT_EQ(result.stats.row_groups_scanned +
                  result.stats.row_groups_eliminated,
              baseline.stats.row_groups_scanned +
                  baseline.stats.row_groups_eliminated)
        << "run " << r;
    // Same for the merged fragment profile.
    ASSERT_EQ(result.profile.CounterDeep("rows_scanned"),
              baseline.profile.CounterDeep("rows_scanned"))
        << "run " << r;
  }
}

TEST(ExchangeStressTest, RepeatedParallelScanDeliversEveryRow) {
  StressFixture f;
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Select({"id"});
  PlanPtr plan = b.Build();

  QueryOptions parallel;
  parallel.mode = ExecutionMode::kBatch;
  parallel.dop = 6;
  parallel.materialize = false;  // exercise the exchange queue, skip copies
  QueryExecutor exec(&f.catalog, parallel);

  const int repeats = Repeats();
  for (int r = 0; r < repeats; ++r) {
    QueryResult result = exec.Execute(plan).ValueOrDie();
    ASSERT_EQ(result.rows_returned, 30000) << "run " << r;
    ASSERT_EQ(result.profile.CounterDeep("rows_scanned"), 30000)
        << "run " << r;
  }
}

// Four fragments race for the morsels of one row group plus delta stores,
// with deleted rows in between: every run must deliver each live row
// exactly once, so the aggregate matches the serial plan bit for bit.
TEST(ExchangeStressTest, RepeatedMorselScanOfOneGroupIsExact) {
  Catalog catalog;
  TableData data = MakeTestTable(65536);
  ColumnStoreTable::Options options;
  options.row_group_size = 65536;
  options.min_compress_rows = 10;
  auto cs = std::make_unique<ColumnStoreTable>("t", data.schema(), options);
  cs->BulkLoad(data).CheckOK();
  for (int64_t i = 0; i < 3000; ++i) {
    cs->Insert({Value::Int64(100000 + i), Value::Int64(i % 10),
                Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  for (int64_t i = 0; i < 65536; i += 3) {
    cs->Delete(MakeCompressedRowId(0, i)).CheckOK();
  }
  catalog.AddColumnStore(std::move(cs)).CheckOK();

  PlanBuilder b = PlanBuilder::Scan(catalog, "t");
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                           {AggFn::kSum, "id", "total"}});
  PlanPtr plan = b.Build();
  QueryOptions serial;
  serial.mode = ExecutionMode::kBatch;
  QueryResult baseline =
      QueryExecutor(&catalog, serial).Execute(plan).ValueOrDie();
  auto sorted_rows = [](const QueryResult& result) {
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < result.data.num_rows(); ++i) {
      rows.push_back(result.data.GetRow(i));
    }
    testing_util::SortRows(&rows);
    return rows;
  };
  const auto expected = sorted_rows(baseline);

  QueryOptions parallel = serial;
  parallel.dop = 4;
  QueryExecutor exec(&catalog, parallel);
  const int repeats = Repeats();
  for (int r = 0; r < repeats; ++r) {
    QueryResult result = exec.Execute(plan).ValueOrDie();
    ASSERT_EQ(sorted_rows(result), expected) << "run " << r;
    ASSERT_EQ(result.stats.rows_scanned, baseline.stats.rows_scanned)
        << "run " << r;
    ASSERT_EQ(result.stats.delta_rows_scanned, 3000) << "run " << r;
    ASSERT_EQ(result.stats.row_groups_scanned, 1) << "run " << r;
    ASSERT_EQ(result.profile.CounterDeep("degree"), 4) << "run " << r;
  }
}

}  // namespace
}  // namespace vstore
