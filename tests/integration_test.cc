// End-to-end lifecycle tests: the whole stack (storage, DML, reorganize,
// archival, optimizer, both engines, parallelism) driven the way a user
// would, asserting that query answers stay correct through every state
// transition a table can go through.

#include <gtest/gtest.h>
#include <map>

#include "common/random.h"
#include "query/executor.h"
#include "storage/tuple_mover.h"
#include "test_operators.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace vstore {
namespace {

using testing_util::SortRows;

struct Warehouse {
  Catalog catalog;
  ColumnStoreTable* table = nullptr;

  explicit Warehouse(int64_t rows) {
    Schema schema({{"region", DataType::kString, false},
                   {"day", DataType::kDate32, false},
                   {"units", DataType::kInt64, false},
                   {"price", DataType::kDouble, false}});
    TableData data(schema);
    Random rng(11);
    const char* regions[] = {"north", "south", "east", "west"};
    for (int64_t i = 0; i < rows; ++i) {
      data.AppendRow({Value::String(regions[rng.Uniform(0, 3)]),
                      Value::Date32(static_cast<int32_t>(19000 + i % 365)),
                      Value::Int64(rng.Uniform(1, 9)),
                      Value::Double(static_cast<double>(rng.Uniform(100, 9999)) /
                                    100.0)});
    }
    ColumnStoreTable::Options options;
    options.row_group_size = 1000;
    options.min_compress_rows = 100;
    auto owned = std::make_unique<ColumnStoreTable>("w", schema, options);
    owned->BulkLoad(data).CheckOK();
    table = owned.get();
    catalog.AddColumnStore(std::move(owned)).CheckOK();
  }

  // Units per region, via the full query stack.
  std::map<std::string, int64_t> UnitsByRegion(ExecutionMode mode,
                                               int dop = 1) {
    PlanBuilder b = PlanBuilder::Scan(catalog, "w");
    b.Aggregate({"region"}, {{AggFn::kSum, "units", "units"}});
    QueryOptions options;
    options.mode = mode;
    options.dop = dop;
    QueryExecutor exec(&catalog, options);
    QueryResult result = exec.Execute(b.Build()).ValueOrDie();
    std::map<std::string, int64_t> out;
    for (int64_t i = 0; i < result.data.num_rows(); ++i) {
      out[result.data.column(0).GetString(i)] =
          result.data.column(1).GetInt64(i);
    }
    return out;
  }
};

TEST(IntegrationTest, AnswersStableThroughTableLifecycle) {
  Warehouse w(5000);
  auto baseline = w.UnitsByRegion(ExecutionMode::kBatch);
  ASSERT_EQ(baseline.size(), 4u);

  // 1. Trickle inserts land in delta stores and are immediately visible.
  int64_t added_north = 0;
  for (int64_t i = 0; i < 700; ++i) {
    w.table
        ->Insert({Value::String("north"), Value::Date32(19400),
                  Value::Int64(2), Value::Double(1.0)})
        .ValueOrDie();
    added_north += 2;
  }
  auto with_deltas = w.UnitsByRegion(ExecutionMode::kBatch);
  EXPECT_EQ(with_deltas["north"], baseline["north"] + added_north);
  EXPECT_EQ(with_deltas["south"], baseline["south"]);

  // 2. Parallel plans see the same data (delta stores are morsels too).
  EXPECT_EQ(w.UnitsByRegion(ExecutionMode::kBatch, 4), with_deltas);

  // 3. Row mode sees the same data.
  EXPECT_EQ(w.UnitsByRegion(ExecutionMode::kRow), with_deltas);

  // 4. Deletes via the delete bitmap subtract exactly the deleted rows.
  int64_t removed = 0;
  for (int64_t r = 0; r < 50; ++r) {
    std::vector<Value> row;
    RowId id = MakeCompressedRowId(0, r);
    w.table->GetRow(id, &row).CheckOK();
    removed += row[0].str() == "north" ? row[2].int64() : 0;
    if (row[0].str() == "north") {
      w.table->Delete(id).CheckOK();
    }
  }
  auto after_delete = w.UnitsByRegion(ExecutionMode::kBatch);
  EXPECT_EQ(after_delete["north"], with_deltas["north"] - removed);

  // 5. The tuple mover changes the physical layout, never the answer.
  TupleMover::Options mopts;
  mopts.include_open_stores = true;
  mopts.rebuild_deleted_fraction = 0.001;
  TupleMover mover(w.table, mopts);
  mover.RunOnce().ValueOrDie();
  EXPECT_EQ(w.table->num_delta_rows(), 0);
  EXPECT_EQ(w.table->num_deleted_rows(), 0);
  EXPECT_EQ(w.UnitsByRegion(ExecutionMode::kBatch), after_delete);

  // 6. Archival compression changes storage, never the answer.
  w.table->Archive().CheckOK();
  w.table->EvictAll();
  EXPECT_EQ(w.UnitsByRegion(ExecutionMode::kBatch), after_delete);
  EXPECT_LT(w.table->Sizes().TotalArchived(), w.table->Sizes().Total() + 1);
}

TEST(IntegrationTest, ParallelAggregationWithDeltasMatchesSerial) {
  Warehouse w(8000);
  for (int64_t i = 0; i < 500; ++i) {
    w.table
        ->Insert({Value::String("east"), Value::Date32(19001),
                  Value::Int64(3), Value::Double(2.0)})
        .ValueOrDie();
  }
  auto serial = w.UnitsByRegion(ExecutionMode::kBatch, 1);
  auto parallel = w.UnitsByRegion(ExecutionMode::kBatch, 4);
  EXPECT_EQ(serial, parallel);
}

TEST(IntegrationTest, OptimizerLevelsAgreeOnTpch) {
  // All optimizer feature combinations return identical answers on a
  // multi-join TPC-H query.
  tpch::Tables tables = tpch::Generate(0.001);
  Catalog catalog;
  ColumnStoreTable::Options options;
  options.row_group_size = 2048;
  tpch::LoadIntoCatalog(&catalog, tables, true, false, options).CheckOK();
  PlanPtr plan = tpch::Q5(catalog);

  std::vector<std::vector<std::vector<Value>>> results;
  for (int mask = 0; mask < 16; ++mask) {
    QueryOptions qopts;
    qopts.optimizer.pushdown = mask & 1;
    qopts.optimizer.join_reorder = mask & 2;
    qopts.optimizer.bloom_filters = mask & 4;
    qopts.optimizer.column_pruning = mask & 8;
    QueryExecutor exec(&catalog, qopts);
    QueryResult result = exec.Execute(plan).ValueOrDie();
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < result.data.num_rows(); ++i) {
      rows.push_back(result.data.GetRow(i));
    }
    SortRows(&rows);
    results.push_back(std::move(rows));
  }
  for (size_t m = 1; m < results.size(); ++m) {
    ASSERT_EQ(results[m].size(), results[0].size()) << "mask " << m;
    for (size_t r = 0; r < results[m].size(); ++r) {
      for (size_t c = 0; c < results[m][r].size(); ++c) {
        const Value& a = results[m][r][c];
        const Value& b = results[0][r][c];
        if (a.type() == DataType::kDouble && !a.is_null()) {
          EXPECT_NEAR(a.dbl(), b.dbl(), 1e-6) << "mask " << m;
        } else {
          EXPECT_EQ(a, b) << "mask " << m;
        }
      }
    }
  }
}

TEST(IntegrationTest, SpillingEverywhereStillCorrect) {
  // Tiny memory budget forces both the join and the aggregation to spill
  // in the same query.
  tpch::Tables tables = tpch::Generate(0.002);
  Catalog catalog;
  tpch::LoadIntoCatalog(&catalog, tables, true, false,
                        ColumnStoreTable::Options{})
      .CheckOK();
  PlanPtr plan = tpch::Q3(catalog);

  QueryExecutor normal(&catalog);
  QueryResult expected = normal.Execute(plan).ValueOrDie();

  QueryOptions tight;
  tight.operator_memory_budget = 16 * 1024;
  QueryExecutor spilling(&catalog, tight);
  QueryResult spilled = spilling.Execute(plan).ValueOrDie();

  EXPECT_GT(spilled.stats.build_rows_spilled, 0);
  ASSERT_EQ(spilled.data.num_rows(), expected.data.num_rows());
  for (int64_t i = 0; i < expected.data.num_rows(); ++i) {
    EXPECT_EQ(expected.data.column(0).GetValue(i),
              spilled.data.column(0).GetValue(i));
  }
}

TEST(IntegrationTest, ExplainShowsOptimizedPlan) {
  Warehouse w(2000);
  PlanBuilder b = PlanBuilder::Scan(w.catalog, "w");
  b.Filter(expr::Ge(expr::Column(b.schema(), "day"),
                    expr::Lit(Value::Date32(19300))));
  b.Aggregate({"region"}, {{AggFn::kCountStar, "", "cnt"}});
  QueryExecutor exec(&w.catalog);
  QueryResult result = exec.Execute(b.Build()).ValueOrDie();
  std::string plan_text = result.optimized_plan->ToString();
  // Pushdown visible in the EXPLAIN output.
  EXPECT_NE(plan_text.find("Scan(w) [day >= "), std::string::npos);
  EXPECT_NE(plan_text.find("HashAggregate"), std::string::npos);
}

}  // namespace
}  // namespace vstore
