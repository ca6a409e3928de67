#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "common/hash.h"
#include "exec/hash_table.h"
#include "exec/scan.h"
#include "test_util.h"

namespace vstore {
namespace {

ColumnStoreTable::Options SmallGroups() {
  ColumnStoreTable::Options options;
  options.row_group_size = 1000;
  options.min_compress_rows = 100;
  return options;
}

struct ScanFixture {
  std::unique_ptr<ColumnStoreTable> table;
  ExecContext ctx;

  explicit ScanFixture(int64_t rows, int64_t batch_size = 128) {
    TableData data = testing_util::MakeTestTable(rows);
    table = std::make_unique<ColumnStoreTable>("t", data.schema(),
                                               SmallGroups());
    table->BulkLoad(data).CheckOK();
    ctx.batch_size = batch_size;
  }

  // Drains a scan; returns materialized rows.
  std::vector<std::vector<Value>> Drain(
      ColumnStoreScanOperator::Options options) {
    ColumnStoreScanOperator scan(table.get(), std::move(options), &ctx);
    scan.Open().CheckOK();
    std::vector<std::vector<Value>> rows;
    for (;;) {
      Batch* batch = scan.Next().ValueOrDie();
      if (batch == nullptr) break;
      for (int64_t i = 0; i < batch->num_rows(); ++i) {
        if (batch->active()[i]) rows.push_back(batch->GetActiveRow(i));
      }
    }
    scan.Close();
    return rows;
  }
};

TEST(ScanTest, FullScanReturnsEveryRow) {
  ScanFixture f(3500);
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 3500u);
  EXPECT_EQ(f.ctx.stats.rows_scanned, 3500);
  EXPECT_EQ(f.ctx.stats.row_groups_scanned, 4);
  EXPECT_EQ(f.ctx.stats.row_groups_eliminated, 0);
}

TEST(ScanTest, ProjectionSelectsColumns) {
  ScanFixture f(100);
  ColumnStoreScanOperator::Options options;
  options.projection = {3, 0};  // amount, id
  ColumnStoreScanOperator scan(f.table.get(), options, &f.ctx);
  EXPECT_EQ(scan.output_schema().num_columns(), 2);
  EXPECT_EQ(scan.output_schema().field(0).name, "amount");
  EXPECT_EQ(scan.output_schema().field(1).name, "id");
  auto rows = f.Drain(options);
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[5][1], Value::Int64(5));
}

TEST(ScanTest, PredicateOnProjectedColumn) {
  ScanFixture f(2000);
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kLt, Value::Int64(10)}};
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 10u);
  for (const auto& row : rows) EXPECT_LT(row[0].int64(), 10);
}

TEST(ScanTest, PredicateOnNonProjectedColumn) {
  ScanFixture f(2000);
  ColumnStoreScanOperator::Options options;
  options.projection = {3};                                  // amount only
  options.predicates = {{0, CompareOp::kGe, Value::Int64(1990)}};  // id >= 1990
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 10u);
}

TEST(ScanTest, SegmentEliminationSkipsGroups) {
  // ids are sequential, so each 1000-row group holds a disjoint id range.
  ScanFixture f(4000);
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kGe, Value::Int64(3500)}};
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 500u);
  EXPECT_EQ(f.ctx.stats.row_groups_eliminated, 3);
  EXPECT_EQ(f.ctx.stats.row_groups_scanned, 1);
  EXPECT_EQ(f.ctx.stats.rows_scanned, 1000);  // only the surviving group
}

TEST(ScanTest, EqualityEliminationViaMinMax) {
  ScanFixture f(3000);
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kEq, Value::Int64(1500)}};
  auto rows = f.Drain(options);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(1500));
  EXPECT_EQ(f.ctx.stats.row_groups_eliminated, 2);
}

TEST(ScanTest, StringPredicate) {
  ScanFixture f(1000);
  int name_col = 2;
  ColumnStoreScanOperator::Options options;
  options.predicates = {{name_col, CompareOp::kEq, Value::String("alpha")}};
  auto rows = f.Drain(options);
  ASSERT_GT(rows.size(), 0u);
  for (const auto& row : rows) EXPECT_EQ(row[2].str(), "alpha");
}

TEST(ScanTest, ConjunctivePredicates) {
  ScanFixture f(2000);
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kLt, Value::Int64(100)},
                        {1, CompareOp::kEq, Value::Int64(3)}};
  auto rows = f.Drain(options);
  for (const auto& row : rows) {
    EXPECT_LT(row[0].int64(), 100);
    EXPECT_EQ(row[1].int64(), 3);
  }
}

TEST(ScanTest, DeletedRowsMasked) {
  ScanFixture f(1500);
  for (int64_t i = 0; i < 100; ++i) {
    f.table->Delete(MakeCompressedRowId(0, i * 2)).CheckOK();
  }
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 1400u);
}

TEST(ScanTest, FullyDeletedGroupSkipped) {
  ScanFixture f(2000);
  for (int64_t i = 0; i < 1000; ++i) {
    f.table->Delete(MakeCompressedRowId(0, i)).CheckOK();
  }
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 1000u);
  EXPECT_EQ(f.ctx.stats.row_groups_eliminated, 1);
}

TEST(ScanTest, DeltaRowsIncluded) {
  ScanFixture f(1000);
  for (int64_t i = 0; i < 50; ++i) {
    f.table
        ->Insert({Value::Int64(10000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 1050u);
  EXPECT_EQ(f.ctx.stats.delta_rows_scanned, 50);
}

TEST(ScanTest, DeltaRowsRespectPredicates) {
  ScanFixture f(1000);
  for (int64_t i = 0; i < 50; ++i) {
    f.table
        ->Insert({Value::Int64(10000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  ColumnStoreScanOperator::Options options;
  options.predicates = {{0, CompareOp::kGe, Value::Int64(10025)}};
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 25u);
}

TEST(ScanTest, ExcludeDeltas) {
  ScanFixture f(1000);
  f.table
      ->Insert({Value::Int64(1), Value::Int64(1), Value::String("x"),
                Value::Double(0.0)})
      .ValueOrDie();
  ColumnStoreScanOperator::Options options;
  options.include_deltas = false;
  auto rows = f.Drain(options);
  EXPECT_EQ(rows.size(), 1000u);
}

// Two scans sharing one ScanMorsels split the table between them: row
// groups larger than a morsel, a closed and an open delta store, scattered
// deletes and one fully deleted group. Calls alternate on one thread, so
// the split is deterministic; the rows must be disjoint, their union the
// table, and each group counted once across both scans.
TEST(ScanTest, SharedMorselsSplitTheTableDisjointly) {
  TableData data = testing_util::MakeTestTable(60000);
  ColumnStoreTable::Options table_options;
  table_options.row_group_size = 20000;
  table_options.min_compress_rows = 100;
  ColumnStoreTable table("t", data.schema(), table_options);
  table.BulkLoad(data).CheckOK();
  for (int64_t i = 0; i < 25000; ++i) {
    table
        .Insert({Value::Int64(100000 + i), Value::Int64(1),
                 Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  for (int64_t i = 0; i < 20000; i += 5) {
    table.Delete(MakeCompressedRowId(0, i)).CheckOK();
  }
  for (int64_t i = 0; i < 20000; ++i) {
    table.Delete(MakeCompressedRowId(2, i)).CheckOK();
  }

  ExecContext ctx_a, ctx_b;
  ctx_a.batch_size = ctx_b.batch_size = 1024;
  auto morsels = std::make_shared<ScanMorsels>(table.Snapshot(),
                                               /*include_deltas=*/true,
                                               ctx_a.batch_size);
  ASSERT_EQ(morsels->snapshot()->num_row_groups(), 3);
  ASSERT_EQ(morsels->snapshot()->num_delta_stores(), 2);
  // Two morsels per 20000-row group, then one per delta store.
  EXPECT_EQ(morsels->num_morsels(), 3 * 2 + 2);

  ColumnStoreScanOperator::Options options;
  options.projection = {0};  // id
  options.morsels = morsels;
  ColumnStoreScanOperator a(&table, options, &ctx_a);
  ColumnStoreScanOperator b(&table, options, &ctx_b);
  a.Open().CheckOK();
  b.Open().CheckOK();
  std::set<int64_t> ids_a, ids_b;
  bool a_done = false, b_done = false;
  while (!a_done || !b_done) {
    for (auto [scan, ids, done] :
         {std::tuple{&a, &ids_a, &a_done}, std::tuple{&b, &ids_b, &b_done}}) {
      if (*done) continue;
      Batch* batch = scan->Next().ValueOrDie();
      if (batch == nullptr) {
        *done = true;
        continue;
      }
      for (int64_t i = 0; i < batch->num_rows(); ++i) {
        if (batch->active()[i]) {
          EXPECT_TRUE(ids->insert(batch->column(0).ints()[i]).second);
        }
      }
    }
  }
  a.Close();
  b.Close();

  std::set<int64_t> expected;
  for (int64_t i = 0; i < 40000; ++i) {
    if (i >= 20000 || i % 5 != 0) expected.insert(i);
  }
  for (int64_t i = 0; i < 25000; ++i) expected.insert(100000 + i);
  EXPECT_FALSE(ids_a.empty());
  EXPECT_FALSE(ids_b.empty());
  std::set<int64_t> both = ids_a;
  for (int64_t id : ids_b) EXPECT_TRUE(both.insert(id).second) << id;
  EXPECT_EQ(both, expected);
  EXPECT_EQ(ctx_a.stats.row_groups_scanned + ctx_b.stats.row_groups_scanned,
            2);
  EXPECT_EQ(
      ctx_a.stats.row_groups_eliminated + ctx_b.stats.row_groups_eliminated,
      1);
  EXPECT_EQ(ctx_a.stats.delta_rows_scanned + ctx_b.stats.delta_rows_scanned,
            25000);
}

TEST(ScanTest, BloomFilterDropsNonMatching) {
  ScanFixture f(2000);
  BloomFilter filter(16);
  // Admit only ids 5 and 1500.
  filter.Insert(SingleKeyHash(HashInt64(5)));
  filter.Insert(SingleKeyHash(HashInt64(1500)));
  ColumnStoreScanOperator::Options options;
  options.bloom_filters = {{0, &filter}};
  auto rows = f.Drain(options);
  // Bloom filters may pass false positives but never drop true matches.
  ASSERT_GE(rows.size(), 2u);
  EXPECT_LT(rows.size(), 100u);
  bool found5 = false, found1500 = false;
  for (const auto& row : rows) {
    if (row[0].int64() == 5) found5 = true;
    if (row[0].int64() == 1500) found1500 = true;
  }
  EXPECT_TRUE(found5);
  EXPECT_TRUE(found1500);
  EXPECT_GT(f.ctx.stats.rows_bloom_filtered, 1800);
}

TEST(ScanTest, BloomFilterOnStringColumn) {
  ScanFixture f(1000);
  BloomFilter filter(4);
  filter.Insert(SingleKeyHash(Hash64(std::string_view("alpha"))));
  ColumnStoreScanOperator::Options options;
  options.bloom_filters = {{2, &filter}};
  auto rows = f.Drain(options);
  for (const auto& row : rows) EXPECT_EQ(row[2].str(), "alpha");
}

TEST(ScanTest, EmptyTableYieldsNoBatches) {
  Schema schema = testing_util::MakeTestTable(1).schema();
  ColumnStoreTable table("t", schema, SmallGroups());
  ExecContext ctx;
  ColumnStoreScanOperator scan(&table, {}, &ctx);
  scan.Open().CheckOK();
  EXPECT_EQ(scan.Next().ValueOrDie(), nullptr);
  scan.Close();
}

TEST(ScanTest, ArchivedTableScansTransparently) {
  ScanFixture f(2000);
  f.table->Archive().CheckOK();
  f.table->EvictAll();
  auto rows = f.Drain({});
  EXPECT_EQ(rows.size(), 2000u);
}

}  // namespace
}  // namespace vstore

namespace vstore {
namespace {

TEST(ScanTest, CodeSpacePredicateOnNonProjectedStringColumn) {
  ScanFixture f(2000);
  ColumnStoreScanOperator::Options options;
  options.projection = {0};  // id only — name is predicate-only
  options.predicates = {{2, CompareOp::kEq, Value::String("alpha")}};
  auto rows = f.Drain(options);
  // Cross-check against a full scan counting alphas.
  ScanFixture g(2000);
  int64_t expected = 0;
  for (const auto& row : g.Drain({})) {
    if (row[2].str() == "alpha") ++expected;
  }
  EXPECT_EQ(static_cast<int64_t>(rows.size()), expected);
}

TEST(ScanTest, CodeSpacePredicateAbsentValueMatchesNothing) {
  ScanFixture f(500);
  ColumnStoreScanOperator::Options options;
  options.projection = {0};
  options.predicates = {{2, CompareOp::kEq, Value::String("nonexistent")}};
  EXPECT_TRUE(f.Drain(options).empty());
}

TEST(ScanTest, CodeSpaceNePredicate) {
  ScanFixture f(1000);
  ColumnStoreScanOperator::Options options;
  options.projection = {2};  // projected: falls back to string compare
  options.predicates = {{2, CompareOp::kNe, Value::String("alpha")}};
  auto projected_rows = f.Drain(options);

  ColumnStoreScanOperator::Options scratch_options;
  scratch_options.projection = {0};  // not projected: code-space eval
  scratch_options.predicates = {{2, CompareOp::kNe, Value::String("alpha")}};
  auto scratch_rows = f.Drain(scratch_options);
  EXPECT_EQ(projected_rows.size(), scratch_rows.size());
  for (const auto& row : projected_rows) EXPECT_NE(row[0].str(), "alpha");
}

TEST(ScanTest, SamplingIsDeterministicAndProportional) {
  ScanFixture f(20000);
  ColumnStoreScanOperator::Options options;
  options.sample_fraction = 0.1;
  auto first = f.Drain(options);
  auto second = f.Drain(options);
  EXPECT_EQ(first.size(), second.size());  // deterministic
  // Within generous tolerance of the target rate.
  EXPECT_GT(first.size(), 1200u);
  EXPECT_LT(first.size(), 2800u);
  // Different seed, different sample.
  options.sample_seed = 999;
  auto reseeded = f.Drain(options);
  EXPECT_NE(first, reseeded);
}

TEST(ScanTest, SamplingCoversDeltaRows) {
  ScanFixture f(1000);
  for (int64_t i = 0; i < 1000; ++i) {
    f.table
        ->Insert({Value::Int64(100000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  ColumnStoreScanOperator::Options options;
  options.sample_fraction = 0.2;
  auto rows = f.Drain(options);
  int64_t delta_sampled = 0;
  for (const auto& row : rows) {
    if (row[0].int64() >= 100000) ++delta_sampled;
  }
  EXPECT_GT(delta_sampled, 100);
  EXPECT_LT(delta_sampled, 320);
}

TEST(ScanTest, ScanSnapshotIgnoresConcurrentReorganization) {
  // Regression: a scan used to hold the table's shared lock for its whole
  // lifetime, so running compaction mid-scan deadlocked. With snapshots the
  // scan pins one version at Open and reorganization proceeds freely; the
  // scan's results match its snapshot exactly.
  ScanFixture f(3500, /*batch_size=*/128);
  // Seed a closed delta store plus deletes so both reorg ops have work.
  for (int64_t i = 0; i < 1000; ++i) {
    f.table
        ->Insert({Value::Int64(100000 + i), Value::Int64(1),
                  Value::String("delta"), Value::Double(0.0)})
        .ValueOrDie();
  }
  for (int64_t i = 0; i < 600; ++i) {
    f.table->Delete(MakeCompressedRowId(1, i)).CheckOK();
  }
  ColumnStoreScanOperator scan(f.table.get(), {}, &f.ctx);
  scan.Open().CheckOK();
  // Consume one batch, then reorganize the table while the scan is open.
  Batch* batch = scan.Next().ValueOrDie();
  ASSERT_NE(batch, nullptr);
  int64_t rows_seen = 0;
  for (int64_t i = 0; i < batch->num_rows(); ++i) {
    if (batch->active()[i]) ++rows_seen;
  }
  ASSERT_GT(f.table->CompressDeltaStores().ValueOrDie(), 0);
  ASSERT_EQ(f.table->RemoveDeletedRows(0.1).ValueOrDie(), 1);
  // More churn after the reorg: none of it may leak into the open scan.
  f.table
      ->Insert({Value::Int64(999999), Value::Int64(1), Value::String("late"),
                Value::Double(0.0)})
      .ValueOrDie();
  f.table->Delete(MakeCompressedRowId(0, 5)).CheckOK();
  for (;;) {
    batch = scan.Next().ValueOrDie();
    if (batch == nullptr) break;
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (batch->active()[i]) ++rows_seen;
    }
  }
  scan.Close();
  // Snapshot-time live set: 3500 bulk + 1000 delta - 600 deleted.
  EXPECT_EQ(rows_seen, 3900);
  // And a fresh scan sees the post-reorg state.
  auto fresh = f.Drain({});
  EXPECT_EQ(fresh.size(), 3900u);  // -1 late delete +1 late insert
}

}  // namespace
}  // namespace vstore
