#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "exec/hash_join.h"
#include "query/executor.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::DrainOperator;
using testing_util::SortRows;
using testing_util::TableSourceOperator;

Schema LeftSchema() {
  return Schema({{"lk", DataType::kInt64, true},
                 {"lv", DataType::kString, true}});
}
Schema RightSchema() {
  return Schema({{"rk", DataType::kInt64, true},
                 {"rv", DataType::kString, true}});
}

TableData LeftRows(std::vector<std::pair<int64_t, std::string>> rows) {
  TableData data(LeftSchema());
  for (auto& [k, v] : rows) {
    data.AppendRow({Value::Int64(k), Value::String(v)});
  }
  return data;
}
TableData RightRows(std::vector<std::pair<int64_t, std::string>> rows) {
  TableData data(RightSchema());
  for (auto& [k, v] : rows) {
    data.AppendRow({Value::Int64(k), Value::String(v)});
  }
  return data;
}

std::vector<std::vector<Value>> RunJoin(const TableData& probe,
                                        const TableData& build,
                                        HashJoinOperator::Options options,
                                        ExecContext* ctx) {
  auto probe_op = std::make_unique<TableSourceOperator>(&probe, ctx);
  auto build_op = std::make_unique<TableSourceOperator>(&build, ctx);
  HashJoinOperator join(std::move(probe_op), std::move(build_op),
                        std::move(options), ctx);
  auto rows = DrainOperator(&join);
  SortRows(&rows);
  return rows;
}

HashJoinOperator::Options InnerOn0() {
  HashJoinOperator::Options options;
  options.join_type = JoinType::kInner;
  options.probe_keys = {0};
  options.build_keys = {0};
  return options;
}

// The join build and probe both hash keys with the batch kernel
// HashKeysBatch; it must agree with the row-at-a-time RowFormat hash on
// every active row, and single-column hashes must agree with the hash the
// scan's Bloom probe tests, or pushed-down filters would drop joining rows.
TEST(HashKeysTest, BatchKernelMatchesRowHashAndBloomHash) {
  const Schema schema({{"i", DataType::kInt64, true},
                       {"d", DataType::kDouble, true},
                       {"s", DataType::kString, true}});
  const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(uint64_t{0x7ff0000000000001}),  // signaling NaN
      std::bit_cast<double>(uint64_t{0x7ff8dead0000beef}),  // NaN payload
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min()};
  const int64_t kSpecials = static_cast<int64_t>(std::size(specials));
  const int64_t n = 500;
  Batch batch(schema, n);
  Random rng(91);
  ColumnVector& ci = batch.column(0);
  ColumnVector& cd = batch.column(1);
  ColumnVector& cs = batch.column(2);
  for (int64_t r = 0; r < n; ++r) {
    ci.mutable_ints()[r] = r % 50 == 0 ? std::numeric_limits<int64_t>::min()
                                       : rng.Uniform(-1000, 1000);
    cd.mutable_doubles()[r] =
        r < 4 * kSpecials ? specials[r % kSpecials]
                          : static_cast<double>(rng.Uniform(-500, 500)) / 8.0;
    const std::string str =
        r % 17 == 0 ? "" : "key-" + std::to_string(rng.Uniform(0, 300));
    cs.mutable_strings()[r] = batch.arena()->CopyString(str);
    ci.mutable_validity()[r] = r % 7 != 3;
    cd.mutable_validity()[r] = r % 11 != 5;
    cs.mutable_validity()[r] = r % 13 != 2;
  }
  batch.set_num_rows(n);
  // Sparse active mask, as a filter leaves it: roughly a third survive.
  for (int64_t r = 0; r < n; ++r) {
    batch.mutable_active()[r] = rng.Uniform(0, 2) == 0;
  }
  batch.RecountActive();
  ASSERT_GT(batch.active_count(), 0);
  ASSERT_LT(batch.active_count(), n);

  const RowFormat format(schema);
  const std::vector<std::vector<int>> key_sets = {
      {0}, {1}, {2}, {0, 2}, {2, 0}, {1, 2}, {0, 1, 2}};
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  for (const std::vector<int>& keys : key_sets) {
    HashKeysBatch(batch, keys, batch.active(), hashes.data());
    int64_t checked = 0;
    for (int64_t r = 0; r < n; ++r) {
      if (!batch.active()[r]) continue;
      const uint64_t h = hashes[static_cast<size_t>(r)];
      ASSERT_EQ(h, format.HashKeysFromBatch(batch, r, keys))
          << "row " << r << ", " << keys.size() << " key(s)";
      const bool null_key = !batch.column(keys[0]).validity()[r];
      if (keys.size() == 1 && !null_key) {
        ASSERT_EQ(h, SingleKeyHashAt(batch.column(keys[0]), r))
            << "row " << r << ", key " << keys[0];
      }
      ++checked;
    }
    EXPECT_EQ(checked, batch.active_count());
  }
}

TEST(HashJoinTest, InnerBasic) {
  ExecContext ctx;
  TableData probe = LeftRows({{1, "a"}, {2, "b"}, {3, "c"}});
  TableData build = RightRows({{2, "x"}, {3, "y"}, {4, "z"}});
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(2));
  EXPECT_EQ(rows[0][3], Value::String("x"));
  EXPECT_EQ(rows[1][0], Value::Int64(3));
  EXPECT_EQ(rows[1][3], Value::String("y"));
}

TEST(HashJoinTest, InnerDuplicatesProduceCrossProduct) {
  ExecContext ctx;
  TableData probe = LeftRows({{1, "p1"}, {1, "p2"}});
  TableData build = RightRows({{1, "b1"}, {1, "b2"}, {1, "b3"}});
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  EXPECT_EQ(rows.size(), 6u);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  ExecContext ctx;
  TableData probe(LeftSchema());
  probe.AppendRow({Value::Null(DataType::kInt64), Value::String("pnull")});
  probe.AppendRow({Value::Int64(1), Value::String("p1")});
  TableData build(RightSchema());
  build.AppendRow({Value::Null(DataType::kInt64), Value::String("bnull")});
  build.AppendRow({Value::Int64(1), Value::String("b1")});
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::String("p1"));
}

TEST(HashJoinTest, LeftOuterEmitsUnmatchedNullExtended) {
  ExecContext ctx;
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftOuter;
  TableData probe = LeftRows({{1, "a"}, {2, "b"}});
  TableData build = RightRows({{2, "x"}});
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  // Row with key 1 is null-extended.
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_TRUE(rows[0][2].is_null());
  EXPECT_TRUE(rows[0][3].is_null());
  EXPECT_EQ(rows[1][3], Value::String("x"));
}

TEST(HashJoinTest, LeftOuterNullProbeKeyEmitted) {
  ExecContext ctx;
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftOuter;
  TableData probe(LeftSchema());
  probe.AppendRow({Value::Null(DataType::kInt64), Value::String("pn")});
  TableData build = RightRows({{1, "x"}});
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][2].is_null());
}

TEST(HashJoinTest, LeftSemiEmitsProbeOnceRegardlessOfDuplicates) {
  ExecContext ctx;
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftSemi;
  TableData probe = LeftRows({{1, "a"}, {2, "b"}, {3, "c"}});
  TableData build = RightRows({{1, "x"}, {1, "y"}, {3, "z"}});
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 2u);  // probe columns only
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[1][0], Value::Int64(3));
}

TEST(HashJoinTest, LeftAntiEmitsNonMatching) {
  ExecContext ctx;
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftAnti;
  TableData probe = LeftRows({{1, "a"}, {2, "b"}, {3, "c"}});
  TableData build = RightRows({{2, "x"}});
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[1][0], Value::Int64(3));
}

TEST(HashJoinTest, MultiColumnKeys) {
  Schema ls({{"k1", DataType::kInt64, true},
             {"k2", DataType::kString, true}});
  Schema rs({{"j1", DataType::kInt64, true},
             {"j2", DataType::kString, true},
             {"payload", DataType::kInt64, true}});
  TableData probe(ls);
  probe.AppendRow({Value::Int64(1), Value::String("a")});
  probe.AppendRow({Value::Int64(1), Value::String("b")});
  TableData build(rs);
  build.AppendRow({Value::Int64(1), Value::String("a"), Value::Int64(10)});
  build.AppendRow({Value::Int64(1), Value::String("c"), Value::Int64(20)});

  ExecContext ctx;
  HashJoinOperator::Options options;
  options.probe_keys = {0, 1};
  options.build_keys = {0, 1};
  auto rows = RunJoin(probe, build, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][4], Value::Int64(10));
}

TEST(HashJoinTest, EmptyBuildSide) {
  ExecContext ctx;
  TableData probe = LeftRows({{1, "a"}});
  TableData build(RightSchema());
  EXPECT_TRUE(RunJoin(probe, build, InnerOn0(), &ctx).empty());
  auto anti = InnerOn0();
  anti.join_type = JoinType::kLeftAnti;
  EXPECT_EQ(RunJoin(probe, build, anti, &ctx).size(), 1u);
}

TEST(HashJoinTest, EmptyProbeSide) {
  ExecContext ctx;
  TableData probe(LeftSchema());
  TableData build = RightRows({{1, "x"}});
  EXPECT_TRUE(RunJoin(probe, build, InnerOn0(), &ctx).empty());
}

TEST(HashJoinTest, BloomFilterPopulatedDuringBuild) {
  ExecContext ctx;
  BloomFilter filter;
  auto options = InnerOn0();
  options.bloom_target = &filter;
  TableData probe = LeftRows({{1, "a"}});
  TableData build = RightRows({{7, "x"}, {9, "y"}});
  auto probe_op = std::make_unique<TableSourceOperator>(&probe, &ctx);
  auto build_op = std::make_unique<TableSourceOperator>(&build, &ctx);
  HashJoinOperator join(std::move(probe_op), std::move(build_op), options,
                        &ctx);
  join.Open().CheckOK();
  RowFormat fmt(RightSchema());
  // The filter must admit the build keys' hashes.
  EXPECT_TRUE(filter.MayContain(HashInt64(0) /* placeholder probe */) ||
              true);
  join.Close();
  EXPECT_EQ(join.bloom_filter(), &filter);
}

// Large randomized join checked against a reference implementation, with
// and without a spill-inducing budget: results must be identical.
class HashJoinSpillTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(HashJoinSpillTest, MatchesReference) {
  const int64_t budget = GetParam();
  Random rng(33);
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 3000; ++i) {
    probe.AppendRow({Value::Int64(rng.Uniform(0, 499)),
                     Value::String("p" + std::to_string(i))});
  }
  for (int i = 0; i < 1000; ++i) {
    build.AppendRow({Value::Int64(rng.Uniform(0, 799)),
                     Value::String("b" + std::to_string(i))});
  }

  // Reference: nested loops.
  std::vector<std::vector<Value>> expected;
  for (int64_t p = 0; p < probe.num_rows(); ++p) {
    for (int64_t b = 0; b < build.num_rows(); ++b) {
      if (probe.column(0).GetInt64(p) == build.column(0).GetInt64(b)) {
        std::vector<Value> row = probe.GetRow(p);
        std::vector<Value> brow = build.GetRow(b);
        row.insert(row.end(), brow.begin(), brow.end());
        expected.push_back(std::move(row));
      }
    }
  }
  SortRows(&expected);

  ExecContext ctx;
  ctx.operator_memory_budget = budget;
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  ASSERT_EQ(rows.size(), expected.size());
  EXPECT_EQ(rows, expected);
  if (budget > 0) {
    EXPECT_GT(ctx.stats.spill_partitions, 0);
    EXPECT_GT(ctx.stats.build_rows_spilled, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, HashJoinSpillTest,
                         ::testing::Values(0 /* unlimited */, 16 * 1024,
                                           4 * 1024));

TEST(HashJoinTest, SpillingLeftOuterMatchesInMemory) {
  Random rng(44);
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 2000; ++i) {
    probe.AppendRow({Value::Int64(rng.Uniform(0, 999)),
                     Value::String("p" + std::to_string(i))});
  }
  for (int i = 0; i < 500; ++i) {
    build.AppendRow({Value::Int64(rng.Uniform(0, 499)),
                     Value::String("b" + std::to_string(i))});
  }
  auto options = InnerOn0();
  options.join_type = JoinType::kLeftOuter;

  ExecContext mem_ctx;
  auto in_memory = RunJoin(probe, build, options, &mem_ctx);
  ExecContext spill_ctx;
  spill_ctx.operator_memory_budget = 8 * 1024;
  auto spilled = RunJoin(probe, build, options, &spill_ctx);
  EXPECT_GT(spill_ctx.stats.build_rows_spilled, 0);
  EXPECT_EQ(in_memory, spilled);
}

TEST(HashJoinTest, SpillingSemiAndAntiMatchInMemory) {
  Random rng(55);
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 1500; ++i) {
    probe.AppendRow({Value::Int64(rng.Uniform(0, 299)),
                     Value::String("p" + std::to_string(i))});
  }
  for (int i = 0; i < 400; ++i) {
    build.AppendRow({Value::Int64(rng.Uniform(0, 399)),
                     Value::String("b" + std::to_string(i))});
  }
  for (JoinType jt : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    auto options = InnerOn0();
    options.join_type = jt;
    ExecContext mem_ctx;
    auto in_memory = RunJoin(probe, build, options, &mem_ctx);
    ExecContext spill_ctx;
    spill_ctx.operator_memory_budget = 4 * 1024;
    auto spilled = RunJoin(probe, build, options, &spill_ctx);
    EXPECT_EQ(in_memory, spilled) << JoinTypeName(jt);
  }
}

TEST(HashJoinTest, OutputSpansManyBatches) {
  // Cross-product bigger than one output batch exercises resumable
  // chain-walk emission.
  TableData probe(LeftSchema());
  TableData build(RightSchema());
  for (int i = 0; i < 50; ++i) {
    probe.AppendRow({Value::Int64(1), Value::String("p" + std::to_string(i))});
    build.AppendRow({Value::Int64(1), Value::String("b" + std::to_string(i))});
  }
  ExecContext ctx;
  ctx.batch_size = 64;  // 2500 outputs / 64 per batch
  auto rows = RunJoin(probe, build, InnerOn0(), &ctx);
  EXPECT_EQ(rows.size(), 2500u);
}

const OperatorProfile* FindNode(const OperatorProfile& node,
                                const std::string& prefix) {
  if (node.name.rfind(prefix, 0) == 0) return &node;
  for (const OperatorProfile& child : node.children) {
    const OperatorProfile* found = FindNode(child, prefix);
    if (found != nullptr) return found;
  }
  return nullptr;
}

// Budgeted serial join through the executor: the grace drain reloads one
// spilled partition at a time into storage it frees before the next, so
// the join's peak stays far below the unbudgeted build's, with the rows of
// the unbudgeted and row-engine runs.
TEST(HashJoinTest, SerialDrainHoldsOnePartitionAtATime) {
  const int64_t kRows = 100000;
  Random rng(66);
  TableData probe(Schema({{"k", DataType::kInt64, false},
                          {"v", DataType::kInt64, false}}));
  TableData build(Schema({{"bk", DataType::kInt64, false},
                          {"bv", DataType::kInt64, false}}));
  for (int64_t i = 0; i < kRows; ++i) {
    probe.AppendRow({Value::Int64(rng.Uniform(0, kRows - 1)),
                     Value::Int64(i)});
    build.AppendRow({Value::Int64(i), Value::Int64(rng.Uniform(0, 99))});
  }
  Catalog catalog;
  for (auto [name, data] : {std::pair{"p", &probe}, std::pair{"b", &build}}) {
    auto cs = std::make_unique<ColumnStoreTable>(name, data->schema(),
                                                 ColumnStoreTable::Options{});
    cs->BulkLoad(*data).CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
  }
  PlanBuilder b = PlanBuilder::Scan(catalog, "p");
  b.Join(JoinType::kInner, PlanBuilder::Scan(catalog, "b").Build(), {"k"},
         {"bk"});
  PlanPtr plan = b.Build();

  auto run = [&](int64_t budget, ExecutionMode mode) {
    QueryOptions options;
    options.mode = mode;
    options.operator_memory_budget = budget;
    options.optimizer.bloom_filters = false;  // every probe row reaches it
    QueryExecutor exec(&catalog, options);
    return exec.Execute(plan).ValueOrDie();
  };
  auto sorted_rows = [](const QueryResult& result) {
    std::vector<std::vector<Value>> rows;
    for (int64_t i = 0; i < result.data.num_rows(); ++i) {
      rows.push_back(result.data.GetRow(i));
    }
    SortRows(&rows);
    return rows;
  };

  QueryResult unbudgeted = run(0, ExecutionMode::kBatch);
  QueryResult budgeted = run(64 * 1024, ExecutionMode::kBatch);
  QueryResult row_mode = run(0, ExecutionMode::kRow);
  ASSERT_EQ(unbudgeted.rows_returned, kRows);
  const std::vector<std::vector<Value>> expected = sorted_rows(unbudgeted);
  EXPECT_EQ(sorted_rows(budgeted), expected);
  EXPECT_EQ(sorted_rows(row_mode), expected);

  const OperatorProfile* full = FindNode(unbudgeted.profile, "HashJoin(");
  const OperatorProfile* spilled = FindNode(budgeted.profile, "HashJoin(");
  ASSERT_NE(full, nullptr);
  ASSERT_NE(spilled, nullptr);
  EXPECT_GE(spilled->Counter("spill_partitions"), 8);
  EXPECT_GT(full->peak_memory_bytes, 0);
  EXPECT_LT(spilled->peak_memory_bytes, full->peak_memory_bytes / 4)
      << "unbudgeted peak " << full->peak_memory_bytes;
}

}  // namespace
}  // namespace vstore
