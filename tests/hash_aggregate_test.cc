#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "common/random.h"
#include "exec/hash_aggregate.h"
#include "exec/scalar_aggregate.h"
#include "query/executor.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::DrainOperator;
using testing_util::SortRows;
using testing_util::TableSourceOperator;

Schema InSchema() {
  return Schema({{"g", DataType::kInt64, true},
                 {"name", DataType::kString, true},
                 {"v", DataType::kInt64, true},
                 {"d", DataType::kDouble, true}});
}

std::vector<std::vector<Value>> RunAgg(const TableData& data,
                                       HashAggregateOperator::Options options,
                                       ExecContext* ctx) {
  auto source = std::make_unique<TableSourceOperator>(&data, ctx);
  HashAggregateOperator agg(std::move(source), std::move(options), ctx);
  auto rows = DrainOperator(&agg);
  SortRows(&rows);
  return rows;
}

TEST(HashAggregateTest, SumCountMinMaxAvg) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(1), Value::String("a"), Value::Int64(10),
                  Value::Double(1.5)});
  data.AppendRow({Value::Int64(1), Value::String("b"), Value::Int64(20),
                  Value::Double(2.5)});
  data.AppendRow({Value::Int64(2), Value::String("c"), Value::Int64(5),
                  Value::Double(4.0)});

  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kSum, 2, "sum_v"},
                        {AggFn::kCount, 2, "cnt_v"},
                        {AggFn::kMin, 2, "min_v"},
                        {AggFn::kMax, 2, "max_v"},
                        {AggFn::kAvg, 3, "avg_d"},
                        {AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  // Group 1.
  EXPECT_EQ(rows[0][0], Value::Int64(1));
  EXPECT_EQ(rows[0][1], Value::Int64(30));
  EXPECT_EQ(rows[0][2], Value::Int64(2));
  EXPECT_EQ(rows[0][3], Value::Int64(10));
  EXPECT_EQ(rows[0][4], Value::Int64(20));
  EXPECT_EQ(rows[0][5], Value::Double(2.0));
  EXPECT_EQ(rows[0][6], Value::Int64(2));
  // Group 2.
  EXPECT_EQ(rows[1][1], Value::Int64(5));
}

TEST(HashAggregateTest, StringGroupKeysAndMinMax) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(0), Value::String("x"), Value::Int64(1),
                  Value::Double(0)});
  data.AppendRow({Value::Int64(0), Value::String("x"), Value::Int64(2),
                  Value::Double(0)});
  data.AppendRow({Value::Int64(0), Value::String("y"), Value::Int64(3),
                  Value::Double(0)});

  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {1};
  options.aggregates = {{AggFn::kMin, 1, "min_name"},
                        {AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::String("x"));
  EXPECT_EQ(rows[0][1], Value::String("x"));
  EXPECT_EQ(rows[0][2], Value::Int64(2));
  EXPECT_EQ(rows[1][0], Value::String("y"));
}

TEST(HashAggregateTest, NullKeysFormOneGroup) {
  TableData data(InSchema());
  data.AppendRow({Value::Null(DataType::kInt64), Value::String("a"),
                  Value::Int64(1), Value::Double(0)});
  data.AppendRow({Value::Null(DataType::kInt64), Value::String("b"),
                  Value::Int64(2), Value::Double(0)});
  data.AppendRow({Value::Int64(1), Value::String("c"), Value::Int64(3),
                  Value::Double(0)});

  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 2u);
  // SortRows places the null group first (nulls sort as "\1").
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_EQ(rows[0][1], Value::Int64(2));
}

TEST(HashAggregateTest, NullInputsSkippedByAggregates) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(1), Value::String("a"), Value::Int64(5),
                  Value::Double(0)});
  data.AppendRow({Value::Int64(1), Value::String("a"),
                  Value::Null(DataType::kInt64), Value::Double(0)});

  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kSum, 2, "sum"},
                        {AggFn::kCount, 2, "cnt"},
                        {AggFn::kCountStar, -1, "star"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Int64(5));
  EXPECT_EQ(rows[0][2], Value::Int64(1));  // COUNT(col) skips null
  EXPECT_EQ(rows[0][3], Value::Int64(2));  // COUNT(*) does not
}

TEST(HashAggregateTest, AllNullGroupProducesNullAggregates) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(1), Value::String("a"),
                  Value::Null(DataType::kInt64), Value::Double(0)});
  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kSum, 2, "sum"}, {AggFn::kMin, 2, "min"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_TRUE(rows[0][2].is_null());
}

TEST(HashAggregateTest, EmptyInputProducesNoGroups) {
  TableData data(InSchema());
  ExecContext ctx;
  HashAggregateOperator::Options options;
  options.group_by = {0};
  options.aggregates = {{AggFn::kCountStar, -1, "cnt"}};
  EXPECT_TRUE(RunAgg(data, options, &ctx).empty());
}

// Randomized aggregation vs a std::map reference, with and without a
// spill-inducing memory budget.
class HashAggSpillTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(HashAggSpillTest, MatchesReference) {
  Random rng(77);
  TableData data(InSchema());
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    data.AppendRow({Value::Int64(rng.Uniform(0, 499)),
                    Value::String("s" + std::to_string(rng.Uniform(0, 9))),
                    Value::Int64(rng.Uniform(-100, 100)),
                    Value::Double(static_cast<double>(rng.Uniform(0, 1000)) /
                                  4.0)});
  }

  struct Ref {
    int64_t sum = 0;
    int64_t count = 0;
    int64_t min = 0;
    double dsum = 0;
  };
  std::map<std::pair<int64_t, std::string>, Ref> reference;
  for (int64_t i = 0; i < n; ++i) {
    auto key = std::make_pair(data.column(0).GetInt64(i),
                              data.column(1).GetString(i));
    Ref& ref = reference[key];
    int64_t v = data.column(2).GetInt64(i);
    if (ref.count == 0 || v < ref.min) ref.min = v;
    ref.sum += v;
    ref.dsum += data.column(3).GetDouble(i);
    ++ref.count;
  }

  ExecContext ctx;
  ctx.operator_memory_budget = GetParam();
  HashAggregateOperator::Options options;
  options.group_by = {0, 1};
  options.aggregates = {{AggFn::kSum, 2, "sum"},
                        {AggFn::kMin, 2, "min"},
                        {AggFn::kAvg, 3, "avg"},
                        {AggFn::kCountStar, -1, "cnt"}};
  auto rows = RunAgg(data, options, &ctx);
  ASSERT_EQ(rows.size(), reference.size());
  for (const auto& row : rows) {
    auto key = std::make_pair(row[0].int64(), row[1].str());
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(row[2].int64(), it->second.sum);
    EXPECT_EQ(row[3].int64(), it->second.min);
    EXPECT_NEAR(row[4].dbl(),
                it->second.dsum / static_cast<double>(it->second.count),
                1e-9);
    EXPECT_EQ(row[5].int64(), it->second.count);
  }
  if (GetParam() > 0) {
    EXPECT_GT(ctx.stats.build_rows_spilled, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, HashAggSpillTest,
                         ::testing::Values(0, 64 * 1024, 16 * 1024));

// --- Scalar aggregation -----------------------------------------------------

TEST(ScalarAggregateTest, BasicFold) {
  TableData data(InSchema());
  data.AppendRow({Value::Int64(1), Value::String("a"), Value::Int64(4),
                  Value::Double(1.0)});
  data.AppendRow({Value::Int64(2), Value::String("b"), Value::Int64(6),
                  Value::Double(3.0)});
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  ScalarAggregateOperator agg(std::move(source),
                              {{AggFn::kSum, 2, "sum"},
                               {AggFn::kAvg, 3, "avg"},
                               {AggFn::kMin, 1, "min_name"},
                               {AggFn::kCountStar, -1, "cnt"}},
                              &ctx);
  auto rows = DrainOperator(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(10));
  EXPECT_EQ(rows[0][1], Value::Double(2.0));
  EXPECT_EQ(rows[0][2], Value::String("a"));
  EXPECT_EQ(rows[0][3], Value::Int64(2));
}

TEST(ScalarAggregateTest, EmptyInputYieldsOneRow) {
  TableData data(InSchema());
  ExecContext ctx;
  auto source = std::make_unique<TableSourceOperator>(&data, &ctx);
  ScalarAggregateOperator agg(
      std::move(source),
      {{AggFn::kCountStar, -1, "cnt"}, {AggFn::kSum, 2, "sum"}}, &ctx);
  auto rows = DrainOperator(&agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(0));
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(AggOutputTypeTest, Matrix) {
  EXPECT_EQ(AggOutputType(AggFn::kSum, DataType::kInt32), DataType::kInt64);
  EXPECT_EQ(AggOutputType(AggFn::kSum, DataType::kDouble), DataType::kDouble);
  EXPECT_EQ(AggOutputType(AggFn::kAvg, DataType::kInt64), DataType::kDouble);
  EXPECT_EQ(AggOutputType(AggFn::kMin, DataType::kString), DataType::kString);
  EXPECT_EQ(AggOutputType(AggFn::kMax, DataType::kDate32), DataType::kDate32);
  EXPECT_EQ(AggOutputType(AggFn::kCountStar, DataType::kInt64),
            DataType::kInt64);
}

}  // namespace
}  // namespace vstore

namespace vstore {
namespace {

// Partial -> final two-stage aggregation must equal single-stage results,
// including AVG (sum+count carried exactly) and min/max type preservation.
TEST(AggPhaseTest, PartialThenFinalEqualsComplete) {
  Random rng(88);
  TableData data(InSchema());
  for (int64_t i = 0; i < 5000; ++i) {
    data.AppendRow({Value::Int64(rng.Uniform(0, 19)),
                    Value::String("s" + std::to_string(rng.Uniform(0, 3))),
                    Value::Int64(rng.Uniform(-50, 50)),
                    Value::Double(static_cast<double>(rng.Uniform(0, 999)) /
                                  8.0)});
  }
  HashAggregateOperator::Options logical;
  logical.group_by = {0};
  logical.aggregates = {{AggFn::kSum, 2, "sum"},
                        {AggFn::kAvg, 3, "avg"},
                        {AggFn::kMin, 1, "min_name"},
                        {AggFn::kMax, 2, "max_v"},
                        {AggFn::kCountStar, -1, "cnt"}};

  ExecContext ctx;
  auto complete_rows = RunAgg(data, logical, &ctx);

  // Two-stage: split the input into halves, partial-aggregate each, union,
  // final-aggregate.
  TableData first(InSchema()), second(InSchema());
  for (int64_t i = 0; i < data.num_rows(); ++i) {
    (i % 2 == 0 ? first : second).AppendRow(data.GetRow(i));
  }
  auto make_partial = [&](const TableData& part) {
    auto source = std::make_unique<TableSourceOperator>(&part, &ctx);
    HashAggregateOperator::Options popts = logical;
    popts.phase = AggPhase::kPartial;
    return std::make_unique<HashAggregateOperator>(std::move(source), popts,
                                                   &ctx);
  };
  auto p1 = make_partial(first);
  auto p2 = make_partial(second);
  // Materialize partials into one staging table.
  TableData partials(p1->output_schema());
  for (auto* p : {p1.get(), p2.get()}) {
    for (const auto& row : DrainOperator(p)) partials.AppendRow(row);
  }

  HashAggregateOperator::Options fopts;
  fopts.phase = AggPhase::kFinal;
  fopts.group_by = {0};
  fopts.aggregates = logical.aggregates;
  for (size_t a = 0; a < fopts.aggregates.size(); ++a) {
    fopts.aggregates[a].column = static_cast<int>(1 + 2 * a);
  }
  auto source = std::make_unique<TableSourceOperator>(&partials, &ctx);
  HashAggregateOperator final_agg(std::move(source), fopts, &ctx);
  auto final_rows = DrainOperator(&final_agg);
  SortRows(&final_rows);

  ASSERT_EQ(final_rows.size(), complete_rows.size());
  for (size_t i = 0; i < final_rows.size(); ++i) {
    ASSERT_EQ(final_rows[i].size(), complete_rows[i].size());
    for (size_t c = 0; c < final_rows[i].size(); ++c) {
      if (final_rows[i][c].type() == DataType::kDouble &&
          !final_rows[i][c].is_null()) {
        EXPECT_NEAR(final_rows[i][c].dbl(), complete_rows[i][c].dbl(), 1e-9);
      } else {
        EXPECT_EQ(final_rows[i][c], complete_rows[i][c]) << i << "," << c;
      }
    }
  }
}

TEST(AggPhaseTest, FinalScalarOverEmptyInputEmitsOneRow) {
  TableData data(InSchema());
  ExecContext ctx;
  // Build the partial schema for a scalar COUNT/SUM.
  HashAggregateOperator::Options logical;
  logical.aggregates = {{AggFn::kCountStar, -1, "cnt"},
                        {AggFn::kSum, 2, "sum"}};
  Schema partial_schema = HashAggregateOperator::PartialSchema(
      data.schema(), {}, logical.aggregates);
  TableData empty_partials(partial_schema);

  HashAggregateOperator::Options fopts;
  fopts.phase = AggPhase::kFinal;
  fopts.aggregates = logical.aggregates;
  fopts.aggregates[0].column = 0;
  fopts.aggregates[1].column = 2;
  auto source = std::make_unique<TableSourceOperator>(&empty_partials, &ctx);
  HashAggregateOperator final_agg(std::move(source), fopts, &ctx);
  auto rows = DrainOperator(&final_agg);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value::Int64(0));
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST(AggPhaseTest, PartialSchemaShape) {
  Schema in = InSchema();
  Schema partial = HashAggregateOperator::PartialSchema(
      in, {0}, {{AggFn::kAvg, 3, "avg"}, {AggFn::kMin, 1, "m"}});
  ASSERT_EQ(partial.num_columns(), 5);
  EXPECT_EQ(partial.field(0).name, "g");
  EXPECT_EQ(partial.field(1).type, DataType::kDouble);  // avg sum
  EXPECT_EQ(partial.field(2).type, DataType::kInt64);   // count
  EXPECT_EQ(partial.field(3).type, DataType::kString);  // min(name)
}

// GROUP BY on a double key groups by bit pattern, the rule its hash uses:
// NaN joins the NaN group, -0.0 and +0.0 stay apart, and two doubles that
// print alike stay apart. Two 3-row groups, each holding a NaN (so the
// column keeps raw bits and -0.0 survives compression), give the dop-4
// plan two fragments, so NaN partials from different fragments must merge
// in the final aggregate.
TEST(HashAggregateTest, DoubleKeysGroupByBitPatternAtEveryDop) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"d", DataType::kDouble, false}});
  TableData data(schema);
  for (double d : {nan, -0.0, 1.0000001, nan, 0.0, 1.0000002}) {
    data.AppendRow({Value::Double(d)});
  }
  ColumnStoreTable::Options table_options;
  table_options.row_group_size = 3;
  table_options.min_compress_rows = 1;
  auto cs = std::make_unique<ColumnStoreTable>("t", schema, table_options);
  cs->BulkLoad(data).CheckOK();
  ASSERT_EQ(cs->Snapshot()->num_row_groups(), 2);
  Catalog catalog;
  catalog.AddColumnStore(std::move(cs)).CheckOK();
  PlanBuilder b = PlanBuilder::Scan(catalog, "t");
  b.Aggregate({"d"}, {{AggFn::kCountStar, "", "cnt"}});
  PlanPtr plan = b.Build();

  for (ExecutionMode mode : {ExecutionMode::kBatch, ExecutionMode::kRow}) {
    for (int dop : {1, 4}) {
      QueryOptions options;
      options.mode = mode;
      options.dop = dop;
      QueryResult result =
          QueryExecutor(&catalog, options).Execute(plan).ValueOrDie();
      ASSERT_EQ(result.data.num_rows(), 5) << "dop " << dop;
      int64_t nan_count = 0, negative_zero = 0;
      for (int64_t i = 0; i < result.data.num_rows(); ++i) {
        std::vector<Value> row = result.data.GetRow(i);
        if (std::isnan(row[0].dbl())) nan_count = row[1].int64();
        if (row[0].dbl() == 0.0 && std::signbit(row[0].dbl())) {
          negative_zero = row[1].int64();
        }
      }
      EXPECT_EQ(nan_count, 2) << "dop " << dop;
      EXPECT_EQ(negative_zero, 1) << "dop " << dop;
      if (mode == ExecutionMode::kBatch && dop == 4) {
        EXPECT_NE(result.profile.CounterDeep("degree"), 0);
      }
    }
  }
}

}  // namespace
}  // namespace vstore
