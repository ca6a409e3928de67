// Differential tests for the parallel batch-mode hash join: a dop-4 plan
// (shared multi-threaded build, fragmented probe through an exchange) must
// return exactly the rows of the dop-1 serial join — across join types,
// with and without spilling, over NULL keys, two-column keys and filtered
// (sparse) build batches — and compose with the parallel-aggregate
// rewrite into a single fragment tree. Also pins the EXPLAIN ANALYZE
// surface: per-fragment build counters on the probe node, and the same
// build timers on the serial join.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "query/executor.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::MakeTestTable;
using testing_util::SortRows;

struct JoinFixture {
  Catalog catalog;

  JoinFixture(int64_t fact_rows = 20000, int64_t dim_rows = 10000) {
    AddTable("fact", fact_rows, /*seed=*/42);
    AddTable("dim", dim_rows, /*seed=*/7);
  }

  void AddTable(const std::string& name, int64_t rows, uint64_t seed) {
    TableData data = MakeTestTable(rows, seed);
    ColumnStoreTable::Options options;
    options.row_group_size = 1000;  // many groups -> real fragmentation
    options.min_compress_rows = 10;
    auto cs = std::make_unique<ColumnStoreTable>(name, data.schema(), options);
    cs->BulkLoad(data).CheckOK();
    cs->CompressDeltaStores(true).status().CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
  }
};

// fact join dim on the unique id column; the dim columns are renamed so
// the join output has no duplicate names. fact has twice as many ids as
// dim, so outer/anti joins see unmatched probe rows.
PlanPtr JoinPlan(const Catalog& catalog, JoinType type) {
  PlanBuilder dim = PlanBuilder::Scan(catalog, "dim");
  dim.Select({"id", "amount"});
  PlanBuilder renamed = PlanBuilder::From(dim.Build());
  renamed.Project({expr::Column(renamed.schema(), "id"),
                   expr::Column(renamed.schema(), "amount")},
                  {"did", "damount"});
  PlanBuilder b = PlanBuilder::Scan(catalog, "fact");
  b.Join(type, renamed.Build(), {"id"}, {"did"});
  return b.Build();
}

QueryResult RunQuery(const Catalog& catalog, const PlanPtr& plan, int dop,
                int64_t memory_budget = 0,
                ExecutionMode mode = ExecutionMode::kBatch) {
  QueryOptions options;
  options.mode = mode;
  options.dop = dop;
  options.operator_memory_budget = memory_budget;
  QueryExecutor exec(&catalog, options);
  return exec.Execute(plan).ValueOrDie();
}

// Rows as sorted strings: order-insensitive, null-aware, exact (parallel
// joins reorder rows but must not alter any value).
std::vector<std::string> SortedRowStrings(const QueryResult& result) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < result.data.num_rows(); ++i) {
    rows.push_back(result.data.GetRow(i));
  }
  SortRows(&rows);
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const std::vector<Value>& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.is_null() ? "<null>" : v.ToString();
      s += "|";
    }
    out.push_back(std::move(s));
  }
  return out;
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

TEST(ParallelJoinTest, InnerJoinMatchesSerial) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kInner);
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  QueryResult parallel = RunQuery(f.catalog, plan, 4);

  EXPECT_EQ(serial.rows_returned, 10000);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
  // The join region really went through the exchange.
  EXPECT_NE(FindNode(parallel.profile, "Exchange(HashJoin)"), nullptr);
  EXPECT_EQ(FindNode(serial.profile, "Exchange(HashJoin)"), nullptr);
}

TEST(ParallelJoinTest, LeftOuterJoinMatchesSerial) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kLeftOuter);
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  QueryResult parallel = RunQuery(f.catalog, plan, 4);

  EXPECT_EQ(serial.rows_returned, 20000);  // 10000 matched + 10000 extended
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
}

TEST(ParallelJoinTest, SemiAndAntiJoinsMatchSerial) {
  JoinFixture f;
  for (JoinType type : {JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    PlanPtr plan = JoinPlan(f.catalog, type);
    QueryResult serial = RunQuery(f.catalog, plan, 1);
    QueryResult parallel = RunQuery(f.catalog, plan, 4);
    EXPECT_EQ(serial.rows_returned, 10000) << JoinTypeName(type);
    EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial))
        << JoinTypeName(type);
  }
}

TEST(ParallelJoinTest, InnerJoinWithSpillMatchesSerial) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kInner);
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  // A tiny budget forces most build partitions (and their probe rows) to
  // disk; the last probe fragment drains the partition pairs.
  QueryResult parallel = RunQuery(f.catalog, plan, 4, /*memory_budget=*/32 * 1024);

  EXPECT_GT(parallel.stats.spill_partitions, 0);
  EXPECT_GT(parallel.stats.probe_rows_spilled, 0);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
}

TEST(ParallelJoinTest, LeftOuterJoinWithSpillMatchesSerial) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kLeftOuter);
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  QueryResult parallel = RunQuery(f.catalog, plan, 4, /*memory_budget=*/32 * 1024);

  EXPECT_GT(parallel.stats.spill_partitions, 0);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
}

TEST(ParallelJoinTest, JoinThenAggregateParallelizesAsOneFragmentTree) {
  JoinFixture f;
  PlanBuilder dim = PlanBuilder::Scan(f.catalog, "dim");
  dim.Select({"id"});
  PlanBuilder renamed = PlanBuilder::From(dim.Build());
  renamed.Project({expr::Column(renamed.schema(), "id")}, {"did"});
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "fact");
  b.Join(JoinType::kInner, renamed.Build(), {"id"}, {"did"});
  b.Aggregate({"bucket"},
              {{AggFn::kCountStar, "", "cnt"}, {AggFn::kSum, "id", "total"}});
  PlanPtr plan = b.Build();

  QueryResult serial = RunQuery(f.catalog, plan, 1);
  QueryResult parallel = RunQuery(f.catalog, plan, 4);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));

  // One exchange runs scan -> probe -> partial agg per fragment: the probe
  // operator must sit under the exchange, with no second exchange below.
  const OperatorProfile* exchange = FindNode(parallel.profile, "Exchange");
  ASSERT_NE(exchange, nullptr);
  const OperatorProfile* probe = FindNode(*exchange, "HashJoinProbe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(FindNode(*probe, "Exchange"), nullptr);
  ASSERT_FALSE(exchange->children.empty());
  EXPECT_EQ(exchange->children[0].fragments, 4);
}

TEST(ParallelJoinTest, ExplainAnalyzeShowsPerFragmentBuildCounters) {
  JoinFixture f;
  PlanPtr plan = JoinPlan(f.catalog, JoinType::kInner);
  QueryResult parallel = RunQuery(f.catalog, plan, 4);

  const OperatorProfile* probe = FindNode(parallel.profile, "HashJoinProbe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->Counter("probe_rows"), 20000);
  EXPECT_EQ(probe->Counter("build_rows"), 10000);
  int64_t build_fragments = probe->Counter("build_fragments");
  EXPECT_GE(build_fragments, 2);  // dim has 10 row groups, dop is 4
  // Per-fragment build row counters are present and sum to the total.
  int64_t per_fragment_sum = 0;
  for (int64_t frag = 0; frag < build_fragments; ++frag) {
    int64_t rows =
        probe->Counter("build_rows_f" + std::to_string(frag), /*fallback=*/-1);
    EXPECT_GE(rows, 0) << "missing build_rows_f" << frag;
    per_fragment_sum += rows;
  }
  EXPECT_EQ(per_fragment_sum, 10000);
  // Timing counters for the shared build phases exist.
  EXPECT_GE(probe->Counter("build_ns", -1), 0);
  EXPECT_GE(probe->Counter("table_build_ns", -1), 0);
  EXPECT_GE(probe->Counter("build_lock_wait_ns", -1), 0);

  // The serial join reports its build under the same timer names, so a
  // dop-1 and a dop-4 build compare directly.
  QueryResult serial = RunQuery(f.catalog, plan, 1);
  const OperatorProfile* join = FindNode(serial.profile, "HashJoin(");
  ASSERT_NE(join, nullptr);
  EXPECT_GE(join->Counter("build_ns", -1), 0);
  EXPECT_GE(join->Counter("table_build_ns", -1), 0);
}

// One 65,536-row group per table: row-group striping ran this serially,
// morsels split it four ways on both sides of the join. The results match
// dop 1 and the row engine.
TEST(ParallelJoinTest, OneRowGroupSplitsIntoMorselsOnBothSides) {
  Catalog catalog;
  for (const auto& [name, seed] :
       {std::pair<std::string, uint64_t>{"fact", 42}, {"dim", 7}}) {
    TableData data = MakeTestTable(65536, seed);
    ColumnStoreTable::Options options;
    options.row_group_size = 65536;
    options.min_compress_rows = 10;
    auto cs = std::make_unique<ColumnStoreTable>(name, data.schema(), options);
    cs->BulkLoad(data).CheckOK();
    ASSERT_EQ(cs->Snapshot()->num_row_groups(), 1);
    catalog.AddColumnStore(std::move(cs)).CheckOK();
  }
  PlanBuilder dim = PlanBuilder::Scan(catalog, "dim");
  dim.Select({"id"});
  PlanBuilder renamed = PlanBuilder::From(dim.Build());
  renamed.Project({expr::Column(renamed.schema(), "id")}, {"did"});
  PlanBuilder b = PlanBuilder::Scan(catalog, "fact");
  b.Join(JoinType::kInner, renamed.Build(), {"id"}, {"did"});
  b.Aggregate({"bucket"},
              {{AggFn::kCountStar, "", "cnt"}, {AggFn::kSum, "id", "total"}});
  PlanPtr plan = b.Build();

  QueryResult serial = RunQuery(catalog, plan, 1);
  QueryResult parallel = RunQuery(catalog, plan, 4);
  QueryResult row =
      RunQuery(catalog, plan, 1, /*memory_budget=*/0, ExecutionMode::kRow);
  EXPECT_EQ(SortedRowStrings(parallel), SortedRowStrings(serial));
  EXPECT_EQ(SortedRowStrings(row), SortedRowStrings(serial));

  const OperatorProfile* exchange = FindNode(parallel.profile, "Exchange");
  ASSERT_NE(exchange, nullptr);
  EXPECT_EQ(exchange->Counter("degree"), 4);
  const OperatorProfile* probe = FindNode(parallel.profile, "HashJoinProbe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->Counter("build_fragments"), 4);
  EXPECT_EQ(probe->Counter("build_rows"), 65536);
}

// --- NULL keys, two-column keys, sparse build batches ----------------------

// Nullable join keys with duplicates: about one k in nine and one tag in
// eleven is NULL; `val` (never NULL) drives a filter below the build; `x`
// cycles through NaN, -0.0, +0.0, 2.5 and NULL (every row group holds a
// NaN, so the column is stored as raw bits and -0.0 survives).
// Column names are `prefix` + k/tag/val/x, so the two sides of a join need
// no renaming Project (which would compact the build's batches).
TableData NullableKeyTable(const std::string& prefix, int64_t rows,
                           int64_t key_range, uint64_t seed) {
  Schema schema({{prefix + "k", DataType::kInt64, true},
                 {prefix + "tag", DataType::kString, true},
                 {prefix + "val", DataType::kInt64, false},
                 {prefix + "x", DataType::kDouble, true}});
  const double xs[] = {std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0,
                       2.5};
  TableData data(schema);
  Random rng(seed);
  const char* tags[] = {"red", "green", "blue"};
  for (int64_t i = 0; i < rows; ++i) {
    if (rng.Uniform(0, 8) == 0) {
      data.column(0).AppendNull();
    } else {
      data.column(0).AppendInt64(rng.Uniform(0, key_range));
    }
    if (rng.Uniform(0, 10) == 0) {
      data.column(1).AppendNull();
    } else {
      data.column(1).AppendString(tags[rng.Uniform(0, 2)]);
    }
    data.column(2).AppendInt64(rng.Uniform(0, 99));
    if (i % 5 == 4) {
      data.column(3).AppendNull();
    } else {
      data.column(3).AppendDouble(xs[i % 5]);
    }
  }
  return data;
}

struct NullKeyFixture {
  Catalog catalog;
  TableData dim_data = NullableKeyTable("d", 8000, 4999, /*seed=*/11);

  NullKeyFixture() {
    Add("nfact", NullableKeyTable("", 20000, 3999, /*seed=*/12));
    Add("ndim", dim_data);
  }

  void Add(const std::string& name, const TableData& data) {
    ColumnStoreTable::Options options;
    options.row_group_size = 1000;
    options.min_compress_rows = 10;
    auto cs = std::make_unique<ColumnStoreTable>(name, data.schema(), options);
    cs->BulkLoad(data).CheckOK();
    cs->CompressDeltaStores(true).status().CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
  }
};

enum class KeyShape { kInt, kIntString, kIntStringFiltered, kIntDouble };

const char* KeyShapeName(KeyShape shape) {
  switch (shape) {
    case KeyShape::kInt:
      return "int64";
    case KeyShape::kIntString:
      return "int64+string";
    case KeyShape::kIntStringFiltered:
      return "int64+string over filtered build";
    case KeyShape::kIntDouble:
      return "int64+double";
  }
  return "?";
}

// nfact (k, tag, val) joined to ndim (dk, dtag, dval). The filtered shape
// drops ~40% of the build rows in place, so build batches arrive with
// sparse active masks.
PlanPtr NullKeyJoinPlan(const Catalog& catalog, JoinType type,
                        KeyShape shape) {
  PlanBuilder dim = PlanBuilder::Scan(catalog, "ndim");
  if (shape == KeyShape::kIntStringFiltered) {
    dim.Filter(expr::Ge(expr::Column(dim.schema(), "dval"),
                        expr::Lit(Value::Int64(40))));
  }
  PlanBuilder b = PlanBuilder::Scan(catalog, "nfact");
  if (shape == KeyShape::kInt) {
    b.Join(type, dim.Build(), {"k"}, {"dk"});
  } else if (shape == KeyShape::kIntDouble) {
    // Double keys join by bit pattern in every engine: NaN joins NaN,
    // -0.0 does not join +0.0.
    b.Join(type, dim.Build(), {"k", "x"}, {"dk", "dx"});
  } else {
    b.Join(type, dim.Build(), {"k", "tag"}, {"dk", "dtag"});
  }
  return b.Build();
}

TEST(ParallelJoinTest, NullAndCompositeKeysMatchSerialAndRowMode) {
  NullKeyFixture f;
  const int64_t kBudget = 16 * 1024;
  for (KeyShape shape : {KeyShape::kInt, KeyShape::kIntString,
                         KeyShape::kIntStringFiltered, KeyShape::kIntDouble}) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                          JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      PlanPtr plan = NullKeyJoinPlan(f.catalog, type, shape);
      const std::string label =
          std::string(KeyShapeName(shape)) + " " + JoinTypeName(type);
      std::vector<std::string> serial =
          SortedRowStrings(RunQuery(f.catalog, plan, 1));
      ASSERT_FALSE(serial.empty()) << label;
      if (shape == KeyShape::kIntDouble && type == JoinType::kInner) {
        EXPECT_TRUE(std::any_of(serial.begin(), serial.end(),
                                [](const std::string& row) {
                                  return row.find("|nan|") != std::string::npos;
                                }))
            << "NaN keys must join";
      }
      EXPECT_EQ(SortedRowStrings(RunQuery(f.catalog, plan, 1, 0,
                                          ExecutionMode::kRow)),
                serial)
          << label << " row mode";
      for (int dop : {1, 4}) {
        EXPECT_EQ(SortedRowStrings(RunQuery(f.catalog, plan, dop)), serial)
            << label << " dop " << dop;
        QueryResult spilled = RunQuery(f.catalog, plan, dop, kBudget);
        EXPECT_GT(spilled.stats.spill_partitions, 0)
            << label << " dop " << dop;
        EXPECT_EQ(SortedRowStrings(spilled), serial)
            << label << " dop " << dop << " spilled";
      }
    }
  }
}

TEST(ParallelJoinTest, NullBuildKeysAreDroppedAtBuild) {
  NullKeyFixture f;
  int64_t non_null = 0;
  for (int64_t i = 0; i < f.dim_data.num_rows(); ++i) {
    non_null += f.dim_data.column(0).GetValue(i).is_null() ? 0 : 1;
  }
  ASSERT_LT(non_null, f.dim_data.num_rows());
  PlanPtr plan = NullKeyJoinPlan(f.catalog, JoinType::kInner, KeyShape::kInt);

  QueryResult serial = RunQuery(f.catalog, plan, 1);
  const OperatorProfile* serial_join = FindNode(serial.profile, "HashJoin(");
  ASSERT_NE(serial_join, nullptr);
  EXPECT_EQ(serial_join->Counter("build_rows"), non_null);

  QueryResult parallel = RunQuery(f.catalog, plan, 4);
  const OperatorProfile* probe = FindNode(parallel.profile, "HashJoinProbe");
  ASSERT_NE(probe, nullptr);
  EXPECT_GE(probe->Counter("build_fragments"), 2);
  EXPECT_EQ(probe->Counter("build_rows"), non_null);
}

// --- Fragment contexts ------------------------------------------------------

void CollectExprNodes(const OperatorProfile& node,
                      std::vector<const OperatorProfile*>* out) {
  if (node.name == "Filter" || node.name == "Project") out->push_back(&node);
  for (const OperatorProfile& child : node.children) {
    CollectExprNodes(child, out);
  }
}

// Build fragments inherit the query's settings: with compilation off, no
// Filter or Project of a dop-4 join runs compiled, on the build side either.
TEST(ParallelJoinTest, BuildFragmentsKeepCompileSetting) {
  JoinFixture f;
  QueryOptions options;
  options.mode = ExecutionMode::kBatch;
  options.dop = 4;
  options.compile_expressions = false;
  QueryExecutor exec(&f.catalog, options);
  QueryResult result =
      exec.Execute(JoinPlan(f.catalog, JoinType::kInner)).ValueOrDie();
  EXPECT_EQ(result.rows_returned, 10000);

  const OperatorProfile* probe = FindNode(result.profile, "HashJoinProbe");
  ASSERT_NE(probe, nullptr);
  ASSERT_GE(probe->Counter("build_fragments"), 2);
  std::vector<const OperatorProfile*> build_exprs;
  ASSERT_EQ(probe->children.size(), 2u);
  CollectExprNodes(probe->children[1], &build_exprs);
  ASSERT_FALSE(build_exprs.empty());
  std::vector<const OperatorProfile*> all_exprs;
  CollectExprNodes(result.profile, &all_exprs);
  for (const OperatorProfile* node : all_exprs) {
    EXPECT_EQ(node->Counter("compiled", -1), 0) << node->name;
  }
}

// Build-side scans bump the query's live progress counter like probe-side
// ones: sys.active_queries' rows_scanned ends equal to the profile's.
TEST(ParallelJoinTest, BuildFragmentsReportLiveRowsScanned) {
  JoinFixture f;
  ActiveQuery active;
  ExecContext ctx;
  ctx.active_query = &active;
  PhysicalPlanOptions options;
  options.mode = ExecutionMode::kBatch;
  options.dop = 4;
  PhysicalPlan physical =
      CreatePhysicalPlan(f.catalog, JoinPlan(f.catalog, JoinType::kInner),
                         &ctx, options)
          .ValueOrDie();
  int64_t rows = testing_util::DrainOperator(physical.root.get()).size();
  EXPECT_EQ(rows, 10000);
  OperatorProfile profile = physical.root->BuildProfile();

  const OperatorProfile* probe = FindNode(profile, "HashJoinProbe");
  ASSERT_NE(probe, nullptr);
  ASSERT_GE(probe->Counter("build_fragments"), 2);
  // Both tables are scanned in full: fact by the probe, dim by the build.
  EXPECT_EQ(profile.CounterDeep("rows_scanned"), 30000);
  EXPECT_EQ(active.rows_scanned.load(), profile.CounterDeep("rows_scanned"));
}

}  // namespace
}  // namespace vstore
