// Tests for the per-operator profiling layer (EXPLAIN ANALYZE): profile
// tree shape, per-operator counters (segment elimination, bloom drops,
// spilling), renderers, and deterministic fragment merging under Exchange.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "query/executor.h"
#include "test_operators.h"

namespace vstore {
namespace {

using testing_util::MakeTestTable;

struct ProfileFixture {
  Catalog catalog;

  explicit ProfileFixture(int64_t rows = 20000) {
    TableData data = MakeTestTable(rows);
    ColumnStoreTable::Options options;
    options.row_group_size = 1000;  // 20 groups: elimination has targets
    options.min_compress_rows = 10;
    auto cs = std::make_unique<ColumnStoreTable>("t", data.schema(), options);
    cs->BulkLoad(data).CheckOK();
    cs->CompressDeltaStores(true).status().CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
    auto rs = std::make_unique<RowStoreTable>("t", data.schema());
    rs->Append(data).CheckOK();
    catalog.AddRowStore(std::move(rs)).CheckOK();
  }
};

const OperatorProfile* FindNode(const OperatorProfile& node,
                                const std::string& prefix) {
  if (node.name.rfind(prefix, 0) == 0) return &node;
  for (const OperatorProfile& child : node.children) {
    const OperatorProfile* found = FindNode(child, prefix);
    if (found != nullptr) return found;
  }
  return nullptr;
}

int CountNodes(const OperatorProfile& node) {
  int n = 1;
  for (const OperatorProfile& child : node.children) n += CountNodes(child);
  return n;
}

QueryResult RunQuery(const Catalog& catalog, const PlanPtr& plan,
                QueryOptions options = QueryOptions()) {
  QueryExecutor exec(&catalog, options);
  auto result = exec.Execute(plan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(ProfileTest, TreeMirrorsPlanAndCountsRows) {
  ProfileFixture f;
  // id is loaded in order, so a range filter gets pushed into the scan and
  // eliminates row groups via min/max metadata.
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Filter(expr::Lt(expr::Column(b.schema(), "id"),
                    expr::Lit(Value::Int64(3000))));
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"}});
  QueryResult result = RunQuery(f.catalog, b.Build());

  // Root of the profile is the plan root (aggregate over 10 buckets).
  const OperatorProfile* agg = FindNode(result.profile, "HashAggregate");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(result.profile.name, agg->name);
  EXPECT_EQ(agg->rows_produced, result.rows_returned);
  EXPECT_EQ(agg->Counter("rows_aggregated"), 3000);
  EXPECT_EQ(agg->Counter("groups"), 10);

  const OperatorProfile* scan = FindNode(result.profile, "ColumnStoreScan");
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->name, "ColumnStoreScan(t)");
  // Pushed range predicate: only the 3 groups holding id < 3000 survive.
  EXPECT_EQ(scan->Counter("groups_scanned"), 3);
  EXPECT_EQ(scan->Counter("groups_eliminated"), 17);
  EXPECT_EQ(scan->Counter("rows_scanned"), 3000);
  EXPECT_GT(scan->next_ns, 0);

  // The query-global stats and the profile tree tell the same story.
  EXPECT_EQ(result.stats.row_groups_eliminated,
            result.profile.CounterDeep("groups_eliminated"));
  EXPECT_EQ(result.stats.rows_scanned,
            result.profile.CounterDeep("rows_scanned"));
}

TEST(ProfileTest, BloomFilterDropsAreCounted) {
  ProfileFixture f;
  // Selective build side: join t against its own first 100 ids. With bloom
  // pushdown the probe scan drops almost everything before the join.
  PlanBuilder build = PlanBuilder::Scan(f.catalog, "t");
  build.Filter(expr::Lt(expr::Column(build.schema(), "id"),
                        expr::Lit(Value::Int64(100))));
  build.Select({"id"});
  PlanBuilder probe = PlanBuilder::Scan(f.catalog, "t");
  probe.Join(JoinType::kInner, build.Build(), {"id"}, {"id"});
  QueryResult result = RunQuery(f.catalog, probe.Build());
  EXPECT_EQ(result.rows_returned, 100);

  const OperatorProfile* join = FindNode(result.profile, "HashJoin");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->Counter("build_rows"), 100);
  EXPECT_EQ(join->Counter("bloom_published"), 1);

  // The probe-side scan carries the bloom drop counter. Both scans read
  // "t"; find the probe one through the join's first profile child.
  ASSERT_GE(join->children.size(), 1u);
  const OperatorProfile* probe_scan =
      FindNode(join->children[0], "ColumnStoreScan");
  ASSERT_NE(probe_scan, nullptr);
  // Bloom false positives make the exact count probabilistic, but nearly
  // all of the 20000-100 non-matching rows must be dropped at the scan.
  EXPECT_GT(probe_scan->Counter("bloom_rows_dropped"), 19000);
  EXPECT_EQ(result.stats.rows_bloom_filtered,
            result.profile.CounterDeep("bloom_rows_dropped"));
  // And the join then saw only what survived the bloom.
  EXPECT_LT(join->Counter("probe_rows"), 1000);
}

TEST(ProfileTest, SpillCountersUnderTinyBudget) {
  ProfileFixture f;
  PlanBuilder build = PlanBuilder::Scan(f.catalog, "t");
  build.Select({"id", "amount"});
  PlanBuilder probe = PlanBuilder::Scan(f.catalog, "t");
  probe.Join(JoinType::kInner, build.Build(), {"id"}, {"id"});

  QueryOptions options;
  options.operator_memory_budget = 64 * 1024;  // force grace-join spilling
  options.optimizer.bloom_filters = false;     // keep the probe side full
  QueryResult result = RunQuery(f.catalog, probe.Build(), options);
  EXPECT_EQ(result.rows_returned, 20000);

  const OperatorProfile* join = FindNode(result.profile, "HashJoin");
  ASSERT_NE(join, nullptr);
  EXPECT_GT(join->Counter("spill_partitions"), 0);
  EXPECT_GT(join->Counter("build_rows_spilled"), 0);
  EXPECT_GT(join->Counter("probe_rows_spilled"), 0);
  EXPECT_EQ(join->Counter("build_rows_spilled"),
            result.stats.build_rows_spilled);
  EXPECT_EQ(join->Counter("probe_rows_spilled"),
            result.stats.probe_rows_spilled);
  // The budget capped the in-memory build: peak stays in the same order.
  EXPECT_GT(join->peak_memory_bytes, 0);
  EXPECT_LT(join->peak_memory_bytes, 64 * 64 * 1024);

  // Aggregation spills too.
  PlanBuilder agg = PlanBuilder::Scan(f.catalog, "t");
  agg.Aggregate({"id"}, {{AggFn::kCountStar, "", "cnt"}});
  QueryResult agg_result = RunQuery(f.catalog, agg.Build(), options);
  EXPECT_EQ(agg_result.rows_returned, 20000);
  const OperatorProfile* hash_agg =
      FindNode(agg_result.profile, "HashAggregate");
  ASSERT_NE(hash_agg, nullptr);
  EXPECT_GT(hash_agg->Counter("spill_flushes"), 0);
  EXPECT_GT(hash_agg->Counter("rows_spilled"), 0);
  EXPECT_EQ(hash_agg->Counter("rows_aggregated"), 20000);
}

TEST(ProfileTest, ExchangeFragmentProfilesSumToSingleThreadedRun) {
  ProfileFixture f;
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Filter(expr::Lt(expr::Column(b.schema(), "id"),
                    expr::Lit(Value::Int64(15000))));
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                           {AggFn::kSum, "id", "total"}});
  PlanPtr plan = b.Build();

  QueryOptions serial;
  serial.mode = ExecutionMode::kBatch;
  QueryResult one = RunQuery(f.catalog, plan, serial);

  QueryOptions parallel = serial;
  parallel.dop = 4;
  QueryResult four = RunQuery(f.catalog, plan, parallel);
  EXPECT_EQ(one.rows_returned, four.rows_returned);

  const OperatorProfile* exchange = FindNode(four.profile, "Exchange");
  ASSERT_NE(exchange, nullptr);
  ASSERT_EQ(exchange->children.size(), 1u);
  const OperatorProfile& fragments = exchange->children[0];
  EXPECT_EQ(fragments.fragments, 4);

  // Row-exact counters sum across fragments to the single-threaded values.
  EXPECT_EQ(four.profile.CounterDeep("rows_scanned"),
            one.profile.CounterDeep("rows_scanned"));
  EXPECT_EQ(four.profile.CounterDeep("groups_scanned") +
                four.profile.CounterDeep("groups_eliminated"),
            one.profile.CounterDeep("groups_scanned") +
                one.profile.CounterDeep("groups_eliminated"));
  // The fragments' partial aggregates together folded exactly the rows the
  // single-threaded complete aggregate folded (the final aggregate above
  // the exchange folds partials, so compare at the fragment subtree).
  EXPECT_EQ(fragments.CounterDeep("rows_aggregated"),
            one.profile.CounterDeep("rows_aggregated"));
  // The merged fragment subtree also matches the fragment count recorded
  // in the exchange's own counters.
  EXPECT_EQ(exchange->Counter("degree"), 4);
  // Exchange rows in == rows the merged fragment subtree produced.
  EXPECT_EQ(exchange->Counter("rows_exchanged"), fragments.rows_produced);
}

TEST(ProfileTest, ExchangeReportsFragmentWallTimeBounds) {
  ProfileFixture f;
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"}});
  QueryOptions parallel;
  parallel.mode = ExecutionMode::kBatch;
  parallel.dop = 4;
  QueryResult four = RunQuery(f.catalog, b.Build(), parallel);

  const OperatorProfile* exchange = FindNode(four.profile, "Exchange");
  ASSERT_NE(exchange, nullptr);
  const int64_t min_ns = exchange->Counter("fragment_ns_min", -1);
  const int64_t max_ns = exchange->Counter("fragment_ns_max", -1);
  EXPECT_GT(min_ns, 0);
  EXPECT_LE(min_ns, max_ns);
  // The existing counters keep their names next to the new ones.
  EXPECT_EQ(exchange->Counter("degree"), 4);
  ASSERT_FALSE(exchange->children.empty());
  EXPECT_EQ(exchange->Counter("rows_exchanged"),
            exchange->children[0].rows_produced);
}

// Row groups larger than a morsel, one of them eliminated: however the
// fragments share a group's morsels, each group is counted once, so the
// dop-4 counters equal the dop-1 counters exactly.
TEST(ProfileTest, MorselGroupCountersMatchSerialUnderElimination) {
  Catalog catalog;
  TableData data = MakeTestTable(120000);
  ColumnStoreTable::Options options;
  options.row_group_size = 40000;  // several morsels per group
  options.min_compress_rows = 10;
  auto cs = std::make_unique<ColumnStoreTable>("t", data.schema(), options);
  cs->BulkLoad(data).CheckOK();
  catalog.AddColumnStore(std::move(cs)).CheckOK();

  PlanBuilder b = PlanBuilder::Scan(catalog, "t");
  b.Filter(expr::Ge(expr::Column(b.schema(), "id"),
                    expr::Lit(Value::Int64(50000))));
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                           {AggFn::kSum, "id", "total"}});
  PlanPtr plan = b.Build();
  QueryOptions serial;
  serial.mode = ExecutionMode::kBatch;
  QueryResult one = RunQuery(catalog, plan, serial);
  QueryOptions parallel = serial;
  parallel.dop = 4;
  QueryResult four = RunQuery(catalog, plan, parallel);

  // Three groups, so the degree of 4 comes from sub-group morsels.
  const OperatorProfile* exchange = FindNode(four.profile, "Exchange");
  ASSERT_NE(exchange, nullptr);
  EXPECT_EQ(exchange->Counter("degree"), 4);
  EXPECT_EQ(one.profile.CounterDeep("groups_scanned"), 2);
  EXPECT_EQ(one.profile.CounterDeep("groups_eliminated"), 1);
  EXPECT_EQ(four.profile.CounterDeep("groups_scanned"), 2);
  EXPECT_EQ(four.profile.CounterDeep("groups_eliminated"), 1);
  EXPECT_EQ(four.stats.row_groups_scanned, one.stats.row_groups_scanned);
  EXPECT_EQ(four.stats.row_groups_eliminated,
            one.stats.row_groups_eliminated);
  EXPECT_EQ(four.profile.CounterDeep("rows_scanned"),
            one.profile.CounterDeep("rows_scanned"));
  std::vector<std::vector<Value>> rows_one, rows_four;
  for (int64_t i = 0; i < one.data.num_rows(); ++i) {
    rows_one.push_back(one.data.GetRow(i));
  }
  for (int64_t i = 0; i < four.data.num_rows(); ++i) {
    rows_four.push_back(four.data.GetRow(i));
  }
  testing_util::SortRows(&rows_one);
  testing_util::SortRows(&rows_four);
  EXPECT_EQ(rows_one, rows_four);
}

TEST(ProfileTest, RenderersProduceWellFormedOutput) {
  ProfileFixture f;
  PlanBuilder build = PlanBuilder::Scan(f.catalog, "t");
  build.Filter(expr::Lt(expr::Column(build.schema(), "id"),
                        expr::Lit(Value::Int64(5000))));
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Join(JoinType::kInner, build.Build(), {"id"}, {"id"});
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"}});
  QueryResult result = RunQuery(f.catalog, b.Build());

  std::string text = FormatProfile(result.profile);
  EXPECT_NE(text.find("operator"), std::string::npos);
  EXPECT_NE(text.find("HashAggregate"), std::string::npos);
  EXPECT_NE(text.find("HashJoin(Inner)"), std::string::npos);
  EXPECT_NE(text.find("ColumnStoreScan(t)"), std::string::npos);
  EXPECT_NE(text.find("rows_scanned="), std::string::npos);

  std::string json = ProfileToJson(result.profile);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"HashAggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  // Balanced braces/brackets (no string in the tree contains either).
  int depth = 0;
  for (char ch : json) {
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // The profile tree has one node per physical operator: at least the
  // aggregate, the join, and the two scans (the build-side filter may be
  // folded into its scan by predicate pushdown).
  EXPECT_GE(CountNodes(result.profile), 4);
}

TEST(ProfileTest, JsonRendererEscapesHostileStrings) {
  // Regression: operator and counter names flow into JSON verbatim — a
  // quote, backslash or control character in either must be escaped, not
  // splice into the structure. (Scan nodes embed user table names.)
  OperatorProfile profile;
  profile.name = "Scan(\"we\\ird\ntable\x01\")";
  profile.counters.push_back({"rows \"quoted\"", 7});
  OperatorProfile child;
  child.name = "Filter\t(tab)";
  profile.children.push_back(child);

  std::string json = ProfileToJson(profile);
  // Structurally valid: every brace/bracket outside a string balances,
  // and every string terminates.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0) << json;
  }
  EXPECT_EQ(depth, 0) << json;
  EXPECT_FALSE(in_string) << json;

  // The hostile characters came out escaped.
  EXPECT_NE(json.find("Scan(\\\"we\\\\ird\\ntable\\u0001\\\")"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rows \\\"quoted\\\"\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("Filter\\t(tab)"), std::string::npos) << json;
  // No raw control bytes survive.
  for (char ch : json) {
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
  }
}

TEST(ProfileTest, ReopenResetsProfile) {
  ProfileFixture f(2000);
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Filter(expr::Lt(expr::Column(b.schema(), "id"),
                    expr::Lit(Value::Int64(500))));
  PlanPtr plan = b.Build();
  QueryExecutor exec(&f.catalog);
  QueryResult first = exec.Execute(plan).ValueOrDie();
  QueryResult second = exec.Execute(plan).ValueOrDie();
  // Profiles describe one execution, not a running total.
  EXPECT_EQ(first.profile.CounterDeep("rows_scanned"),
            second.profile.CounterDeep("rows_scanned"));
  EXPECT_EQ(first.profile.rows_produced, second.profile.rows_produced);
}

}  // namespace
}  // namespace vstore
