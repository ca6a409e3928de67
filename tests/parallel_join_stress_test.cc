// ThreadSanitizer-targeted stress test for the parallel hash join: runs
// shared-build joins at dop 4-6 repeatedly — resident and spilling — and
// checks the merged stats and profile counters come out identical on every
// run. Build with -DVSTORE_SANITIZE=thread to let TSan watch the shared
// build inserts, Bloom merges, and spill coordination — driven by the
// operator budget and by query-level memory pressure, which every build
// thread polls once per batch; the ctest label "stress" lets CI schedule
// it separately.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

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

  StressFixture() {
    AddTable("fact", 12000, /*seed=*/42);
    AddTable("dim", 6000, /*seed=*/7);
  }

  void AddTable(const std::string& name, int64_t rows, uint64_t seed) {
    TableData data = MakeTestTable(rows, seed);
    ColumnStoreTable::Options options;
    options.row_group_size = 500;  // many groups, contended partitions
    options.min_compress_rows = 10;
    auto cs = std::make_unique<ColumnStoreTable>(name, data.schema(), options);
    cs->BulkLoad(data).CheckOK();
    cs->CompressDeltaStores(true).status().CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
  }
};

PlanPtr JoinPlan(const Catalog& catalog) {
  PlanBuilder dim = PlanBuilder::Scan(catalog, "dim");
  dim.Select({"id", "bucket"});
  PlanBuilder renamed = PlanBuilder::From(dim.Build());
  renamed.Project({expr::Column(renamed.schema(), "id"),
                   expr::Column(renamed.schema(), "bucket")},
                  {"did", "dbucket"});
  PlanBuilder b = PlanBuilder::Scan(catalog, "fact");
  b.Join(JoinType::kInner, renamed.Build(), {"id"}, {"did"});
  return b.Build();
}

QueryResult RunQuery(const Catalog& catalog, const PlanPtr& plan, int dop,
                int64_t memory_budget = 0, int64_t query_budget = 0) {
  QueryOptions options;
  options.mode = ExecutionMode::kBatch;
  options.dop = dop;
  options.operator_memory_budget = memory_budget;
  options.query_memory_budget = query_budget;
  QueryExecutor exec(&catalog, options);
  return exec.Execute(plan).ValueOrDie();
}

TEST(ParallelJoinStressTest, RepeatedParallelJoinIsRaceFreeAndExact) {
  StressFixture f;
  PlanPtr plan = JoinPlan(f.catalog);
  QueryResult baseline = RunQuery(f.catalog, plan, 1);
  ASSERT_EQ(baseline.rows_returned, 6000);

  const int repeats = Repeats();
  for (int r = 0; r < repeats; ++r) {
    int dop = 4 + (r % 3);  // 4..6
    QueryResult result = RunQuery(f.catalog, plan, dop);
    ASSERT_EQ(result.rows_returned, baseline.rows_returned)
        << "dop " << dop << " run " << r;
    // Shared-build inserts and profile merges are exact and
    // order-independent: totals must be identical on every run.
    ASSERT_EQ(result.stats.rows_scanned, baseline.stats.rows_scanned)
        << "run " << r;
    ASSERT_EQ(result.profile.CounterDeep("build_rows"),
              baseline.profile.CounterDeep("build_rows"))
        << "run " << r;
    ASSERT_EQ(result.profile.CounterDeep("probe_rows"),
              baseline.profile.CounterDeep("probe_rows"))
        << "run " << r;
  }
}

TEST(ParallelJoinStressTest, RepeatedSpillingParallelJoinIsRaceFreeAndExact) {
  StressFixture f;
  PlanPtr plan = JoinPlan(f.catalog);
  QueryResult baseline = RunQuery(f.catalog, plan, 1);

  const int repeats = Repeats();
  for (int r = 0; r < repeats; ++r) {
    int dop = 4 + (r % 3);
    // A tiny budget keeps the spill path (coordinated partition flush,
    // shared probe spill files, single-threaded drain) under TSan too.
    QueryResult result = RunQuery(f.catalog, plan, dop, /*memory_budget=*/16 * 1024);
    ASSERT_GT(result.stats.spill_partitions, 0) << "run " << r;
    ASSERT_EQ(result.rows_returned, baseline.rows_returned)
        << "dop " << dop << " run " << r;
    ASSERT_EQ(result.profile.CounterDeep("build_rows"),
              baseline.profile.CounterDeep("build_rows"))
        << "run " << r;
  }
}

TEST(ParallelJoinStressTest, RepeatedQueryBudgetParallelJoinIsRaceFreeAndExact) {
  StressFixture f;
  PlanPtr plan = JoinPlan(f.catalog);
  QueryResult baseline = RunQuery(f.catalog, plan, 1);

  const int repeats = Repeats();
  for (int r = 0; r < repeats; ++r) {
    int dop = 4 + (r % 3);
    // No operator budget: spilling is driven only by the query tracker's
    // budget-crossing edge and over_budget() polls, which the build
    // threads consume concurrently at their batch boundaries.
    QueryResult result = RunQuery(f.catalog, plan, dop, /*memory_budget=*/0,
                                  /*query_budget=*/32 * 1024);
    ASSERT_GT(result.stats.spill_partitions, 0) << "run " << r;
    ASSERT_GT(result.spill_bytes, 0) << "run " << r;
    ASSERT_EQ(result.rows_returned, baseline.rows_returned)
        << "dop " << dop << " run " << r;
    ASSERT_EQ(result.profile.CounterDeep("build_rows"),
              baseline.profile.CounterDeep("build_rows"))
        << "run " << r;
  }
}

}  // namespace
}  // namespace vstore
