// Hierarchical memory accounting: the reconciliation invariant
// (current == local + sum(children.current) when quiescent), peak
// tracking, edge-triggered budget crossings with listener delegation to
// the budget scope, RAII reservations, storage-subtree syncing, the
// mapped class, and the sys.memory view's SUM(local) == root contract.

#include "common/memory_tracker.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/metrics.h"
#include "query/executor.h"
#include "test_operators.h"
#include "test_util.h"

namespace vstore {
namespace {

using testing_util::MakeTestTable;

TEST(MemoryTrackerTest, HierarchyInvariantHolds) {
  MemoryTracker root("root", "test", nullptr);
  MemoryTracker query("query", "test", &root);
  MemoryTracker op_a("op_a", "test", &query);
  MemoryTracker op_b("op_b", "test", &query);

  op_a.Charge(100);
  op_b.Charge(250);
  query.Charge(7);

  EXPECT_EQ(op_a.current(), 100);
  EXPECT_EQ(op_a.local(), 100);
  EXPECT_EQ(op_b.current(), 250);
  EXPECT_EQ(query.local(), 7);
  EXPECT_EQ(query.current(), 357);  // local + children
  EXPECT_EQ(root.current(), 357);
  EXPECT_EQ(root.local(), 0);

  op_a.Release(100);
  EXPECT_EQ(op_a.current(), 0);
  EXPECT_EQ(query.current(), 257);
  EXPECT_EQ(root.current(), 257);
}

TEST(MemoryTrackerTest, DestructorReturnsResidualToAncestors) {
  MemoryTracker root("root", "test", nullptr);
  {
    MemoryTracker child("child", "test", &root);
    child.Charge(4096);
    EXPECT_EQ(root.current(), 4096);
    // A leaked charge (no matching Release before destruction) must not
    // wedge the ancestors' totals.
  }
  EXPECT_EQ(root.current(), 0);
}

TEST(MemoryTrackerTest, PeakIsHighWaterMarkOfCurrent) {
  MemoryTracker root("root", "test", nullptr);
  MemoryTracker child("child", "test", &root);
  child.Charge(100);
  child.Charge(400);
  child.Release(300);
  child.Charge(50);
  EXPECT_EQ(child.current(), 250);
  EXPECT_EQ(child.peak(), 500);
  EXPECT_EQ(root.peak(), 500);
  child.ResetPeak();
  EXPECT_EQ(child.peak(), 250);
}

TEST(MemoryTrackerTest, BudgetEdgeFiresOncePerCrossing) {
  MemoryTracker root("root", "test", nullptr);
  root.SetBudget(1000);
  int fired = 0;
  int id = root.AddPressureListener([&fired] { ++fired; });

  root.Charge(600);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(root.over_budget());
  root.Charge(600);  // crosses
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(root.over_budget());
  root.Charge(600);  // already above: no re-fire
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(root.budget_exceeded_count(), 1);

  root.Release(1500);  // back under
  EXPECT_FALSE(root.over_budget());
  root.Charge(900);  // second excursion: fires again
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(root.budget_exceeded_count(), 2);

  root.RemovePressureListener(id);
  root.Release(root.current());
  root.Charge(2000);
  EXPECT_EQ(fired, 2);  // removed listener stays silent
}

TEST(MemoryTrackerTest, OverBudgetIsVisibleFromDescendants) {
  MemoryTracker query("query", "test", nullptr);
  MemoryTracker fragment("fragment", "test", &query);
  MemoryTracker op("op", "test", &fragment);
  query.SetBudget(100);
  op.Charge(500);
  // The operator has no budget of its own but observes the query's.
  EXPECT_TRUE(op.over_budget());
  EXPECT_TRUE(fragment.over_budget());
  op.Release(500);
  EXPECT_FALSE(op.over_budget());
}

TEST(MemoryTrackerTest, ListenersDelegateToBudgetScope) {
  MemoryTracker query("query", "test", nullptr);
  MemoryTracker fragment("fragment", "test", &query);
  MemoryTracker op("op", "test", &fragment);
  query.SetBudget(100);
  ASSERT_EQ(op.BudgetScope(), &query);

  // Registered on the operator, but the crossing fires at the query node
  // (the budget scope) — the listener must still hear it.
  int fired = 0;
  int id = op.AddPressureListener([&fired] { ++fired; });
  op.Charge(500);
  EXPECT_EQ(fired, 1);
  op.RemovePressureListener(id);
  op.Release(500);
  op.Charge(500);  // second crossing after removal: silent
  EXPECT_EQ(fired, 1);
  op.Release(500);
}

TEST(MemoryTrackerTest, ReservationReleasesOnDestruction) {
  MemoryTracker root("root", "test", nullptr);
  {
    MemoryReservation res(&root);
    res.Set(1000);
    EXPECT_EQ(root.current(), 1000);
    res.Add(500);
    EXPECT_EQ(root.current(), 1500);
    res.Set(200);
    EXPECT_EQ(root.current(), 200);
  }
  EXPECT_EQ(root.current(), 0);
}

TEST(MemoryTrackerTest, ReservationMoveAndMigration) {
  MemoryTracker a("a", "test", nullptr);
  MemoryTracker b("b", "test", nullptr);

  MemoryReservation res(&a);
  res.Set(300);
  MemoryReservation moved(std::move(res));
  EXPECT_EQ(moved.bytes(), 300);
  EXPECT_EQ(a.current(), 300);

  // Reset migrates the held bytes to the new tracker.
  moved.Reset(&b);
  EXPECT_EQ(a.current(), 0);
  EXPECT_EQ(b.current(), 300);
  moved.Clear();
  EXPECT_EQ(b.current(), 0);

  // Null-tracker reservations are no-ops throughout.
  MemoryReservation untracked;
  untracked.Set(12345);
  untracked.Add(1);
  EXPECT_EQ(untracked.bytes(), 12346);
}

TEST(MemoryTrackerTest, SyncLocalReconcilesToTarget) {
  MemoryTracker root("root", "test", nullptr);
  MemoryTracker component("component", "test", &root);
  component.SyncLocal(800);
  EXPECT_EQ(component.local(), 800);
  EXPECT_EQ(root.current(), 800);
  component.SyncLocal(300);  // shrink releases the difference upward
  EXPECT_EQ(component.local(), 300);
  EXPECT_EQ(root.current(), 300);
  component.SyncLocal(0);
  EXPECT_EQ(root.current(), 0);
}

TEST(MemoryTrackerTest, CollectSumOfLocalsEqualsRootCurrent) {
  MemoryTracker root("root", "test", nullptr);
  MemoryTracker query("query", "test", &root);
  MemoryTracker op("op", "test", &query);
  root.Charge(5);
  query.Charge(10);
  op.Charge(100);

  std::vector<MemoryTracker::NodeStats> nodes;
  root.Collect(&nodes);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].depth, 0);
  EXPECT_EQ(nodes[1].depth, 1);
  EXPECT_EQ(nodes[2].depth, 2);
  int64_t sum_local = 0;
  for (const auto& node : nodes) sum_local += node.local_bytes;
  EXPECT_EQ(sum_local, root.current());
  EXPECT_EQ(root.current(), 115);
}

// --- Storage subtree -------------------------------------------------------

TEST(MemoryTrackerTest, StorageSubtreeReconcilesThroughReorg) {
  int64_t root_before = MemoryTracker::Process()->current();
  {
    ColumnStoreTable::Options options;
    options.row_group_size = 256;
    options.min_compress_rows = 16;
    options.metric_table = "memrecon";
    ColumnStoreTable table("memrecon", MakeTestTable(1, 1).schema(), options);
    table.BulkLoad(MakeTestTable(2000, /*seed=*/7)).CheckOK();
    table.RefreshStorageGauges();

    // The table subtree's inclusive total equals the SizeBreakdown the
    // storage gauges publish.
    std::vector<MemoryTracker::NodeStats> nodes;
    MemoryTracker::Process()->Collect(&nodes);
    int64_t table_current = -1;
    for (const auto& node : nodes) {
      if (node.category == "table" && node.table == "memrecon") {
        table_current = node.current_bytes;
      }
    }
    EXPECT_EQ(table_current, table.Sizes().Total());

    // Reorg shifts bytes between component classes; the subtree follows.
    for (int64_t i = 0; i < 200; ++i) {
      (void)table.Delete(MakeCompressedRowId(0, i));
    }
    table.RemoveDeletedRows(/*threshold=*/0.01).ValueOrDie();
    table.CompressDeltaStores(/*include_open=*/true).ValueOrDie();
    table.RefreshStorageGauges();
    nodes.clear();
    MemoryTracker::Process()->Collect(&nodes);
    for (const auto& node : nodes) {
      if (node.category == "table" && node.table == "memrecon") {
        EXPECT_EQ(node.current_bytes, table.Sizes().Total());
      }
    }
  }
  // Dropping the table returns its whole subtree to the process root.
  EXPECT_EQ(MemoryTracker::Process()->current(), root_before);
}

// --- Query-side wiring -----------------------------------------------------

const OperatorProfile* FindNode(const OperatorProfile& node,
                                const std::string& prefix) {
  if (node.name.rfind(prefix, 0) == 0) return &node;
  for (const OperatorProfile& child : node.children) {
    const OperatorProfile* found = FindNode(child, prefix);
    if (found != nullptr) return found;
  }
  return nullptr;
}

std::vector<std::vector<Value>> SortedRows(const QueryResult& result) {
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < result.data.num_rows(); ++i) {
    rows.push_back(result.data.GetRow(i));
  }
  testing_util::SortRows(&rows);
  return rows;
}

struct QueryFixture {
  Catalog catalog;

  QueryFixture() {
    ColumnStoreTable::Options options;
    options.row_group_size = 512;
    options.min_compress_rows = 16;
    auto cs = std::make_unique<ColumnStoreTable>(
        "t", MakeTestTable(1, 1).schema(), options);
    cs->BulkLoad(MakeTestTable(4000, /*seed=*/11)).CheckOK();
    catalog.AddColumnStore(std::move(cs)).CheckOK();
  }

  QueryResult Run(const PlanPtr& plan, QueryOptions options = {}) {
    QueryExecutor exec(&catalog, options);
    return exec.Execute(plan).ValueOrDie();
  }
};

TEST(MemoryTrackerTest, QueryTeardownLeavesProcessQuiescent) {
  QueryFixture f;
  int64_t before = MemoryTracker::Process()->current();

  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Join(JoinType::kInner, PlanBuilder::Scan(f.catalog, "t").Build(),
         {"bucket"}, {"bucket"});
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                           {AggFn::kSum, "id", "id_sum"}});
  QueryResult result = f.Run(b.Build());
  EXPECT_GT(result.rows_returned, 0);
  // The join build was real memory while it ran...
  EXPECT_GT(result.peak_memory_bytes, 0);
  // ...and every byte of it was handed back at teardown.
  EXPECT_EQ(MemoryTracker::Process()->current(), before);
}

TEST(MemoryTrackerTest, BudgetedQuerySpillsAndStaysCorrect) {
  QueryFixture f;
  Counter* exceeded = MetricsRegistry::Global().GetCounter(
      "vstore_mem_budget_exceeded_total");
  int64_t exceeded_before = exceeded->Value();
  int64_t spill_before = GlobalSpillBytes();

  auto make_plan = [&] {
    PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
    b.Join(JoinType::kInner, PlanBuilder::Scan(f.catalog, "t").Build(),
           {"bucket"}, {"bucket"});
    b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"},
                             {AggFn::kSum, "id", "id_sum"}});
    return b.Build();
  };

  QueryResult unbudgeted = f.Run(make_plan());
  QueryOptions tight;
  tight.query_memory_budget = 32 * 1024;
  QueryResult budgeted = f.Run(make_plan(), tight);

  EXPECT_EQ(budgeted.rows_returned, unbudgeted.rows_returned);
  EXPECT_EQ(SortedRows(budgeted), SortedRows(unbudgeted));
  EXPECT_GT(exceeded->Value(), exceeded_before);
  EXPECT_GT(GlobalSpillBytes(), spill_before);
  EXPECT_GT(budgeted.spill_bytes, 0);

  // The query stays over its budget while the join holds memory, so the
  // aggregate sees pressure on every poll; it polls once per input batch,
  // not once per row.
  const OperatorProfile* agg = FindNode(budgeted.profile, "HashAggregate");
  ASSERT_NE(agg, nullptr);
  ASSERT_EQ(agg->children.size(), 1u);
  const int64_t input_batches = agg->children[0].batches_produced;
  EXPECT_GT(agg->Counter("spill_flushes"), 0);
  EXPECT_LE(agg->Counter("spill_flushes"), input_batches);
}

TEST(MemoryTrackerTest, TrackingDisabledRunsUntracked) {
  QueryFixture f;
  QueryOptions options;
  options.track_memory = false;
  PlanBuilder b = PlanBuilder::Scan(f.catalog, "t");
  b.Aggregate({"bucket"}, {{AggFn::kCountStar, "", "cnt"}});
  QueryResult result = f.Run(b.Build(), options);
  EXPECT_GT(result.rows_returned, 0);
  EXPECT_EQ(result.peak_memory_bytes, 0);
}

// --- sys.memory ------------------------------------------------------------

TEST(MemoryTrackerTest, SysMemorySumsToProcessRoot) {
  QueryFixture f;
  // A bare scan (no filter, no expressions) so the observing query charges
  // nothing while the view materializes.
  QueryResult result =
      f.Run(PlanBuilder::Scan(f.catalog, "sys.memory").Build());
  const Schema& schema = result.data.schema();
  int name_col = schema.IndexOf("name");
  int cat_col = schema.IndexOf("category");
  int bytes_col = schema.IndexOf("bytes");
  int current_col = schema.IndexOf("current_bytes");
  ASSERT_GE(name_col, 0);
  ASSERT_GE(cat_col, 0);
  ASSERT_GE(bytes_col, 0);
  ASSERT_GE(current_col, 0);

  // SUM of exclusive bytes over the tracker rows equals the process row's
  // inclusive total; the synthetic RSS row is excluded from the sum.
  int64_t sum_local = 0;
  int64_t root_current = -1;
  bool saw_rss = false;
  bool saw_table = false;
  for (int64_t i = 0; i < result.data.num_rows(); ++i) {
    std::string name = result.data.column(name_col).GetValue(i).ToString();
    std::string category =
        result.data.column(cat_col).GetValue(i).ToString();
    if (name == "rss") {
      saw_rss = true;
      EXPECT_GT(result.data.column(bytes_col).GetInt64(i), 0);
      continue;
    }
    if (name == "process") {
      root_current = result.data.column(current_col).GetInt64(i);
    }
    if (category == "table") saw_table = true;
    sum_local += result.data.column(bytes_col).GetInt64(i);
  }
  EXPECT_TRUE(saw_rss);
  EXPECT_TRUE(saw_table);
  ASSERT_GE(root_current, 0) << "no process root row in sys.memory";
  EXPECT_EQ(sum_local, root_current);
}

// --- Mapped class and gauges -----------------------------------------------

TEST(MemoryTrackerTest, MappedFileChargesMappedClass) {
  std::string path = ::testing::TempDir() + "/memtracker_mapped.bin";
  {
    auto file = File::Create(path).ValueOrDie();
    std::vector<char> payload(8192, 'x');
    file->Append(payload.data(), payload.size()).CheckOK();
    file->Close().CheckOK();
  }
  int64_t before = MappedMemoryTracker()->current();
  {
    auto mapped = MappedFile::Open(path).ValueOrDie();
    EXPECT_EQ(MappedMemoryTracker()->current() - before, 8192);
  }
  EXPECT_EQ(MappedMemoryTracker()->current(), before);
  (void)RemoveFile(path);
}

TEST(MemoryTrackerTest, PublishMemoryGaugesExportsRss) {
  PublishMemoryGauges();
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_GT(registry.GetGauge("vstore_process_rss_bytes")->Value(), 0);
  EXPECT_GT(ReadProcessRssBytes(), 0);
  // vstore_mapped_bytes exists (zero when nothing is mapped).
  EXPECT_GE(registry.GetGauge("vstore_mapped_bytes")->Value(), 0);
}

}  // namespace
}  // namespace vstore
