#ifndef PERFBENCH_WAREHOUSE_H_
#define PERFBENCH_WAREHOUSE_H_

// The TPC-H warehouse every workload runs against: seeded generation and
// load (timed as set-up), the seeded qgen-style query stream, the row-mode
// oracle, and the rollup of QueryResult profiles into per-layer numbers.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "harness.h"
#include "query/catalog.h"
#include "query/executor.h"
#include "storage/durable_table.h"
#include "tpch/dbgen.h"

namespace perfbench {

// Fixed by the benchmark, stamped into every output.
inline constexpr double kScaleFactor = 0.2;
inline constexpr int64_t kRowGroupSize = int64_t{1} << 17;
// Row-group size of the durable lineitem in htap_trickle, where it is also
// the size at which a delta store closes. At 2^17 the open store's sawtooth
// (and the copy-on-write clone of it that each query snapshot forces) made
// query latency swing 3x within a run and its medians unrepeatable, so the
// trickle table closes stores 16x sooner and the mover cycles several times
// a run.
inline constexpr int64_t kTrickleRowGroupSize = int64_t{1} << 13;
// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

inline constexpr int kNumQueries = 5;
inline constexpr std::array<const char*, kNumQueries> kQueryNames = {
    "q1", "q3", "q5", "q6", "q12"};

// One qgen-style parameter set for each of the five queries. A run draws
// one set, as one qgen stream does: several would make each query's
// latencies a mixture whose median jumps between the sets' clusters from
// run to run.
struct QueryParams {
  int q1_delta_days = 90;
  std::string q3_segment;
  std::string q3_date;
  std::string q5_region;
  std::string q5_date;
  std::string q6_date;
  double q6_discount = 0.06;
  double q6_quantity = 24;
  std::vector<std::string> q12_modes;
  std::string q12_date;
};
QueryParams DrawParams(vstore::Random* rng);
std::string ParamsJson(const QueryParams& p);
vstore::PlanPtr BuildQuery(int query, const vstore::Catalog& catalog,
                           const QueryParams& params);

// --- Set-up ------------------------------------------------------------------
// Column store options of every table.
vstore::ColumnStoreTable::Options StoreOptions(
    int64_t row_group_size = kRowGroupSize);

struct SetupTimes {
  double dbgen_s = 0;
  double load_s = 0;
  double checkpoint_s = 0;  // durable lineitem's post-load checkpoint
  double total_s = 0;
};

struct Warehouse {
  vstore::tpch::Tables tables;
  std::unique_ptr<vstore::Catalog> catalog;
  vstore::ColumnStoreTable* lineitem = nullptr;
  vstore::DurableTable* durable = nullptr;  // null unless durable_dir given
  SetupTimes times;
};

// Generates the seeded tables and bulk-loads all eight into column stores
// (2^17-row groups, load tails compressed so no deltas are left). With a
// non-empty `durable_dir`, lineitem (with kTrickleRowGroupSize groups) is
// opened through DurableTable there and checkpointed after its load. Spans
// go to `spans` under `request`.
vstore::Result<Warehouse> BuildWarehouse(uint64_t seed,
                                         const std::string& durable_dir,
                                         SpanLog* spans, int64_t request);

// Loads every table except lineitem into `catalog` as column stores.
vstore::Status LoadDimensions(const vstore::tpch::Tables& tables,
                              vstore::Catalog* catalog);

// A catalog of row-store copies (the oracle's storage). `lineitem` replaces
// tables.lineitem when given (the final rows of a DML run).
vstore::Result<std::unique_ptr<vstore::Catalog>> BuildOracleCatalog(
    const vstore::tpch::Tables& tables, const vstore::TableData* lineitem);

// Row-mode answers for every query, computed on up to four threads.
// answers[q].
using Answers = std::vector<vstore::TableData>;
vstore::Result<Answers> OracleAnswers(const vstore::Catalog& oracle,
                                      const QueryParams& params);

// Compares two results row by row. With `exact` false, doubles may differ
// by 1e-9 relative (batch and row mode sum in different orders). On
// mismatch `why` says where.
bool SameAnswer(const vstore::TableData& a, const vstore::TableData& b,
                bool exact, std::string* why);

// Sum of Sizes().Total() over all column stores / live rows.
double StoredBytesPerRow(const vstore::Catalog& catalog);

// --- Per-layer rollup --------------------------------------------------------
// What one traced execution spent per layer, read from QueryResult::profile
// and QueryResult::trace. Exec times are operator self times: inclusive
// open+next+close minus the children's inclusive times. An Exchange keeps
// its whole inclusive time (its fragments run on other threads), and the
// merged fragment subtree below it holds fragment-time totals, not wall
// time.
struct QueryLayers {
  double optimize_ms = 0;
  double compile_ms = 0;
  double execute_ms = 0;
  double self_total_ms = 0;
  double scan_self_ms = 0;
  double scan_rows = 0;
  double scan_delta_rows = 0;
  double groups_scanned = 0;
  double groups_eliminated = 0;
  double expr_self_ms = 0;
  double join_build_ms = 0;
  double join_probe_ms = 0;
  double join_build_rows = 0;
  double joins = 0;
  double join_build_fragments = 0;
  double join_build_lock_wait_ms = 0;
  double bloom_rows_dropped = 0;
  double bloom_rows_scanned = 0;  // rows scanned by scans that took a filter
  double agg_self_ms = 0;
  double agg_groups = 0;
  double sort_self_ms = 0;
  double exchange_self_ms = 0;
  double exchanges = 0;
  double exchange_degree = 0;  // summed over exchanges
  double exchange_rows = 0;
  double peak_mem_mb = 0;
  double spill_bytes = 0;
};
QueryLayers AnalyzeQuery(const vstore::QueryResult& result);

// Running totals over traced executions, overall and per query.
class LayerTotals {
 public:
  void Add(int query, const QueryLayers& layers, double cpu_ms,
           double wall_ms, int dop);
  // Appends every exec/query per-layer metric (per-query means).
  void Report(MetricSet* out) const;
  // Largest |sum of self times - execute span| / execute span over the
  // five queries (per-query sums over all traced executions).
  double MaxSelfVsExecuteError() const;
  std::string PerQueryJson() const;

 private:
  QueryLayers sum_;
  double cpu_ms_ = 0;
  double wall_dop_ms_ = 0;
  int64_t count_ = 0;
  std::array<double, kNumQueries> self_ms_{};
  std::array<double, kNumQueries> execute_ms_{};
  std::array<int64_t, kNumQueries> per_query_count_{};
};

// Registry counters read around a run (deltas are what the run caused).
struct RegistrySnapshot {
  double expr_cache_hits = 0;
  double expr_compiled = 0;
  double fsync_waits = 0;
  double fsync_wait_ns = 0;
  double lock_waits = 0;
  double lock_wait_ns = 0;
  double wal_bytes = 0;
};
RegistrySnapshot ReadRegistry();

}  // namespace perfbench

#endif  // PERFBENCH_WAREHOUSE_H_
