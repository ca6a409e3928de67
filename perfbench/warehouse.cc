#include "warehouse.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/metrics.h"
#include "common/span_trace.h"
#include "exec/profile.h"
#include "tpch/queries.h"

namespace perfbench {

using vstore::Catalog;
using vstore::ColumnStoreTable;
using vstore::OperatorProfile;
using vstore::QueryResult;
using vstore::Random;
using vstore::Result;
using vstore::Status;
using vstore::TableData;

namespace {

constexpr std::array<const char*, 5> kSegments = {
    "AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"};
constexpr std::array<const char*, 5> kRegions = {"AFRICA", "AMERICA", "ASIA",
                                                 "EUROPE", "MIDDLE EAST"};
constexpr std::array<const char*, 7> kShipModes = {
    "REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};

std::string YearStart(Random* rng) {
  return std::to_string(rng->Uniform(1993, 1997)) + "-01-01";
}

template <size_t N>
std::string Pick(Random* rng, const std::array<const char*, N>& values) {
  return values[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(N) - 1))];
}

double SecondsSince(Clock::time_point start) { return MsSince(start) / 1e3; }

// BulkLoad + CompressDeltaStores (load tails go columnar too, so no deltas
// are left), timed and spanned; adds the load time to `load_s`.
Status LoadTable(ColumnStoreTable* table, const TableData& data,
                 SpanLog* spans, int64_t parent, int64_t request,
                 double* load_s) {
  Clock::time_point start = Clock::now();
  {
    ScopedSpan span(spans, "ColumnStoreTable::BulkLoad(" + table->name() + ")",
                    parent, request);
    VSTORE_RETURN_IF_ERROR(table->BulkLoad(data));
  }
  {
    ScopedSpan span(spans,
                    "ColumnStoreTable::CompressDeltaStores(" + table->name() +
                        ")",
                    parent, request);
    VSTORE_RETURN_IF_ERROR(table->CompressDeltaStores(true).status());
  }
  *load_s += SecondsSince(start);
  return Status::OK();
}

struct NamedTable {
  const char* name;
  const TableData* data;
};

std::vector<NamedTable> Dimensions(const vstore::tpch::Tables& t) {
  return {{"region", &t.region},     {"nation", &t.nation},
          {"supplier", &t.supplier}, {"customer", &t.customer},
          {"part", &t.part},         {"partsupp", &t.partsupp},
          {"orders", &t.orders}};
}

Status LoadDimensionsTimed(const vstore::tpch::Tables& tables,
                           Catalog* catalog, SpanLog* spans, int64_t parent,
                           int64_t request, double* load_s) {
  for (const NamedTable& t : Dimensions(tables)) {
    auto table = std::make_unique<ColumnStoreTable>(
        t.name, t.data->schema(), StoreOptions());
    VSTORE_RETURN_IF_ERROR(
        LoadTable(table.get(), *t.data, spans, parent, request, load_s));
    VSTORE_RETURN_IF_ERROR(catalog->AddColumnStore(std::move(table)));
  }
  return Status::OK();
}

}  // namespace

ColumnStoreTable::Options StoreOptions(int64_t row_group_size) {
  ColumnStoreTable::Options options;
  options.row_group_size = row_group_size;
  return options;
}

QueryParams DrawParams(Random* rng) {
  QueryParams p;
  p.q1_delta_days = static_cast<int>(rng->Uniform(60, 120));
  p.q3_segment = Pick(rng, kSegments);
  char date[16];
  std::snprintf(date, sizeof(date), "1995-03-%02d",
                static_cast<int>(rng->Uniform(1, 31)));
  p.q3_date = date;
  p.q5_region = Pick(rng, kRegions);
  p.q5_date = YearStart(rng);
  p.q6_date = YearStart(rng);
  p.q6_discount = static_cast<double>(rng->Uniform(2, 9)) / 100.0;
  p.q6_quantity = static_cast<double>(rng->Uniform(24, 25));
  std::string first = Pick(rng, kShipModes);
  std::string second = first;
  while (second == first) second = Pick(rng, kShipModes);
  p.q12_modes = {first, second};
  p.q12_date = YearStart(rng);
  return p;
}

std::string ParamsJson(const QueryParams& p) {
  std::string out = "{\"q1_delta_days\":" + std::to_string(p.q1_delta_days);
  auto str = [&](const char* key, const std::string& value) {
    out += std::string(",\"") + key + "\":";
    AppendJsonString(value, &out);
  };
  str("q3_segment", p.q3_segment);
  str("q3_date", p.q3_date);
  str("q5_region", p.q5_region);
  str("q5_date", p.q5_date);
  str("q6_date", p.q6_date);
  out += ",\"q6_discount\":" + JsonNumber(p.q6_discount);
  out += ",\"q6_quantity\":" + JsonNumber(p.q6_quantity);
  str("q12_mode1", p.q12_modes[0]);
  str("q12_mode2", p.q12_modes[1]);
  str("q12_date", p.q12_date);
  out += '}';
  return out;
}

vstore::PlanPtr BuildQuery(int query, const Catalog& catalog,
                           const QueryParams& p) {
  namespace tpch = vstore::tpch;
  switch (query) {
    case 0:
      return tpch::Q1(catalog, p.q1_delta_days);
    case 1:
      return tpch::Q3(catalog, p.q3_segment, p.q3_date);
    case 2:
      return tpch::Q5(catalog, p.q5_region, p.q5_date);
    case 3:
      return tpch::Q6(catalog, p.q6_date, p.q6_discount, p.q6_quantity);
    default:
      return tpch::Q12(catalog, p.q12_modes, p.q12_date);
  }
}

// --- Set-up ------------------------------------------------------------------

Result<Warehouse> BuildWarehouse(uint64_t seed, const std::string& durable_dir,
                                 SpanLog* spans, int64_t request) {
  Warehouse w;
  ScopedSpan setup_span(spans, "setup", -1, request);
  const int64_t parent = setup_span.id();
  Clock::time_point start = Clock::now();
  {
    ScopedSpan span(spans, "tpch::Generate", parent, request);
    w.tables = vstore::tpch::Generate(kScaleFactor, seed);
  }
  w.times.dbgen_s = SecondsSince(start);

  w.catalog = std::make_unique<Catalog>();
  VSTORE_RETURN_IF_ERROR(LoadDimensionsTimed(w.tables, w.catalog.get(), spans,
                                             parent, request,
                                             &w.times.load_s));
  auto lineitem = std::make_unique<ColumnStoreTable>(
      "lineitem", w.tables.lineitem.schema(),
      StoreOptions(durable_dir.empty() ? kRowGroupSize
                                       : kTrickleRowGroupSize));
  w.lineitem = lineitem.get();
  if (durable_dir.empty()) {
    VSTORE_RETURN_IF_ERROR(LoadTable(lineitem.get(), w.tables.lineitem, spans,
                                     parent, request, &w.times.load_s));
    VSTORE_RETURN_IF_ERROR(w.catalog->AddColumnStore(std::move(lineitem)));
  } else {
    Clock::time_point open_start = Clock::now();
    std::unique_ptr<vstore::DurableTable> durable;
    {
      ScopedSpan span(spans, "DurableTable::Open", parent, request);
      VSTORE_ASSIGN_OR_RETURN(
          durable, vstore::DurableTable::Open(durable_dir, lineitem.get()));
    }
    w.times.load_s += SecondsSince(open_start);
    // BulkLoad persists its rows with a synchronous checkpoint; the
    // compressed load tail is then logged, and one more checkpoint leaves
    // a clean epoch with an empty WAL behind the load.
    VSTORE_RETURN_IF_ERROR(LoadTable(lineitem.get(), w.tables.lineitem, spans,
                                     parent, request, &w.times.load_s));
    Clock::time_point ckpt_start = Clock::now();
    {
      ScopedSpan span(spans, "DurableTable::Checkpoint", parent, request);
      VSTORE_RETURN_IF_ERROR(durable->Checkpoint());
    }
    w.times.checkpoint_s = SecondsSince(ckpt_start);
    w.durable = durable.get();
    VSTORE_RETURN_IF_ERROR(w.catalog->AddDurableColumnStore(
        std::move(lineitem), std::move(durable)));
  }
  w.times.total_s = SecondsSince(start);
  return w;
}

Status LoadDimensions(const vstore::tpch::Tables& tables, Catalog* catalog) {
  SpanLog off(false);
  double unused = 0;
  return LoadDimensionsTimed(tables, catalog, &off, -1, 0, &unused);
}

Result<std::unique_ptr<Catalog>> BuildOracleCatalog(
    const vstore::tpch::Tables& tables, const TableData* lineitem) {
  auto catalog = std::make_unique<Catalog>();
  std::vector<NamedTable> all = Dimensions(tables);
  all.push_back(
      {"lineitem", lineitem != nullptr ? lineitem : &tables.lineitem});
  for (const NamedTable& t : all) {
    auto table =
        std::make_unique<vstore::RowStoreTable>(t.name, t.data->schema());
    VSTORE_RETURN_IF_ERROR(table->Append(*t.data));
    VSTORE_RETURN_IF_ERROR(catalog->AddRowStore(std::move(table)));
  }
  return catalog;
}

Result<Answers> OracleAnswers(const Catalog& oracle, const QueryParams& params) {
  Answers answers(kNumQueries);
  std::vector<Status> errors(kNumQueries);
  std::atomic<int> next{0};
  auto work = [&] {
    vstore::QueryOptions options;
    options.mode = vstore::ExecutionMode::kRow;
    vstore::QueryExecutor exec(&oracle, options);
    for (int q = next++; q < kNumQueries; q = next++) {
      Result<QueryResult> r = exec.Execute(BuildQuery(q, oracle, params));
      if (!r.ok()) {
        errors[static_cast<size_t>(q)] = r.status();
      } else {
        answers[static_cast<size_t>(q)] = std::move(r.value().data);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  for (const Status& st : errors) {
    if (!st.ok()) return st;
  }
  return answers;
}

bool SameAnswer(const TableData& a, const TableData& b, bool exact,
                std::string* why) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    *why = "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" +
           std::to_string(b.num_columns());
    return false;
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const vstore::ColumnData& ca = a.column(c);
    const vstore::ColumnData& cb = b.column(c);
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      bool same = ca.IsNull(r) == cb.IsNull(r);
      if (same && !ca.IsNull(r)) {
        if (ca.type() == vstore::DataType::kDouble &&
            cb.type() == vstore::DataType::kDouble) {
          const double x = ca.GetDouble(r);
          const double y = cb.GetDouble(r);
          same = exact ? x == y
                       : std::fabs(x - y) <=
                             1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
        } else {
          same = ca.GetValue(r) == cb.GetValue(r);
        }
      }
      if (!same) {
        *why = "row " + std::to_string(r) + " column " +
               a.schema().field(c).name + ": " + ca.GetValue(r).ToString() +
               " vs " + cb.GetValue(r).ToString();
        return false;
      }
    }
  }
  return true;
}

double StoredBytesPerRow(const Catalog& catalog) {
  double bytes = 0;
  double rows = 0;
  for (const auto& [name, entry] : catalog.entries()) {
    if (entry.column_store == nullptr) continue;
    bytes += static_cast<double>(entry.column_store->Sizes().Total());
    rows += static_cast<double>(entry.column_store->num_rows());
  }
  return rows > 0 ? bytes / rows : 0;
}

// --- Per-layer rollup --------------------------------------------------------

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void Walk(const OperatorProfile& node, QueryLayers* l) {
  const bool exchange = StartsWith(node.name, "Exchange");
  int64_t child_ns = 0;
  if (!exchange) {
    for (const OperatorProfile& child : node.children) {
      child_ns += child.TotalNs();
    }
  }
  const double self = Ms(std::max<int64_t>(node.TotalNs() - child_ns, 0));
  l->self_total_ms += self;

  if (StartsWith(node.name, "ColumnStoreScan")) {
    l->scan_self_ms += self;
    const double scanned = static_cast<double>(node.Counter("rows_scanned"));
    l->scan_rows += scanned;
    l->scan_delta_rows += static_cast<double>(node.Counter("delta_rows"));
    l->groups_scanned += static_cast<double>(node.Counter("groups_scanned"));
    l->groups_eliminated +=
        static_cast<double>(node.Counter("groups_eliminated"));
    const int64_t dropped = node.Counter("bloom_rows_dropped", -1);
    if (dropped >= 0) {
      l->bloom_rows_dropped += static_cast<double>(dropped);
      l->bloom_rows_scanned += scanned;
    }
  } else if (node.name == "Filter" || node.name == "Project") {
    l->expr_self_ms += self;
  } else if (StartsWith(node.name, "HashJoinProbe") &&
             !node.children.empty()) {
    // Shared (parallel) build: the build reports its own wall time once,
    // on the fragment that finished it.
    l->join_build_ms += Ms(node.Counter("build_ns"));
    l->join_build_lock_wait_ms += Ms(node.Counter("build_lock_wait_ns"));
    l->join_build_rows += static_cast<double>(node.Counter("build_rows"));
    l->joins += 1;
    l->join_build_fragments +=
        static_cast<double>(node.Counter("build_fragments"));
    l->join_probe_ms += Ms(std::max<int64_t>(
        node.next_ns - node.children[0].next_ns, 0));
  } else if (StartsWith(node.name, "HashJoin") &&
             node.children.size() == 2) {
    // Serial join: Open() drains the build child, then opens the probe.
    const OperatorProfile& probe = node.children[0];
    const OperatorProfile& build = node.children[1];
    l->join_build_ms += Ms(std::max<int64_t>(
        node.open_ns - build.TotalNs() - probe.open_ns, 0));
    l->join_probe_ms +=
        Ms(std::max<int64_t>(node.next_ns - probe.next_ns, 0));
    l->join_build_rows += static_cast<double>(node.Counter("build_rows"));
    l->joins += 1;
    l->join_build_fragments += 1;
  } else if (StartsWith(node.name, "HashAggregate") ||
             node.name == "ScalarAggregate") {
    l->agg_self_ms += self;
    l->agg_groups += static_cast<double>(node.Counter("groups", 1));
  } else if (node.name == "Sort" || node.name == "TopN") {
    l->sort_self_ms += self;
  } else if (exchange) {
    l->exchange_self_ms += self;
    l->exchanges += 1;
    l->exchange_degree += static_cast<double>(node.Counter("degree"));
    l->exchange_rows += static_cast<double>(node.Counter("rows_exchanged"));
  }
  for (const OperatorProfile& child : node.children) Walk(child, l);
}

}  // namespace

QueryLayers AnalyzeQuery(const QueryResult& result) {
  QueryLayers l;
  for (const vstore::QueryTraceSpan& span : result.trace.root.children) {
    if (span.category != "phase") continue;
    const double ms = static_cast<double>(span.duration_us) / 1e3;
    if (span.name == "optimize") l.optimize_ms += ms;
    if (span.name == "compile") l.compile_ms += ms;
    if (span.name == "execute") l.execute_ms += ms;
  }
  Walk(result.profile, &l);
  l.peak_mem_mb = static_cast<double>(result.peak_memory_bytes) / 1048576.0;
  l.spill_bytes = static_cast<double>(result.spill_bytes);
  return l;
}

void LayerTotals::Add(int query, const QueryLayers& q, double cpu_ms,
                      double wall_ms, int dop) {
  QueryLayers& s = sum_;
  s.optimize_ms += q.optimize_ms;
  s.compile_ms += q.compile_ms;
  s.execute_ms += q.execute_ms;
  s.self_total_ms += q.self_total_ms;
  s.scan_self_ms += q.scan_self_ms;
  s.scan_rows += q.scan_rows;
  s.scan_delta_rows += q.scan_delta_rows;
  s.groups_scanned += q.groups_scanned;
  s.groups_eliminated += q.groups_eliminated;
  s.expr_self_ms += q.expr_self_ms;
  s.join_build_ms += q.join_build_ms;
  s.join_probe_ms += q.join_probe_ms;
  s.join_build_rows += q.join_build_rows;
  s.joins += q.joins;
  s.join_build_fragments += q.join_build_fragments;
  s.join_build_lock_wait_ms += q.join_build_lock_wait_ms;
  s.bloom_rows_dropped += q.bloom_rows_dropped;
  s.bloom_rows_scanned += q.bloom_rows_scanned;
  s.agg_self_ms += q.agg_self_ms;
  s.agg_groups += q.agg_groups;
  s.sort_self_ms += q.sort_self_ms;
  s.exchange_self_ms += q.exchange_self_ms;
  s.exchanges += q.exchanges;
  s.exchange_degree += q.exchange_degree;
  s.exchange_rows += q.exchange_rows;
  s.peak_mem_mb = std::max(s.peak_mem_mb, q.peak_mem_mb);
  s.spill_bytes += q.spill_bytes;
  cpu_ms_ += cpu_ms;
  wall_dop_ms_ += wall_ms * dop;
  ++count_;
  self_ms_[static_cast<size_t>(query)] += q.self_total_ms;
  execute_ms_[static_cast<size_t>(query)] += q.execute_ms;
  ++per_query_count_[static_cast<size_t>(query)];
}

void LayerTotals::Report(MetricSet* out) const {
  const double n = std::max<double>(1.0, static_cast<double>(count_));
  const QueryLayers& s = sum_;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  out->Add("query.optimize_ms", s.optimize_ms / n, "ms");
  out->Add("query.compile_ms", s.compile_ms / n, "ms");
  out->Add("query.execute_ms", s.execute_ms / n, "ms");
  out->Add("query.cpu_ms", cpu_ms_ / n, "ms");
  out->Add("query.parallel_eff", ratio(cpu_ms_, wall_dop_ms_), "ratio");
  out->Add("exec.scan.self_ms", s.scan_self_ms / n, "ms");
  out->Add("exec.scan.rows", s.scan_rows / n, "rows");
  out->Add("exec.scan.delta_rows", s.scan_delta_rows / n, "rows");
  out->Add("exec.scan.groups_eliminated", s.groups_eliminated / n, "count");
  out->Add("exec.scan.elim_ratio",
           ratio(s.groups_eliminated, s.groups_scanned + s.groups_eliminated),
           "ratio");
  out->Add("exec.expr.self_ms", s.expr_self_ms / n, "ms");
  out->Add("exec.join.build_ms", s.join_build_ms / n, "ms");
  out->Add("exec.join.probe_ms", s.join_probe_ms / n, "ms");
  out->Add("exec.join.build_rows", s.join_build_rows / n, "rows");
  // Build fragments per join: 1 for a serial join, build_fragments for a
  // shared build.
  out->Add("exec.join.build_fragments", ratio(s.join_build_fragments, s.joins),
           "count");
  out->Add("exec.join.build_lock_wait_ms", s.join_build_lock_wait_ms / n,
           "ms");
  out->Add("exec.join.bloom_drop_ratio",
           ratio(s.bloom_rows_dropped, s.bloom_rows_scanned), "ratio");
  out->Add("exec.agg.self_ms", s.agg_self_ms / n, "ms");
  out->Add("exec.agg.groups", s.agg_groups / n, "count");
  out->Add("exec.sort.self_ms", s.sort_self_ms / n, "ms");
  out->Add("exec.exchange.self_ms", s.exchange_self_ms / n, "ms");
  out->Add("exec.exchange.degree", ratio(s.exchange_degree, s.exchanges),
           "count");
  out->Add("exec.exchange.rows", s.exchange_rows / n, "rows");
  out->Add("exec.peak_mem_mb", s.peak_mem_mb, "MiB");
  out->Add("exec.spill_bytes", s.spill_bytes, "B");
  out->Add("check.self_vs_execute_err", MaxSelfVsExecuteError(), "ratio");
}

double LayerTotals::MaxSelfVsExecuteError() const {
  double worst = 0;
  for (size_t q = 0; q < kNumQueries; ++q) {
    if (execute_ms_[q] <= 0) continue;
    worst = std::max(worst,
                     std::fabs(self_ms_[q] - execute_ms_[q]) / execute_ms_[q]);
  }
  return worst;
}

std::string LayerTotals::PerQueryJson() const {
  std::string out = "{";
  for (size_t q = 0; q < kNumQueries; ++q) {
    if (q > 0) out += ',';
    const double n =
        std::max<double>(1.0, static_cast<double>(per_query_count_[q]));
    out += std::string("\"") + kQueryNames[q] +
           "\":{\"traced\":" + std::to_string(per_query_count_[q]) +
           ",\"self_sum_ms\":" + JsonNumber(self_ms_[q] / n) +
           ",\"execute_ms\":" + JsonNumber(execute_ms_[q] / n) + "}";
  }
  out += '}';
  return out;
}

RegistrySnapshot ReadRegistry() {
  vstore::MetricsRegistry& r = vstore::MetricsRegistry::Global();
  RegistrySnapshot s;
  s.expr_cache_hits = static_cast<double>(
      r.GetCounter("vstore_expr_program_cache_hits_total")->Value());
  s.expr_compiled = static_cast<double>(
      r.GetCounter("vstore_expr_programs_compiled_total")->Value());
  vstore::WaitStats fsync =
      vstore::GetWaitStats("lineitem", vstore::WaitPoint::kFsync);
  s.fsync_waits = static_cast<double>(fsync.total->Value());
  s.fsync_wait_ns = static_cast<double>(fsync.wait_ns->Sum());
  vstore::WaitStats lock =
      vstore::GetWaitStats("lineitem", vstore::WaitPoint::kLock);
  s.lock_waits = static_cast<double>(lock.total->Value());
  s.lock_wait_ns = static_cast<double>(lock.wait_ns->Sum());
  s.wal_bytes = static_cast<double>(
      r.GetCounter("vstore_wal_bytes", "table", "lineitem")->Value());
  return s;
}

}  // namespace perfbench
