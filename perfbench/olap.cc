// olap_dop1 / olap_dop4, and the set-up both workload families share.

#include <malloc.h>

#include <filesystem>
#include <fstream>
#include <utility>

#include "workloads.h"

namespace perfbench {

void MarkPhase(const char* name, Clock::time_point* start, RunOutput* out) {
  if (!out->phases.empty()) out->phases += ',';
  out->phases += std::string("\"") + name +
                 "\":" + JsonNumber(MsSince(*start) / 1e3);
  *start = Clock::now();
}

bool StartPeakRss() {
  // Hand set-up garbage back to the kernel, so the mark starts from live
  // memory however the allocator happened to retain freed blocks.
  malloc_trim(0);
  // Writing 5 to clear_refs resets the process's VmHWM to its current RSS.
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

vstore::Result<Warehouse> RepeatedSetup(const RunArgs& args,
                                        const std::string& durable_dir,
                                        SpanLog* spans, RunOutput* out) {
  std::vector<double> total, dbgen, load, checkpoint;
  std::unique_ptr<Warehouse> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();  // the previous set-up's tables and files go first
    if (!durable_dir.empty()) std::filesystem::remove_all(durable_dir);
    VSTORE_ASSIGN_OR_RETURN(
        Warehouse built,
        BuildWarehouse(args.seed, durable_dir, spans, spans->NewRequest()));
    w = std::make_unique<Warehouse>(std::move(built));
    total.push_back(w->times.total_s);
    dbgen.push_back(w->times.dbgen_s);
    load.push_back(w->times.load_s);
    checkpoint.push_back(w->times.checkpoint_s);
  }
  if (args.trace) {
    out->metrics.Add("tpch.dbgen_s", Median(dbgen), "s");
    out->metrics.Add("storage.load_s", Median(load), "s");
    out->metrics.Add("storage.checkpoint_initial_s", Median(checkpoint), "s");
  } else {
    out->metrics.Add("setup_s", Median(total), "s");
  }
  out->report += ",\"setup_s\":" + SummaryJson(Summarize(total)) +
                 ",\"dbgen_s\":" + SummaryJson(Summarize(dbgen)) +
                 ",\"load_s\":" + SummaryJson(Summarize(load)) +
                 ",\"checkpoint_initial_s\":" +
                 SummaryJson(Summarize(checkpoint));
  return std::move(*w);
}

QueryParams RunParams(uint64_t seed) {
  vstore::Random rng(seed ^ 0x7061);
  return DrawParams(&rng);
}

void ReportClient(const RunArgs& args, const ClientResult& r,
                  const RegistrySnapshot& before,
                  const RegistrySnapshot& after,
                  const QueryParams& params, double stored_bytes_per_row, double rss_mb,
                  RunOutput* out) {
  if (args.trace) {
    r.layers.Report(&out->metrics);
    const double hits = after.expr_cache_hits - before.expr_cache_hits;
    const double compiled = after.expr_compiled - before.expr_compiled;
    out->metrics.Add("query.expr_cache_hit_ratio",
                     hits + compiled > 0 ? hits / (hits + compiled) : 0,
                     "ratio");
    out->metrics.Add("trace.overhead_pct", TracingOverheadPct(r), "%");
    ReportQueryMedians(r, &out->metrics);
  } else {
    ReportQueryMetrics(r, &out->metrics);
    out->metrics.Add("stored_bytes_per_row", stored_bytes_per_row, "B/row");
    out->metrics.Add("rss_peak_mb", rss_mb, "MiB");
  }
  out->report += ",\"params\":" + ParamsJson(params) +
                 ",\"queries\":" + QuerySummariesJson(r) +
                 ",\"self_vs_execute\":" + r.layers.PerQueryJson();
}

void RunOlap(const RunArgs& args, int dop, SpanLog* spans, RunOutput* out) {
  out->dop = dop;
  Clock::time_point phase = Clock::now();
  vstore::Result<Warehouse> built = RepeatedSetup(args, "", spans, out);
  if (!built.ok()) {
    out->outcome.FailOperation("set-up: " + built.status().ToString());
    return;
  }
  Warehouse& w = built.value();
  MarkPhase("setup", &phase, out);

  const QueryParams params = RunParams(args.seed);

  // Expected answers from the row engine over row-store copies of the same
  // rows; the oracle and the generated tables are dropped before timing.
  Answers expected;
  {
    auto oracle = BuildOracleCatalog(w.tables, nullptr);
    vstore::Result<Answers> answers =
        oracle.ok() ? OracleAnswers(*oracle.value(), params)
                    : vstore::Result<Answers>(oracle.status());
    if (!answers.ok()) {
      out->outcome.FailOperation("oracle: " + answers.status().ToString());
      return;
    }
    expected = std::move(answers.value());
  }
  w.tables = vstore::tpch::Tables();
  const bool rss_reset = StartPeakRss();
  MarkPhase("oracle", &phase, out);

  // Warm-up: every query once, checked like the rest.
  vstore::Result<Answers> warm = BatchAnswers(*w.catalog, params);
  if (!warm.ok()) {
    out->outcome.FailOperation("warm-up: " + warm.status().ToString());
    return;
  }
  CheckAnswers(warm.value(), expected, /*exact=*/false, "warm-up",
               &out->outcome);

  MarkPhase("warm_up", &phase, out);

  ClientOptions options;
  options.dop = dop;
  options.trace = args.trace;
  options.answers = &expected;
  ClientResult r;
  const RegistrySnapshot reg0 = ReadRegistry();
  RunQueryClient(*w.catalog, params, options,
                 Clock::now() + std::chrono::seconds(args.seconds), args.seed,
                 spans, &out->outcome, &r);
  const RegistrySnapshot reg1 = ReadRegistry();
  const double rss_mb = PeakRssMb();
  MarkPhase("measure", &phase, out);

  ReportClient(args, r, reg0, reg1, params, StoredBytesPerRow(*w.catalog),
               rss_mb, out);
  if (args.trace) {
    // The DML, WAL, version, mover, recovery and generator layers do no
    // work in a read-only run.
    static constexpr std::pair<const char*, const char*> kIdle[] = {
        {"storage.insert_p50_us", "us"},
        {"storage.insert_p99_us", "us"},
        {"storage.delete_p50_us", "us"},
        {"storage.delete_p99_us", "us"},
        {"storage.update_p50_us", "us"},
        {"storage.update_p99_us", "us"},
        {"storage.dml.stale_id_ratio", "ratio"},
        {"storage.wal.fsyncs", "count"},
        {"storage.wal.fsync_ms", "ms"},
        {"storage.wal.bytes_per_user_byte", "ratio"},
        {"storage.files_growth_per_user_byte", "ratio"},
        {"storage.lock_wait_ms", "ms"},
        {"storage.delta_fraction", "ratio"},
        {"storage.mover.passes", "count"},
        {"storage.mover.pass_ms", "ms"},
        {"storage.mover.rows_moved", "rows"},
        {"storage.mover.conflict_ratio", "ratio"},
        {"storage.checkpoint_ms", "ms"},
        {"storage.recovery.records_replayed", "count"},
        {"storage.recovery.epochs", "count"},
        {"gen.late_p50_ms", "ms"},
        {"gen.late_p99_ms", "ms"},
        {"dml_p50_us", "us"},
        {"dml_p99_us", "us"},
        {"recovery_s", "s"},
    };
    for (const auto& [name, unit] : kIdle) out->metrics.Add(name, 0, unit);
  }
  out->report += std::string(",\"rss_peak_reset\":") +
                 (rss_reset ? "true" : "false");
}

}  // namespace perfbench
