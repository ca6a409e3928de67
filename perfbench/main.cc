// vertistore benchmark: one run of one workload.
//
//   perfbench --workload <olap_dop1|olap_dop4|htap_trickle> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//             [--source-digest <hex>] [--out-dir <dir>]
//
// Prints the host/config stamp, then as its last line one JSON object
// {"correct","attempted","failed","metrics"}: with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. The full run
// report (every timing with its quartiles and sample count) and, when
// traced, the benchmark's span log are written under --out-dir. Normally
// launched through run.py, which builds this binary first.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every untraced run prints; each is measured on
// every workload and is never 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"qgeo_ms", "ms"},
    {"qgeo_p90_ms", "ms"},    {"queries_per_s", "1/s"},
    {"stored_bytes_per_row", "B/row"}, {"rss_peak_mb", "MiB"},
};

// The per-layer metrics every traced run prints. Each workload adds every
// one of them; a layer that does no work in a workload is added as 0 by that
// workload (no DML on olap_*, no exchange at dop 1), so a metric left out
// or misnamed fails the run.
constexpr MetricDef kPerLayer[] = {
    {"q1_ms", "ms"},
    {"q3_ms", "ms"},
    {"q5_ms", "ms"},
    {"q6_ms", "ms"},
    {"q12_ms", "ms"},
    {"tpch.dbgen_s", "s"},
    {"storage.load_s", "s"},
    {"storage.checkpoint_initial_s", "s"},
    {"query.optimize_ms", "ms"},
    {"query.compile_ms", "ms"},
    {"query.execute_ms", "ms"},
    {"query.expr_cache_hit_ratio", "ratio"},
    {"query.cpu_ms", "ms"},
    {"query.parallel_eff", "ratio"},
    {"exec.scan.self_ms", "ms"},
    {"exec.scan.rows", "rows"},
    {"exec.scan.delta_rows", "rows"},
    {"exec.scan.groups_eliminated", "count"},
    {"exec.scan.elim_ratio", "ratio"},
    {"exec.expr.self_ms", "ms"},
    {"exec.join.build_ms", "ms"},
    {"exec.join.probe_ms", "ms"},
    {"exec.join.build_rows", "rows"},
    {"exec.join.build_fragments", "count"},
    {"exec.join.build_lock_wait_ms", "ms"},
    {"exec.join.bloom_drop_ratio", "ratio"},
    {"exec.agg.self_ms", "ms"},
    {"exec.agg.groups", "count"},
    {"exec.sort.self_ms", "ms"},
    {"exec.exchange.self_ms", "ms"},
    {"exec.exchange.degree", "count"},
    {"exec.exchange.rows", "rows"},
    {"exec.peak_mem_mb", "MiB"},
    {"exec.spill_bytes", "B"},
    {"check.self_vs_execute_err", "ratio"},
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
    {"failed_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<olap_dop1|olap_dop4|htap_trickle> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--source-digest <hex>] "
               "[--out-dir <dir>]\n",
               why);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  RunArgs args;
  Stamp stamp;
  std::string out_dir = ".bench_out";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--commit") {
      stamp.commit = value;
    } else if (flag == "--source-digest") {
      stamp.source_digest = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (args.seconds < 1 || args.seconds > 120) {
    return Usage("--seconds must be in [1, 120]");
  }
  if (args.workload != "olap_dop1" && args.workload != "olap_dop4" &&
      args.workload != "htap_trickle") {
    return Usage("unknown workload");
  }

  std::filesystem::create_directories(out_dir);
  const std::string run_name = args.workload + "-seed" +
                               std::to_string(args.seed) + "-trace" +
                               (args.trace ? "1" : "0");
  args.work_dir = out_dir + "/" + run_name + ".work" +
                  std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(args.work_dir);

  SpanLog spans(args.trace);
  RunOutput out;
  if (args.workload == "htap_trickle") {
    RunHtap(args, &spans, &out);
  } else {
    RunOlap(args, args.workload == "olap_dop4" ? 4 : 1, &spans, &out);
  }
  std::filesystem::remove_all(args.work_dir);

  const int64_t attempted = std::max<int64_t>(out.outcome.attempted(), 1);
  const int64_t failed = out.outcome.failed();
  if (args.trace) {
    out.metrics.Add("failed_ratio",
                    static_cast<double>(failed) /
                        static_cast<double>(attempted),
                    "ratio");
  }

  // Print exactly the declared metrics, in declared order.
  MetricSet printed;
  bool complete = true;
  auto emit = [&](const MetricDef& def) {
    double value = 0;
    std::string unit;
    if (!out.metrics.Get(def.name, &value, &unit)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   def.name);
      complete = false;
    } else if (unit != def.unit) {
      std::fprintf(stderr, "perfbench: metric %s has unit %s, expected %s\n",
                   def.name, unit.c_str(), def.unit);
      complete = false;
    }
    printed.Add(def.name, value, def.unit);
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }

  stamp.workload = args.workload;
  stamp.seed = args.seed;
  stamp.seconds = args.seconds;
  stamp.trace = args.trace;
  stamp.scale_factor = kScaleFactor;
  stamp.row_group_size = kRowGroupSize;
  stamp.lineitem_row_group_size = out.lineitem_row_group_size;
  stamp.dop = out.dop;
  stamp.dml_per_s = out.dml_per_s;
  const std::string stamp_json = StampJson(stamp);

  std::string failures = "[";
  for (const std::string& f : out.outcome.failures()) {
    if (failures.size() > 1) failures += ',';
    AppendJsonString(f, &failures);
  }
  failures += ']';
  const std::string report = "{\"stamp\":" + stamp_json +
                             ",\"attempted\":" + std::to_string(attempted) +
                             ",\"failed\":" + std::to_string(failed) +
                             ",\"failures\":" + failures +
                             ",\"metrics\":" + printed.Json() +
                             ",\"phases_s\":{" + out.phases + "}" + out.report +
                             "}\n";
  const std::string report_path = out_dir + "/" + run_name + ".json";
  WriteFile(report_path, report);
  if (args.trace) {
    WriteFile(out_dir + "/" + run_name + ".spans.json", spans.ToChromeJson());
  }

  for (const std::string& f : out.outcome.failures()) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::printf("report: %s (%lld operations, %lld failed, %lld spans)\n",
              report_path.c_str(), static_cast<long long>(attempted),
              static_cast<long long>(failed),
              static_cast<long long>(spans.size()));
  std::printf("STAMP %s\n", stamp_json.c_str());
  const bool correct = failed == 0 && complete;
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), printed.Json().c_str());
  std::fflush(stdout);
  return complete ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
