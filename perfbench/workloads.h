#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "client.h"
#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  // Scratch directory inside the checkout (durable table files).
  std::string work_dir;
};

// What a workload hands back to main: its metrics (end-to-end ones in an
// untraced run, per-layer ones in a traced run), its outcome, and extra
// JSON sections for the run report.
struct RunOutput {
  MetricSet metrics;
  Outcome outcome;
  std::string report;  // ,"key":value,... appended to the report object
  double dml_per_s = 0;
  int dop = 0;
  int64_t lineitem_row_group_size = kRowGroupSize;
  // "phase":seconds,... — where the run's wall time went.
  std::string phases;
};

// Appends the seconds since *start to out->phases under `name` and restarts
// the clock.
void MarkPhase(const char* name, Clock::time_point* start, RunOutput* out);

// olap_dop1 / olap_dop4: the read-only query stream at `dop`.
void RunOlap(const RunArgs& args, int dop, SpanLog* spans, RunOutput* out);
// htap_trickle: the durable trickle-DML mix beside the dop-4 stream.
void RunHtap(const RunArgs& args, SpanLog* spans, RunOutput* out);

// Shared by both: kSetups set-ups (median reported), returning the last
// warehouse. Appends the set-up metrics for the requested mode.
vstore::Result<Warehouse> RepeatedSetup(const RunArgs& args,
                                        const std::string& durable_dir,
                                        SpanLog* spans, RunOutput* out);

// The run's query parameters, drawn from the seed.
QueryParams RunParams(uint64_t seed);

// The query-side metrics both workload families report — per-layer ones
// (with the expression-cache ratio from the registry deltas) in a traced
// run, end-to-end ones otherwise — and the report sections they share.
void ReportClient(const RunArgs& args, const ClientResult& r,
                  const RegistrySnapshot& before,
                  const RegistrySnapshot& after,
                  const QueryParams& params, double stored_bytes_per_row, double rss_mb,
                  RunOutput* out);

// Trims the heap and resets the kernel's peak-RSS mark, so rss_peak_mb
// covers the loaded warehouse and what the workload adds to it; false when
// the kernel refuses the reset.
bool StartPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
