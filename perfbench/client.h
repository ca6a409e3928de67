#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// The analyst: a closed-loop client that runs the five queries in seeded
// order with seeded parameters until a deadline, timing each execution
// from outside and (on traced streams) rolling its profile into layers.

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "warehouse.h"

namespace perfbench {

// Attempted/failed operations of a run, shared by its threads.
class Outcome {
 public:
  void Attempt();
  void Fail(const std::string& what);
  // Attempt() and Fail() for one operation that failed outright.
  void FailOperation(const std::string& what);
  int64_t attempted() const;
  int64_t failed() const;
  // The first few failure messages.
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct ClientOptions {
  int dop = 1;
  // Trace mode: every other stream is traced (spans, profile rollup, CPU
  // time, registry-free per-query numbers); the untraced streams in between
  // give the same run's untraced latencies, so the difference is the
  // benchmark's own tracing overhead.
  bool trace = false;
  // Expected answer per query; null = status check only (the data is
  // changing underneath).
  const Answers* answers = nullptr;
  // When set, samples num_delta_rows/num_rows of this table at each query
  // start.
  const vstore::ColumnStoreTable* delta_table = nullptr;
};

struct ClientResult {
  // Wall latency of each execution, per query: untraced streams only.
  std::array<std::vector<double>, kNumQueries> latency_ms;
  std::array<std::vector<double>, kNumQueries> traced_latency_ms;
  LayerTotals layers;
  std::vector<double> delta_fraction;
  int64_t completed = 0;
  double wall_s = 0;
};

// Runs streams until `deadline`. Each stream is a seeded permutation of the
// five queries.
void RunQueryClient(const vstore::Catalog& catalog, const QueryParams& params,
                    const ClientOptions& options, Clock::time_point deadline,
                    uint64_t seed, SpanLog* spans, Outcome* outcome,
                    ClientResult* result);

// Runs every query once at dop 1 and returns the answers (warm-up, and the
// before/after-restart comparison).
vstore::Result<Answers> BatchAnswers(const vstore::Catalog& catalog,
                                     const QueryParams& params);

// Checks `got` against `expected` for every query, counting each
// comparison as one operation.
void CheckAnswers(const Answers& got, const Answers& expected, bool exact,
                  const std::string& label, Outcome* outcome);

// Appends the end-to-end query metrics computed from a client result:
// qgeo_ms, qgeo_p90_ms, queries_per_s.
void ReportQueryMetrics(const ClientResult& r, MetricSet* out);
// Appends each query's median latency (q1_ms ... q12_ms) over the
// untraced executions.
void ReportQueryMedians(const ClientResult& r, MetricSet* out);
// JSON summaries (median, quartiles, n) of every query's latencies.
std::string QuerySummariesJson(const ClientResult& r);
// (geo-mean of traced medians - geo-mean of untraced medians) / untraced,
// in percent; 0 outside trace mode.
double TracingOverheadPct(const ClientResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
