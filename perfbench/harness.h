#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: sample summaries
// (median/quartiles, never best-of-N), the benchmark's own span log, the
// metric set printed at the end of a run, and the host/config stamp.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json_util.h"

namespace perfbench {

using vstore::AppendJsonString;
using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty one.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double GeoMean(const std::vector<double>& values);

// A timing reported with its spread and sample count.
struct Summary {
  int64_t n = 0;
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};
Summary Summarize(const std::vector<double>& values);
std::string SummaryJson(const Summary& s);

// CPU time of the process (all threads) or of the calling thread, in ms.
double ProcessCpuMs();
double ThreadCpuMs();
// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();

// --- Span log ----------------------------------------------------------------
// The benchmark's own trace: one span per call into a layer's public API,
// with its parent span and the request (query execution, DML statement,
// mover pass, set-up) it belongs to. Spans stay in memory and are written
// out once the run has ended. When disabled, Begin/End cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  // Returns the span id (-1 when disabled). `parent` -1 = root.
  int64_t Begin(const std::string& name, int64_t parent, int64_t request);
  void End(int64_t id);
  // Allocates a request id (unique within the run).
  int64_t NewRequest();

  // Chrome trace-event JSON ("ph":"X" events; ids, parents and request ids
  // under "args"), loadable in chrome://tracing or ui.perfetto.dev.
  std::string ToChromeJson() const;
  int64_t size() const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    int64_t request = 0;
    uint64_t thread = 0;
  };

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards spans_ and next_request_
  std::vector<Span> spans_;
  int64_t next_request_ = 1;
};

// RAII span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t parent,
             int64_t request)
      : log_(log), id_(log->Begin(name, parent, request)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

// --- Metrics -----------------------------------------------------------------
// Named values with units, printed as the "metrics" object of the result
// line. Insertion order is kept.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json() const;
  // False when `name` was never added.
  bool Get(const std::string& name, double* value, std::string* unit) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string JsonNumber(double v);

// Host and configuration stamp carried by every output: results recorded
// on another host or with another configuration must never be compared
// with these by mistake.
struct Stamp {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string commit;
  std::string source_digest;
  double scale_factor = 0;
  int64_t row_group_size = 0;
  int64_t lineitem_row_group_size = 0;
  int dop = 0;
  double dml_per_s = 0;  // 0 for read-only workloads
};
std::string StampJson(const Stamp& stamp);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
