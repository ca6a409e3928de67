#include "client.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

using vstore::QueryResult;
using vstore::Result;

void Outcome::Attempt() {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
}

void Outcome::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Outcome::FailOperation(const std::string& what) {
  Attempt();
  Fail(what);
}

int64_t Outcome::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Outcome::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Outcome::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

void RunQueryClient(const vstore::Catalog& catalog, const QueryParams& params,
                    const ClientOptions& options, Clock::time_point deadline,
                    uint64_t seed, SpanLog* spans, Outcome* outcome,
                    ClientResult* result) {
  vstore::QueryOptions qo;
  qo.mode = vstore::ExecutionMode::kBatch;
  qo.dop = options.dop;
  vstore::QueryExecutor exec(&catalog, qo);
  vstore::Random rng(seed ^ 0x5157);
  // Plans are built once per query: planning from the logical plan is part
  // of every execution, building it is not.
  std::vector<vstore::PlanPtr> plans;
  for (int q = 0; q < kNumQueries; ++q) {
    plans.push_back(BuildQuery(q, catalog, params));
  }

  SpanLog untraced_log(false);
  const Clock::time_point start = Clock::now();
  for (int64_t stream = 0; Clock::now() < deadline; ++stream) {
    const bool traced = options.trace && stream % 2 == 1;
    std::array<int, kNumQueries> order;
    std::iota(order.begin(), order.end(), 0);
    for (int i = kNumQueries - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[static_cast<size_t>(rng.Uniform(0, i))]);
    }
    for (int q : order) {
      if (Clock::now() >= deadline) break;
      const vstore::PlanPtr& plan = plans[static_cast<size_t>(q)];
      if (options.delta_table != nullptr) {
        const double rows =
            static_cast<double>(options.delta_table->num_rows());
        result->delta_fraction.push_back(
            rows > 0 ? static_cast<double>(
                           options.delta_table->num_delta_rows()) /
                           rows
                     : 0);
      }
      SpanLog* log = traced ? spans : &untraced_log;
      const int64_t request = traced ? spans->NewRequest() : 0;
      const std::string name = kQueryNames[static_cast<size_t>(q)];
      ScopedSpan query_span(log, "query:" + name, -1, request);
      outcome->Attempt();
      // At dop 1 the query runs on this thread alone; at higher dop its
      // exchange workers are other threads of this process.
      auto cpu_now = [&] {
        return options.dop == 1 ? ThreadCpuMs() : ProcessCpuMs();
      };
      const double cpu_start = traced ? cpu_now() : 0;
      const Clock::time_point t0 = Clock::now();
      Result<QueryResult> r = [&] {
        ScopedSpan span(log, "QueryExecutor::Execute", query_span.id(),
                        request);
        return exec.Execute(plan);
      }();
      const double wall_ms = MsSince(t0);
      const double cpu_ms = traced ? cpu_now() - cpu_start : 0;
      if (!r.ok()) {
        outcome->Fail(name + ": " + r.status().ToString());
        continue;
      }
      ++result->completed;
      if (options.answers != nullptr) {
        ScopedSpan span(log, "check", query_span.id(), request);
        std::string why;
        if (!SameAnswer(r.value().data,
                        (*options.answers)[static_cast<size_t>(q)],
                        /*exact=*/false, &why)) {
          outcome->Fail(name + " differs from the row-mode oracle: " + why);
        }
      }
      if (traced) {
        result->traced_latency_ms[static_cast<size_t>(q)].push_back(wall_ms);
        result->layers.Add(q, AnalyzeQuery(r.value()), cpu_ms, wall_ms,
                           options.dop);
      } else {
        result->latency_ms[static_cast<size_t>(q)].push_back(wall_ms);
      }
    }
  }
  result->wall_s = MsSince(start) / 1e3;
}

Result<Answers> BatchAnswers(const vstore::Catalog& catalog,
                             const QueryParams& params) {
  vstore::QueryOptions qo;
  qo.mode = vstore::ExecutionMode::kBatch;
  vstore::QueryExecutor exec(&catalog, qo);
  Answers answers;
  for (int q = 0; q < kNumQueries; ++q) {
    VSTORE_ASSIGN_OR_RETURN(QueryResult r,
                            exec.Execute(BuildQuery(q, catalog, params)));
    answers.push_back(std::move(r.data));
  }
  return answers;
}

void CheckAnswers(const Answers& got, const Answers& expected, bool exact,
                  const std::string& label, Outcome* outcome) {
  for (size_t q = 0; q < got.size(); ++q) {
    outcome->Attempt();
    std::string why;
    if (!SameAnswer(got[q], expected[q], exact, &why)) {
      outcome->Fail(label + " " + kQueryNames[q] + ": " + why);
    }
  }
}

void ReportQueryMetrics(const ClientResult& r, MetricSet* out) {
  std::vector<double> medians;
  std::vector<double> ratios;  // each latency over its own query's median
  for (const std::vector<double>& samples : r.latency_ms) {
    const double median = Median(samples);
    medians.push_back(median);
    for (double v : samples) ratios.push_back(median > 0 ? v / median : 0);
  }
  const double qgeo = GeoMean(medians);
  out->Add("qgeo_ms", qgeo, "ms");
  out->Add("qgeo_p90_ms", qgeo * Quantile(ratios, 0.9), "ms");
  out->Add("queries_per_s",
           r.wall_s > 0 ? static_cast<double>(r.completed) / r.wall_s : 0,
           "1/s");
}

void ReportQueryMedians(const ClientResult& r, MetricSet* out) {
  for (size_t q = 0; q < kNumQueries; ++q) {
    out->Add(std::string(kQueryNames[q]) + "_ms", Median(r.latency_ms[q]),
             "ms");
  }
}

std::string QuerySummariesJson(const ClientResult& r) {
  std::string out = "{";
  for (size_t q = 0; q < kNumQueries; ++q) {
    if (q > 0) out += ',';
    out += std::string("\"") + kQueryNames[q] + "\":{\"untraced\":" +
           SummaryJson(Summarize(r.latency_ms[q])) +
           ",\"traced\":" + SummaryJson(Summarize(r.traced_latency_ms[q])) +
           "}";
  }
  out += '}';
  return out;
}

double TracingOverheadPct(const ClientResult& r) {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (size_t q = 0; q < kNumQueries; ++q) {
    if (r.traced_latency_ms[q].empty() || r.latency_ms[q].empty()) return 0;
    traced.push_back(Median(r.traced_latency_ms[q]));
    untraced.push_back(Median(r.latency_ms[q]));
  }
  const double base = GeoMean(untraced);
  return base > 0 ? (GeoMean(traced) - base) / base * 100.0 : 0;
}

}  // namespace perfbench
