#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  if (values.empty()) return s;
  s.median = Quantile(values, 0.5);
  s.q1 = Quantile(values, 0.25);
  s.q3 = Quantile(values, 0.75);
  s.p95 = Quantile(values, 0.95);
  s.p99 = Quantile(values, 0.99);
  s.max = *std::max_element(values.begin(), values.end());
  return s;
}

std::string SummaryJson(const Summary& s) {
  return "{\"n\":" + std::to_string(s.n) + ",\"median\":" +
         JsonNumber(s.median) + ",\"q1\":" + JsonNumber(s.q1) +
         ",\"q3\":" + JsonNumber(s.q3) + ",\"p95\":" + JsonNumber(s.p95) +
         ",\"p99\":" + JsonNumber(s.p99) + ",\"max\":" + JsonNumber(s.max) +
         "}";
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// --- SpanLog -----------------------------------------------------------------

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int64_t SpanLog::Begin(const std::string& name, int64_t parent,
                       int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t SpanLog::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

int64_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

std::string SpanLog::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Compact thread numbering by first appearance.
  std::map<uint64_t, int> tids;
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, inserted] =
        tids.emplace(s.thread, static_cast<int>(tids.size()) + 1);
    if (i > 0) out += ',';
    out += "{\"name\":";
    AppendJsonString(s.name, &out);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(it->second) +
           ",\"ts\":" + JsonNumber(static_cast<double>(s.start_ns) / 1e3) +
           ",\"dur\":" +
           JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + "}}";
  }
  out += "]}";
  return out;
}

// --- MetricSet ---------------------------------------------------------------

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

bool MetricSet::Get(const std::string& name, double* value,
                    std::string* unit) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      *value = e.value;
      *unit = e.unit;
      return true;
    }
  }
  return false;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(entries_[i].name, &out);
    out += ":{\"value\":" + JsonNumber(entries_[i].value) + ",\"unit\":";
    AppendJsonString(entries_[i].unit, &out);
    out += '}';
  }
  out += '}';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string StampJson(const Stamp& stamp) {
  std::string out = "{\"workload\":";
  AppendJsonString(stamp.workload, &out);
  out += ",\"seed\":" + std::to_string(stamp.seed);
  out += ",\"seconds\":" + std::to_string(stamp.seconds);
  out += std::string(",\"trace\":") + (stamp.trace ? "true" : "false");
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":";
  AppendJsonString(CpuModel(), &out);
  out += ",\"build_type\":";
  AppendJsonString(PERFBENCH_BUILD_TYPE, &out);
  out += ",\"compiler\":";
  AppendJsonString(__VERSION__, &out);
  out += ",\"scale_factor\":" + JsonNumber(stamp.scale_factor);
  out += ",\"row_group_size\":" + std::to_string(stamp.row_group_size);
  out += ",\"lineitem_row_group_size\":" +
         std::to_string(stamp.lineitem_row_group_size);
  out += ",\"dop\":" + std::to_string(stamp.dop);
  out += ",\"dml_per_s\":" + JsonNumber(stamp.dml_per_s);
  out += ",\"commit\":";
  AppendJsonString(stamp.commit, &out);
  out += ",\"source_digest\":";
  AppendJsonString(stamp.source_digest, &out);
  out += '}';
  return out;
}

}  // namespace perfbench
