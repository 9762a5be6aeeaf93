#include "bench.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/json.h"

namespace perfbench {

using bundlemine::JsonValue;
using bundlemine::MutexLock;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Tail(std::vector<double> values, double* percentile) {
  if (values.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank = n >= 11 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return values[rank];
}

double Share(std::int64_t part, std::int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

void Report::Attempt(bool ok) { Count(1, ok ? 0 : 1); }

void Report::Count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

std::string Report::ResultLine() const {
  JsonValue metrics = JsonValue::Object();
  for (const Metric& m : metrics_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Double(m.value));
    entry.Set("unit", JsonValue::Str(m.unit));
    metrics.Set(m.name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(correct()));
  out.Set("attempted", JsonValue::Int(attempted_));
  out.Set("failed", JsonValue::Int(failed_));
  out.Set("metrics", std::move(metrics));
  return out.Dump(0);
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const std::string& name, std::int64_t request, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  MutexLock lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const std::int64_t now = NowNs();
  MutexLock lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::size_t Tracer::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::SelfSecondsPerSpan() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Covered time is the union of the child intervals, so overlapping
    // children (work on several threads) are not subtracted twice.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans_[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, spans_[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    self[i] = 1e-9 * static_cast<double>(spans_[i].end_ns -
                                         spans_[i].start_ns - covered);
  }
  return self;
}

double Tracer::CostPerSpanSeconds() {
  constexpr int kSpans = 20000;
  Tracer scratch(true);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&scratch, "overhead.probe", i);
  }
  return SecondsSince(start) / kSpans;
}

bool Tracer::Write(const std::string& path,
                   const std::map<std::string, std::string>& header) const {
  JsonValue doc = JsonValue::Object();
  for (const auto& [key, value] : header) doc.Set(key, JsonValue::Str(value));
  JsonValue spans = JsonValue::Array();
  JsonValue summary = JsonValue::Object();
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonValue row = JsonValue::Object();
      row.Set("id", JsonValue::Int(static_cast<std::int64_t>(i)));
      row.Set("name", JsonValue::Str(s.name));
      row.Set("request", JsonValue::Int(s.request));
      row.Set("parent", JsonValue::Int(s.parent));
      row.Set("start_ns", JsonValue::Int(s.start_ns));
      row.Set("end_ns", JsonValue::Int(s.end_ns));
      spans.Add(std::move(row));
    }
    const std::vector<double> self = SelfSecondsPerSpan();
    std::map<std::string, double> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      totals[spans_[i].name] += self[i];
    }
    for (const auto& [name, seconds] : totals) {
      summary.Set(name, JsonValue::Double(seconds));
    }
  }
  doc.Set("self_seconds", std::move(summary));
  doc.Set("spans", std::move(spans));
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string text = doc.Dump(1) + "\n";
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench
