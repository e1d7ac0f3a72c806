#ifndef HRDM_BENCH_STATS_H_
#define HRDM_BENCH_STATS_H_

// Sample sets and the metric report the benchmark prints.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace hrdm_bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A set of measurements (times or counts) with order statistics.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }
  double Mean() const { return empty() ? 0 : Sum() / double(size()); }

  /// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const {
    if (values_.empty()) return 0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double rank = std::ceil(q * double(values_.size()));
    const size_t idx = rank < 1 ? 0 : size_t(rank) - 1;
    return values_[std::min(idx, values_.size() - 1)];
  }
  double Median() const { return Quantile(0.5); }

  /// The highest whole percentile, at most 99 and at least 50, that leaves
  /// at least ten samples beyond it.
  int TailPercentile() const {
    const double n = double(values_.size());
    for (int p = 99; p > 50; --p) {
      if (n - std::ceil(p / 100.0 * n) >= 10) return p;
    }
    return 50;
  }
  double Tail() const { return Quantile(TailPercentile() / 100.0); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Metrics in print order. Values keep every digit the double holds.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };

  void Add(std::string name, double value, std::string unit,
           size_t samples = 1) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// `"name": {"value": v, "unit": "u"}, ...`
  std::string MetricsJson() const {
    std::string out;
    for (const Metric& m : metrics_) {
      if (!out.empty()) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out;
  }

  /// `"name": samples, ...`
  std::string SamplesJson() const {
    std::string out;
    for (const Metric& m : metrics_) {
      if (!out.empty()) out += ", ";
      out += "\"" + m.name + "\": " + std::to_string(m.samples);
    }
    return out;
  }

  static std::string Number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace hrdm_bench

#endif  // HRDM_BENCH_STATS_H_
