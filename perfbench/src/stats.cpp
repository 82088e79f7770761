#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

template <class T>
double percentile_of_sorted(const std::vector<T>& samples, double q) {
  if (samples.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0) return samples[lo];
  if (std::isinf(samples[hi])) return std::numeric_limits<double>::infinity();
  return static_cast<double>(samples[lo]) +
         (static_cast<double>(samples[hi]) - static_cast<double>(samples[lo])) *
             frac;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_of_sorted(samples, q);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

std::vector<double> column_medians(
    const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  if (rows.empty()) return out;
  std::vector<double> column(rows.size());
  for (size_t i = 0; i < rows.front().size(); ++i) {
    for (size_t k = 0; k < rows.size(); ++k) column[k] = rows[k].at(i);
    out.push_back(median(column));
  }
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void LatencyLog::fail() {
  samples_.push_back(std::numeric_limits<float>::infinity());
  ++failed_;
}

double LatencyLog::p(double q) {
  std::sort(samples_.begin(), samples_.end());
  return percentile_of_sorted(samples_, q);
}

void LatencyLog::absorb(LatencyLog& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  failed_ += other.failed_;
  other = LatencyLog{};
}

}  // namespace perfbench
