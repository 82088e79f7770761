// Statistics the harness reports: exact percentiles over per-operation
// samples and guarded ratios. Kept free of any program
// dependency so the self-test can pin the math directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation
/// between closest ranks (the "R-7" / numpy default rule). Sorts a copy;
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median of `samples` (percentile 0.5).
[[nodiscard]] double median(std::vector<double> samples);

/// Element-wise median of rows of equal length: out[i] is the median of
/// rows[k][i] over every row k. Empty when there are no rows.
[[nodiscard]] std::vector<double> column_medians(
    const std::vector<std::vector<double>>& rows);

/// num / den, or 0 when den is 0.
[[nodiscard]] double ratio(double num, double den);

/// Collects per-operation latencies and failures. A failed operation
/// counts as missing every latency limit: it enters the latency sample as
/// +infinity, so it lands above any percentile it can influence. Samples
/// are stored as float (7 significant digits) so a million-call run keeps
/// the harness's own memory small next to the program's.
class LatencyLog {
 public:
  void ok(double micros) { samples_.push_back(static_cast<float>(micros)); }
  void fail();
  [[nodiscard]] uint64_t attempted() const { return samples_.size(); }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  /// The q-quantile, by the same rule as percentile(); sorts in place.
  [[nodiscard]] double p(double q);
  /// Append `other`'s samples and release its storage.
  void absorb(LatencyLog& other);

 private:
  std::vector<float> samples_;
  uint64_t failed_ = 0;
};

}  // namespace perfbench
