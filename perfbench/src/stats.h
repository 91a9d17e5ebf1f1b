// Summary statistics shared by every workload: the tail-percentile rule,
// the quartile summary the spread checks use, and a fixed-size
// log-bucket histogram so a run's memory does not grow with its length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The tail level reported as "p99": the highest percentile with at least
/// ten samples beyond it, capped at 0.99. Returns 0 when `n` <= 10 (no
/// percentile has ten samples beyond it).
double tail_level(std::size_t n);

/// Nearest-rank quantile of ascending `sorted` at level `q` in [0, 1]:
/// the smallest sample with at least q*n samples at or below it. With
/// q = tail_level(n) exactly ten samples lie above the returned one.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median and quartiles of a set of per-run values, computed like
/// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
/// so the benchmark's own spread figures match the ones anyone gets
/// from the printed values.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  /// (q3 - q1) / median; 0 when the median is 0.
  double iqr_share() const;
};
/// Needs at least two values; a single value gives q1 = median = q3.
Quartiles quartiles(std::vector<double> values);

/// Median of `values` (middle element, or mean of the middle two).
double median(std::vector<double> values);

/// Counts of positive values in geometric buckets 1% wide, from 1 to
/// 1e12 in the caller's unit. A quantile is placed inside its bucket by
/// its rank among the bucket's samples, so it is within 1% of the exact
/// sample.
/// Not thread safe: one writer, read after the writer has stopped.
class LogHistogram {
 public:
  LogHistogram();

  void add(double x);
  void merge(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  /// Nearest-rank quantile (see quantile_sorted); 0 when empty.
  double quantile(double q) const;
  /// quantile(tail_level(count())); 0 when count() <= 10.
  double tail() const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
