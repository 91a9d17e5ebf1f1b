#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {
// ln(1.01): bucket i holds values in [1.01^i, 1.01^(i+1)).
const double kLogStep = std::log(1.01);
constexpr std::size_t kBuckets = 2800;  // 1.01^2800 > 1e12
}  // namespace

double tail_level(std::size_t n) {
  if (n <= 10) return 0.0;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The small epsilon keeps q*n = 990.0000001 from rounding up a rank.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Quartiles::iqr_share() const {
  return median == 0 ? 0.0 : (q3 - q1) / median;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles(method="exclusive", n=4): position i*(ld+1)/4,
  // clamped to [1, ld-1], linear between the neighbouring order stats.
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                  values[j] * static_cast<double>(delta)) /
                 4.0;
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

LogHistogram::LogHistogram() : buckets_(kBuckets, 0) {}

void LogHistogram::add(double x) {
  std::size_t i = 0;
  if (x > 1.0) {
    i = std::min(static_cast<std::size_t>(std::log(x) / kLogStep),
                 kBuckets - 1);
  }
  buckets_[i] += 1;
  count_ += 1;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double n = static_cast<double>(count_);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (seen + buckets_[i] >= rank) {
      // Bucket 0 also holds everything at or below 1.
      if (i == 0) return 1.0;
      // Spread the bucket's samples evenly (in log space) across it, so
      // the estimate moves with the counts instead of sticking to a few
      // fixed values.
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets_[i]);
      return std::exp((static_cast<double>(i) + within) * kLogStep);
    }
    seen += buckets_[i];
  }
  return std::exp(static_cast<double>(kBuckets) * kLogStep);
}

double LogHistogram::tail() const {
  const double level = tail_level(count_);
  return level == 0 ? 0.0 : quantile(level);
}

}  // namespace perfbench
