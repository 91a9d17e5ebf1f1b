// Readings taken from outside the library: process resources from /proc
// and getrusage, run provenance, and sums and deltas over the metric
// snapshots engines and the simulator already export (docs/METRICS.md).
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Resident set size of this process, in KiB.
double rss_kb();
/// Process user and system CPU seconds so far.
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
  double total() const { return user_s + sys_s; }
};
CpuTimes cpu_times();
/// Host CPU tick counters from /proc/stat: all ticks, and those stolen by
/// the hypervisor. The steal share over a run shows how much the machine
/// was shared while it measured.
struct HostTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
HostTicks host_ticks();
/// OS threads in this process.
int thread_count();

/// Key/value pairs describing where and how a result was produced.
using Provenance = std::vector<std::pair<std::string, std::string>>;
/// Host, kernel, compiler and build facts common to every workload.
Provenance base_provenance();
/// One-line JSON object of `p` (values are strings).
std::string provenance_json(const Provenance& p);

/// Sum of every counter or gauge sample called `name` whose labels
/// include `key`=`value` (no filter when `key` is empty).
double sum_metric(const iov::obs::MetricsSnapshot& s, const char* name,
                  const char* key = "", const char* value = "");

/// Bucket counts of every histogram sample called `name` (with label
/// `key`=`value` when `key` is not empty), added together. Histograms
/// with different bounds are not mixed: the first one found fixes the
/// bounds and later mismatching ones are skipped.
iov::obs::HistogramData sum_histogram(const iov::obs::MetricsSnapshot& s,
                                      const char* name, const char* key = "",
                                      const char* value = "");
/// `after` minus `before`, bucket by bucket (same bounds expected).
iov::obs::HistogramData histogram_delta(const iov::obs::HistogramData& after,
                                        const iov::obs::HistogramData& before);
/// Quantile estimate of a bucketed histogram: nearest-rank bucket, then
/// linear interpolation inside it. 0 when empty; the last finite bound
/// when the rank falls in the +inf bucket.
double histogram_quantile(const iov::obs::HistogramData& h, double q);

}  // namespace perfbench
