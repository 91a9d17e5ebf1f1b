#include "probe.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

double rss_kb() {
  std::ifstream in("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  unsigned long long v = 0;
  for (int i = 0; i < 10 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

int thread_count() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

Provenance base_provenance() {
  Provenance p;
  p.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  utsname u{};
  if (uname(&u) == 0) {
    p.emplace_back("kernel", std::string(u.sysname) + " " + u.release);
    p.emplace_back("machine", u.machine);
  }
#ifdef __clang__
  p.emplace_back("compiler", std::string("clang ") + __VERSION__);
#else
  p.emplace_back("compiler", std::string("gcc ") + __VERSION__);
#endif
  p.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  return p;
}

std::string provenance_json(const Provenance& p) {
  std::string out = "{";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + p[i].first + "\": \"";
    for (const char c : p[i].second) {
      if (c == '"' || c == '\\') out += '\\';
      if (c >= 0x20) out += c;
    }
    out += "\"";
  }
  return out + "}";
}

namespace {
bool has_label(const iov::obs::MetricSample& s, const char* key,
               const char* value) {
  if (key[0] == '\0') return true;
  for (const auto& kv : s.labels) {
    if (kv.first == key) return kv.second == value;
  }
  return false;
}
}  // namespace

double sum_metric(const iov::obs::MetricsSnapshot& s, const char* name,
                  const char* key, const char* value) {
  double total = 0;
  for (const auto& sample : s.samples) {
    if (sample.name == name && has_label(sample, key, value)) {
      total += sample.value;
    }
  }
  return total;
}

iov::obs::HistogramData sum_histogram(const iov::obs::MetricsSnapshot& s,
                                      const char* name, const char* key,
                                      const char* value) {
  iov::obs::HistogramData out;
  bool first = true;
  for (const auto& sample : s.samples) {
    if (sample.name != name ||
        sample.kind != iov::obs::MetricKind::kHistogram ||
        !has_label(sample, key, value)) {
      continue;
    }
    if (first) {
      out = sample.hist;
      first = false;
      continue;
    }
    if (sample.hist.bounds != out.bounds) continue;
    for (std::size_t i = 0; i < out.counts.size(); ++i) {
      out.counts[i] += sample.hist.counts[i];
    }
    out.count += sample.hist.count;
    out.sum += sample.hist.sum;
  }
  return out;
}

iov::obs::HistogramData histogram_delta(const iov::obs::HistogramData& after,
                                        const iov::obs::HistogramData& before) {
  iov::obs::HistogramData out = after;
  if (before.counts.size() != after.counts.size()) return out;
  for (std::size_t i = 0; i < out.counts.size(); ++i) {
    out.counts[i] -= std::min(out.counts[i], before.counts[i]);
  }
  out.count -= std::min(out.count, before.count);
  out.sum -= before.sum;
  return out;
}

double histogram_quantile(const iov::obs::HistogramData& h, double q) {
  std::uint64_t total = 0;
  for (const auto c : h.counts) total += c;
  if (total == 0 || h.bounds.empty()) return 0.0;
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(total) - 1e-9));
  double seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (c > 0 && seen + c >= rank) {
      if (i >= h.bounds.size()) return h.bounds.back();
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      const double hi = h.bounds[i];
      return lo + (hi - lo) * (rank - seen) / c;
    }
    seen += c;
  }
  return h.bounds.back();
}

}  // namespace perfbench
