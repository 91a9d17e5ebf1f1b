#include "workloads.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},         {"msgs_per_s", "1/s"},
      {"goodput_mb_s", "MB/s"}, {"lat_p50_ms", "ms"},
      {"cpu_us_per_msg", "us"}, {"rss_per_node_kb", "KiB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"apps.source_ns_p50", "ns"},
      {"apps.sink_ns_p50", "ns"},
      {"algorithm.process_ns_p50.n0", "ns"},
      {"algorithm.process_ns_p50.n1", "ns"},
      {"algorithm.process_ns_p50.n2", "ns"},
      {"algorithm.process_ns_p50.n3", "ns"},
      {"algorithm.process_ns_p99.n0", "ns"},
      {"algorithm.process_ns_p99.n1", "ns"},
      {"algorithm.process_ns_p99.n2", "ns"},
      {"algorithm.process_ns_p99.n3", "ns"},
      {"algorithm.calls_per_msg", "ratio"},
      {"engine.recv_wait_us_p50", "us"},
      {"engine.recv_wait_us_p99", "us"},
      {"engine.msgs_per_round", "msgs"},
      {"engine.source_pump_lag_ms_p50", "ms"},
      {"engine.source_pump_lag_ms_p99", "ms"},
      {"engine.threads", "count"},
      {"engine.open_fds", "count"},
      {"engine.link_failures", "count"},
      {"net.hop_us_p50", "us"},
      {"net.syscalls_per_msg", "ratio"},
      {"net.flush_msgs_p50", "msgs"},
      {"net.reactor_lag_us_p99", "us"},
      {"net.sys_cpu_share", "ratio"},
      {"message.pool_hit_ratio", "ratio"},
      {"sim.switch_msgs_per_wall_s", "1/s"},
      {"sim.delivered_msgs", "count"},
      {"sim.wall_s", "s"},
      {"trees.depth_max", "hops"},
      {"trees.degree_max", "count"},
      {"scenario.churn_events", "count"},
      {"scenario.verify_failures", "count"},
      {"scenario.gap_mean_s", "s"},
      {"trace.breakdown_ratio", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "chain4-1k", "chain4-64k", "chain4-cbr", "sim-churn"};
  return kNames;
}

iov::TimePoint due_time(iov::TimePoint start, double rate, std::uint64_t k) {
  return start +
         static_cast<iov::TimePoint>(std::llround(static_cast<double>(k) *
                                                  1e9 / rate));
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

std::uint32_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 of (seed, index): nearby inputs give unrelated outputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint32_t>(z ^ (z >> 31));
}

}  // namespace perfbench
