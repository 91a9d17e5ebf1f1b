// The benchmark's workloads and the result every one of them returns.
// README.md in this directory says why each workload exists and which
// layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "probe.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out = "perfbench-spans.jsonl";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Result {
  /// Outputs checked and found right.
  bool correct = true;
  /// Operations the workload attempted, and those that failed (see the
  /// workload's fail rule in README.md).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end readings keyed by metric name (end_to_end_metrics()).
  std::map<std::string, double> end_to_end;
  /// Figures printed for reading but left out of the result: too noisy on
  /// a shared host to hold a regression bound on every workload.
  std::vector<Metric> figures;
  /// Layer readings of the traced run, keyed by metric name; names the
  /// workload does not exercise stay out and are reported as 0.
  std::map<std::string, double> layers;
  Provenance provenance;
  /// Human-readable findings (correctness violations, self-checks).
  std::vector<std::string> notes;
};

/// The end-to-end metrics, with units, that every workload reports.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// The per-layer metrics, with units, that every traced run reports.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one chain workload (chain4-1k, chain4-64k, chain4-cbr).
Result run_chain(const Options& options);
/// Runs the sim-churn workload.
Result run_churn(const Options& options);

/// Open-loop schedule: message `k` of a source that started at `start`
/// and emits `rate` messages per second is due at start + k / rate.
iov::TimePoint due_time(iov::TimePoint start, double rate, std::uint64_t k);

/// printf-formats one number, for the human-readable lines.
std::string fmt(const char* format, double v);

/// A 32-bit seed derived from the run seed and an index (payload pattern
/// `index`, or scenario `index` of a run).
std::uint32_t mix_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
