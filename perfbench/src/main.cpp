// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--commit <id>] [--source-digest <hex>]
//
// Human-readable lines (provenance, every metric with its unit, the
// failure ratio, self-check findings) come first; the last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when an output was wrong, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--commit <id>] "
               "[--source-digest <hex>]\nworkloads:",
               argv0);
  for (const auto& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string commit = "unknown";
  std::string digest = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* val = argv[++i];
    std::uint64_t n = 0;
    if (std::strcmp(arg, "--workload") == 0) {
      o.workload = val;
      have_workload = true;
    } else if (std::strcmp(arg, "--seed") == 0 && parse_u64(val, &n)) {
      o.seed = n;
      have_seed = true;
    } else if (std::strcmp(arg, "--seconds") == 0) {
      o.seconds = std::atof(val);
      have_seconds = o.seconds > 0 && o.seconds <= 120;
    } else if (std::strcmp(arg, "--trace") == 0 &&
               (std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0)) {
      o.trace = val[0] == '1';
      have_trace = true;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      o.trace_out = val;
    } else if (std::strcmp(arg, "--commit") == 0) {
      commit = val;
    } else if (std::strcmp(arg, "--source-digest") == 0) {
      digest = val;
    } else {
      return usage(argv[0]);
    }
  }
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= w == o.workload;
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !known) {
    return usage(argv[0]);
  }
  iov::Logger::instance().set_level(iov::LogLevel::kError);

  const perfbench::HostTicks ticks0 = perfbench::host_ticks();
  Result r = o.workload == "sim-churn" ? perfbench::run_churn(o)
                                       : perfbench::run_chain(o);
  const perfbench::HostTicks ticks1 = perfbench::host_ticks();

  perfbench::Provenance p = perfbench::base_provenance();
  p.emplace_back("git_commit", commit);
  p.emplace_back("source_digest", digest);
  p.emplace_back("workload", o.workload);
  p.emplace_back("seed", std::to_string(o.seed));
  p.emplace_back("seconds", number(o.seconds));
  p.emplace_back("trace", o.trace ? "1" : "0");
  p.insert(p.end(), r.provenance.begin(), r.provenance.end());
  if (ticks1.total > ticks0.total) {
    p.emplace_back("host_steal_share",
                   number(static_cast<double>(ticks1.steal - ticks0.steal) /
                          static_cast<double>(ticks1.total - ticks0.total)));
  }
  std::printf("provenance %s\n", perfbench::provenance_json(p).c_str());

  std::vector<Metric> shown;
  if (o.trace) {
    for (const auto& [name, unit] : perfbench::layer_metrics()) {
      const auto it = r.layers.find(name);
      shown.push_back({name, unit, it == r.layers.end() ? 0.0 : it->second});
    }
  } else {
    for (const auto& [name, unit] : perfbench::end_to_end_metrics()) {
      const auto it = r.end_to_end.find(name);
      if (it == r.end_to_end.end()) {
        r.correct = false;
        r.notes.push_back(name + " was not measured");
      }
      shown.push_back({name, unit, it == r.end_to_end.end() ? 0.0 : it->second});
    }
  }
  for (Metric& m : shown) {
    std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) {
      r.correct = false;
      r.notes.push_back(m.name + " is not a finite number");
      m.value = 0;
    }
  }
  for (const Metric& m : r.figures) {
    std::printf("figure %-32s %16.6f %s (not in the result)\n",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fail_ratio %.6f (%llu of %llu failed)\n",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto& note : r.notes) std::printf("note %s\n", note.c_str());
  if (r.attempted == 0) {
    r.correct = false;
    r.attempted = 1;
    r.failed = 1;
  }

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + shown[i].name + "\": {\"value\": " + number(shown[i].value) +
            ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
