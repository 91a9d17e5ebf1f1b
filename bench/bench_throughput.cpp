// Wire-path throughput (DESIGN.md §8): loopback pair and relay chain,
// back-to-back traffic over the batched zero-copy wire path
// (scatter-gather sends + FrameReader bulk decode + pooled large-frame
// receives on the shared epoll reactor).
//
// Reports messages/s and MB/s from the terminal sink, plus
// syscalls-per-wire-message summed over every link of every engine
// (iov_link_syscalls_total / iov_link_messages_total). Emits a JSON
// artifact (default BENCH_throughput.json; see
// tools/run_bench_throughput.sh).
//
// Each configuration is run three times and every figure reported is
// the median of the three, field by field (`runs` records the count),
// so one window disturbed by host load does not move a row. The measured
// window scales with payload size (4x at 64 KB) so the per-run message
// count stays high enough for a stable estimate at every tier. Rows
// that receive large frames also record `pool_hit_rate` — the slab
// pool's share of recycled large-frame payload acquisitions over the
// window (~1.0 means zero per-message payload allocations; DESIGN.md
// §8). The JSON records the host's `nproc`.
//
// Flags:
//   --out <path>   JSON output path (default BENCH_throughput.json)
//   --secs <s>     base measured window per run (default 1.0)
//   --smoke        ~10 s CI variant: chain @ 1 KB + 64 KB, the median of
//                  three short windows each; exits non-zero unless the
//                  chain stays at < 0.25 syscalls/msg at 1 KB (batched
//                  flushes and bulk decode) and, at 64 KB (the slab fast
//                  path), at <= 2.1 syscalls/msg with a pool hit rate
//                  >= 0.95. At 64 KB the floor is 1.5 (header recv +
//                  payload recv + one sendmsg per hop, over the two
//                  directions counted); a 4-core host measures 1.88-1.99
//                  because the receiver wakes once per arriving segment.
//                  A pool that stops recycling reads near 0.
//   --baseline <path>  with --smoke, also fails when chain @ 64 KB moves
//                  less than 0.7x the MB/s of that JSON's chain4 64 KB
//                  row (the committed BENCH_throughput.json; ctest
//                  passes it).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithm/relay.h"
#include "apps/sink.h"
#include "apps/source.h"
#include "bench_util.h"
#include "common/clock.h"
#include "engine/engine.h"
#include "obs/metric_names.h"

namespace {

using namespace iov;         // NOLINT
using namespace iov::bench;  // NOLINT
using engine::Engine;
using engine::EngineConfig;

constexpr u32 kApp = 1;
constexpr int kRuns = 3;  ///< windows per configuration (median taken)

struct RunResult {
  std::string topology;
  std::size_t payload = 0;
  double msgs_per_sec = 0;
  double bytes_per_sec = 0;
  double syscalls_per_msg = 0;
  u64 sink_msgs = 0;
  /// Share of large-frame slab acquisitions served from the freelist
  /// during the window, summed over every engine; negative when the
  /// config never touched the pool (small frames).
  double pool_hit_rate = -1.0;
  int runs = 1;  ///< windows the median fields above were taken over
};

struct Node {
  std::unique_ptr<Engine> engine;
  RelayAlgorithm* relay = nullptr;
};

Node make_node() {
  auto algorithm = std::make_unique<RelayAlgorithm>();
  Node n;
  n.relay = algorithm.get();
  EngineConfig config;
  config.recv_buffer_msgs = 1024;
  config.send_buffer_msgs = 1024;
  // Deep switch rounds so sources and relays hand each link enough
  // backlog for full-size flushes.
  config.default_switch_weight = 64;
  // Pin the socket buffers explicitly (to the engine default) so the
  // committed rows keep the same locked size regardless of future
  // default changes: auto-tuned buffers are subject to the kernel's
  // window clamp, which intermittently collapses a saturated loopback
  // link into RTO-paced retransmission stalls (see
  // EngineConfig::socket_buffer_bytes).
  config.socket_buffer_bytes = 256 * 1024;
  n.engine = std::make_unique<Engine>(config, std::move(algorithm));
  return n;
}

/// Sums a counter metric across every link (all peers, both dirs).
u64 sum_counter(const Engine& e, const char* name) {
  double total = 0;
  for (const auto& s : e.metrics().snapshot().samples) {
    if (s.name == name) total += s.value;
  }
  return static_cast<u64>(total);
}

/// Sums a counter, keeping only samples carrying `key`=`value`.
u64 sum_counter_labeled(const Engine& e, const char* name, const char* key,
                        const char* value) {
  double total = 0;
  for (const auto& s : e.metrics().snapshot().samples) {
    if (s.name != name) continue;
    for (const auto& kv : s.labels) {
      if (kv.first == key && kv.second == value) {
        total += s.value;
        break;
      }
    }
  }
  return static_cast<u64>(total);
}

/// `hops` engines in a line: source at [0], sink at [hops-1].
RunResult run_case(std::size_t hops, std::size_t payload, double secs) {
  RealClock clock;
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < hops; ++i) nodes.push_back(make_node());

  nodes.front().engine->register_app(
      kApp, std::make_shared<apps::BackToBackSource>(payload));
  auto sink = std::make_shared<apps::SinkApp>();
  nodes.back().engine->register_app(kApp, sink);
  for (auto& n : nodes) {
    if (!n.engine->start()) {
      std::fprintf(stderr, "engine start failed\n");
      std::exit(1);
    }
  }
  for (std::size_t i = 0; i + 1 < hops; ++i) {
    nodes[i].relay->add_child(kApp, nodes[i + 1].engine->self());
  }
  nodes.back().relay->set_consume(kApp, true);
  nodes.front().engine->deploy_source(kApp);

  sleep_for(seconds(secs * 0.3));  // dial + settle
  const auto s0 = sink->stats(clock.now());
  u64 sys0 = 0;
  u64 wire0 = 0;
  u64 hit0 = 0;
  u64 miss0 = 0;
  for (const auto& n : nodes) {
    sys0 += sum_counter(*n.engine, obs::names::kLinkSyscallsTotal);
    wire0 += sum_counter(*n.engine, obs::names::kLinkMessagesTotal);
    hit0 += sum_counter_labeled(*n.engine, obs::names::kPoolSlabAcquiresTotal,
                                "result", "hit");
    miss0 += sum_counter_labeled(*n.engine, obs::names::kPoolSlabAcquiresTotal,
                                 "result", "miss");
  }
  const TimePoint t0 = clock.now();
  sleep_for(seconds(secs));
  const auto s1 = sink->stats(clock.now());
  u64 sys1 = 0;
  u64 wire1 = 0;
  u64 hit1 = 0;
  u64 miss1 = 0;
  for (const auto& n : nodes) {
    sys1 += sum_counter(*n.engine, obs::names::kLinkSyscallsTotal);
    wire1 += sum_counter(*n.engine, obs::names::kLinkMessagesTotal);
    hit1 += sum_counter_labeled(*n.engine, obs::names::kPoolSlabAcquiresTotal,
                                "result", "hit");
    miss1 += sum_counter_labeled(*n.engine, obs::names::kPoolSlabAcquiresTotal,
                                 "result", "miss");
  }
  const double elapsed = to_seconds(clock.now() - t0);

  for (auto& n : nodes) n.engine->stop();
  for (auto& n : nodes) n.engine->join();

  RunResult r;
  r.topology = hops == 2 ? "pair" : "chain" + std::to_string(hops);
  r.payload = payload;
  r.sink_msgs = s1.msgs - s0.msgs;
  r.msgs_per_sec = static_cast<double>(s1.msgs - s0.msgs) / elapsed;
  r.bytes_per_sec = static_cast<double>(s1.bytes - s0.bytes) / elapsed;
  r.syscalls_per_msg =
      wire1 > wire0
          ? static_cast<double>(sys1 - sys0) / static_cast<double>(wire1 - wire0)
          : 0.0;
  const u64 acquires = (hit1 - hit0) + (miss1 - miss0);
  if (acquires > 0) {
    r.pool_hit_rate = static_cast<double>(hit1 - hit0) /
                      static_cast<double>(acquires);
  }
  return r;
}

/// The measured window for one run: large payloads move ~65x the bytes
/// per message, so at the same wall time the 64 KB rows used to settle
/// on only a few thousand messages — too few for a stable estimate.
double window_for(std::size_t payload, double base_secs) {
  return payload >= 64 * 1024 ? base_secs * 4 : base_secs;
}

/// The chain4 @ 64 KB MB/s recorded in a JSON written by write_json
/// (one row per line); negative when the file or row is missing.
double baseline_large_mbps(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1.0;
  double mbps = -1.0;
  char line[1024];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strstr(line, "\"topology\": \"chain4\"") == nullptr ||
        std::strstr(line, "\"payload_bytes\": 65536,") == nullptr) {
      continue;
    }
    const char* at = std::strstr(line, "\"mbytes_per_sec\": ");
    if (at != nullptr) mbps = std::atof(std::strchr(at, ':') + 1);
  }
  std::fclose(f);
  return mbps;
}

/// Runs a configuration kRuns times and keeps, field by field, the
/// median run.
RunResult run_config(std::size_t hops, std::size_t payload,
                     double base_secs) {
  std::vector<RunResult> runs;
  for (int i = 0; i < kRuns; ++i) {
    runs.push_back(run_case(hops, payload, window_for(payload, base_secs)));
  }
  const auto median = [&](double RunResult::*field) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.*field);
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  RunResult med = runs.front();
  med.msgs_per_sec = median(&RunResult::msgs_per_sec);
  med.bytes_per_sec = median(&RunResult::bytes_per_sec);
  med.syscalls_per_msg = median(&RunResult::syscalls_per_msg);
  med.pool_hit_rate = median(&RunResult::pool_hit_rate);
  med.sink_msgs = 0;
  for (const auto& r : runs) med.sink_msgs += r.sink_msgs;
  med.runs = kRuns;
  return med;
}

void print_result(const RunResult& r) {
  print_row({r.topology, std::to_string(r.payload),
             strf("%.0f", r.msgs_per_sec), mb(r.bytes_per_sec),
             strf("%.3f", r.syscalls_per_msg),
             r.pool_hit_rate >= 0 ? strf("%.3f", r.pool_hit_rate) : "-"},
            12);
}

const RunResult* find(const std::vector<RunResult>& results,
                      const std::string& topology, std::size_t payload) {
  for (const auto& r : results) {
    if (r.topology == topology && r.payload == payload) return &r;
  }
  return nullptr;
}

void write_json(const std::string& path,
                const std::vector<RunResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"bench\": \"throughput\",\n  \"nproc\": %u,\n"
               "  \"runs\": [\n",
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"topology\": \"%s\", \"payload_bytes\": %zu, "
                 "\"msgs_per_sec\": %.1f, "
                 "\"mbytes_per_sec\": %.3f, \"syscalls_per_msg\": %.4f, "
                 "\"sink_msgs\": %llu, \"runs\": %d",
                 r.topology.c_str(), r.payload, r.msgs_per_sec,
                 r.bytes_per_sec / 1e6, r.syscalls_per_msg,
                 static_cast<unsigned long long>(r.sink_msgs), r.runs);
    if (r.pool_hit_rate >= 0) {
      std::fprintf(f, ", \"pool_hit_rate\": %.4f", r.pool_hit_rate);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_throughput.json";
  std::string baseline;
  double secs = 1.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--secs") == 0 && i + 1 < argc) {
      secs = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out path] [--secs s] [--smoke] "
                   "[--baseline json]\n",
                   argv[0]);
      return 2;
    }
  }

  print_header("Wire path: loopback pair + 4-node chain throughput",
               "batched scatter-gather sends + bulk decode + pooled "
               "large-frame receives (DESIGN.md §8)");
  print_row({"topology", "payload", "msgs/s", "MB/s", "sys/msg", "pool-hit"},
            12);

  std::vector<RunResult> results;
  const std::vector<std::size_t> payloads =
      smoke ? std::vector<std::size_t>{1024, 65536}
            : std::vector<std::size_t>{64, 1024, 65536};
  for (const std::size_t hops : {std::size_t{2}, std::size_t{4}}) {
    if (smoke && hops == 2) continue;
    for (const std::size_t payload : payloads) {
      results.push_back(run_config(hops, payload, smoke ? 0.4 : secs));
      print_result(results.back());
    }
  }

  write_json(out, results);
  if (!smoke) return 0;

  // Smoke gates: ratios that hold on any host, plus a throughput floor
  // against the committed row of this host's JSON.
  bool fail = false;
  const RunResult* small = find(results, "chain4", 1024);
  if (small != nullptr && small->syscalls_per_msg >= 0.25) {
    std::fprintf(stderr,
                 "FAIL: chain4 @ 1 KB took %.3f syscalls/msg (bound < 0.25): "
                 "flushes or bulk decode stopped batching\n",
                 small->syscalls_per_msg);
    fail = true;
  }
  const RunResult* large = find(results, "chain4", 65536);
  if (large != nullptr &&
      (large->syscalls_per_msg > 2.1 || large->pool_hit_rate < 0.95)) {
    std::fprintf(stderr,
                 "FAIL: chain4 @ 64 KB took %.3f syscalls/msg (bound <= 2.1) "
                 "at pool hit rate %.3f (bound >= 0.95): the slab fast path "
                 "regressed\n",
                 large->syscalls_per_msg, large->pool_hit_rate);
    fail = true;
  }
  if (!baseline.empty() && large != nullptr) {
    const double committed = baseline_large_mbps(baseline);
    if (committed <= 0) {
      std::fprintf(stderr, "FAIL: no chain4 64 KB row in %s\n",
                   baseline.c_str());
      fail = true;
    } else if (large->bytes_per_sec / 1e6 < 0.7 * committed) {
      std::fprintf(stderr,
                   "FAIL: chain4 @ 64 KB moved %.1f MB/s, below 0.7x the "
                   "committed %.1f MB/s: the slab fast path slowed down\n",
                   large->bytes_per_sec / 1e6, committed);
      fail = true;
    }
  }
  return fail ? 1 : 0;
}
