// The sim-churn workload: the flash-crowd streaming scenario at the
// medium churn tier (15 s mean sessions) on the deterministic simulator,
// through scenario::run_sim_streaming_churn. Single-threaded and
// socket-free; the only workload that runs the sim, trees, scenario and
// chaos layers.
//
// A run plays many small scenarios, each seeded from the run's seed, and
// pools them: the time one scenario costs per frame moves by a
// quarter from seed to seed (it grows with the control traffic its churn
// causes), so a steady figure needs many of them. Every tenth scenario is
// played a second time, untimed; the simulator is deterministic, so both
// plays must give the same fingerprint.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "apps/streaming.h"
#include "common/clock.h"
#include "obs/metric_names.h"
#include "scenario/streaming_churn.h"
#include "scenario/verify_streaming.h"
#include "sim/sim_net.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using iov::TimePoint;
namespace names = iov::obs::names;
namespace scenario = iov::scenario;

/// A twentieth of bench_streaming's 2,000-viewer crowd: a scenario's cost
/// grows with the square of the crowd (2,000 viewers take ~20 s on a
/// 4-core host, 100 viewers ~0.1 s), and many small scenarios pool into
/// steadier figures than a few large ones.
constexpr std::size_t kViewers = 100;
constexpr double kScenariosPerSecond = 8.0;
/// Every this many scenarios, one is played again for the replay check.
constexpr int kReplayEvery = 10;
constexpr int kMinScenarios = 1;
constexpr int kSetupRepeats = 100;
/// Scenarios whose nodes are built and held together for the memory
/// reading; one scenario's growth is a few hundred KiB and moves with
/// where the allocator's heap happens to end.
constexpr int kRssScenarios = 10;

TimePoint clock_now() { return iov::RealClock::instance().now(); }

double wall_since(TimePoint t0) { return iov::to_seconds(clock_now() - t0); }

/// bench_streaming's "medium" churn tier, with a smaller crowd and a
/// longer settle. A viewer counts as failed when a drop is never followed
/// by a frame before the scenario ends; rejoins took up to 11 s, so after
/// bench_streaming's 8 s settle a drop late in the horizon could still be
/// on its way back (seed 404, scenario 110: back 9-10 s after a drop at
/// 23.7 s). 16 s leaves the slowest rejoin seen time to finish.
scenario::StreamingChurnConfig medium_tier(std::uint64_t seed) {
  scenario::StreamingChurnConfig c;
  c.churn.viewers = kViewers;
  c.churn.seed = seed;
  c.churn.waves = 3;
  c.churn.wave_spacing = iov::seconds(6.0);
  c.churn.wave_spread = iov::seconds(2.0);
  c.churn.mean_session_seconds = 15.0;
  c.churn.depart_fraction = 0.3;
  c.churn.correlated_fraction = 0.2;
  c.churn.shocks = 2;
  c.churn.horizon = iov::seconds(24.0);
  c.fps = 1.0;
  c.settle = iov::seconds(16.0);
  return c;
}

/// The scenario's set-up, done the way the runner does it before the
/// first frame: generate the churn schedule and build one simulated node
/// per viewer plus the source.
std::unique_ptr<iov::sim::SimNet> build_scenario(
    const scenario::StreamingChurnConfig& c) {
  const scenario::ChurnSchedule schedule = scenario::generate_churn(c.churn);
  iov::sim::SimNet::Config nc;
  nc.seed = c.churn.seed;
  auto net = std::make_unique<iov::sim::SimNet>(nc);
  const auto tree = [&] {
    auto t = std::make_unique<iov::trees::TreeAlgorithm>(c.strategy, 200e3);
    t->set_data_timeout(c.data_timeout);
    return t;
  };
  iov::sim::SimEngine& src = net->add_node(tree());
  src.register_app(c.app, std::make_shared<iov::apps::VideoSource>(
                              c.fps, c.gop, c.iframe_bytes, c.pframe_bytes));
  for (std::size_t v = 0; v < schedule.viewers; ++v) {
    net->add_node(tree()).register_app(
        c.app, std::make_shared<scenario::ViewerSink>(c.fps));
  }
  return net;
}

struct Repeat {
  scenario::StreamingChurnResult result;
  double wall_s = 0;
  double cpu_s = 0;
};

Repeat run_once(const scenario::StreamingChurnConfig& c) {
  Repeat r;
  const CpuTimes c0 = cpu_times();
  const TimePoint t0 = clock_now();
  r.result = scenario::run_sim_streaming_churn(c);
  r.wall_s = wall_since(t0);
  r.cpu_s = cpu_times().total() - c0.total();
  return r;
}

/// Checks one result against the streaming recovery predicates. Returns
/// the violations found. The runner has already evaluated the tree
/// invariants (at every quiescent point) and no-permanent-orphans into
/// verify_failures; the gap bound is checked here.
std::vector<std::string> verify(const scenario::StreamingChurnResult& r,
                                const scenario::StreamingChurnConfig& c) {
  std::vector<std::string> bad = r.verify_failures;
  const auto gaps = iov::chaos::verify_bounded_gap_seconds(
      r, iov::to_seconds(c.churn.horizon));
  bad.insert(bad.end(), gaps.failures.begin(), gaps.failures.end());
  if (r.frames_delivered() == 0) bad.push_back("no frames delivered");
  return bad;
}

}  // namespace

Result run_churn(const Options& o) {
  Result out;
  // A fixed number of scenarios per measured second, never a count that
  // depends on how fast they ran: the pooled rejoin figures must come
  // from the same inputs on every build.
  const int scenarios = std::max(
      kMinScenarios, static_cast<int>(std::lround(o.seconds * kScenariosPerSecond)));
  std::vector<scenario::StreamingChurnConfig> configs;
  for (int k = 0; k < scenarios; ++k) {
    configs.push_back(medium_tier(mix_seed(o.seed, static_cast<std::uint64_t>(k))));
  }
  out.provenance.emplace_back(
      "workload_shape",
      "sim streaming churn, medium tier: " + std::to_string(kViewers) +
          " viewers, 15 s mean sessions, 24 s horizon, " +
          std::to_string(scenarios) + " scenarios seeded from " +
          std::to_string(o.seed));

  std::vector<Span> spans;
  const auto timed = [&](const char* name, auto&& fn) {
    const TimePoint t0 = clock_now();
    fn();
    if (o.trace) spans.push_back({name, 0, 0, 0, t0, clock_now()});
  };

  std::vector<std::string> bad;
  std::size_t joined = 0, failed = 0;
  double wall = 0, cpu = 0, frames = 0, bytes = 0, switch_msgs = 0,
         delivered = 0, depth = 0, degree = 0, events = 0, gap = 0;
  std::vector<double> rejoin;
  // Set-up time is the median of every build below; tearing the nodes
  // down again is not counted.
  std::vector<double> setups;
  const auto build = [&](const scenario::StreamingChurnConfig& c) {
    std::unique_ptr<iov::sim::SimNet> net;
    timed("scenario.build", [&] {
      const TimePoint t0 = clock_now();
      net = build_scenario(c);
      setups.push_back(wall_since(t0));
    });
    return net;
  };
  // Memory per node: what a fresh process's RSS grows by while the nodes
  // of the first scenarios are built and held, before any traffic.
  double node_kb = 0;
  {
    const int held_scenarios = std::min(kRssScenarios, scenarios);
    const double rss0 = rss_kb();
    std::vector<std::unique_ptr<iov::sim::SimNet>> held;
    for (int k = 0; k < held_scenarios; ++k) held.push_back(build(configs[k]));
    node_kb = (rss_kb() - rss0) /
              static_cast<double>(held_scenarios * (kViewers + 1));
  }
  for (int i = 0; i < kSetupRepeats; ++i) build(configs[0]);
  for (int k = 0; k < scenarios; ++k) {
    Repeat r;
    timed("sim.run", [&] { r = run_once(configs[k]); });
    timed("scenario.verify", [&] {
      for (const auto& b : verify(r.result, configs[k])) {
        bad.push_back("scenario " + std::to_string(k) + ": " + b);
      }
      // Same seed, same scenario: the replay must be byte-identical.
      if (k % kReplayEvery == 0 &&
          run_once(configs[k]).result.fingerprint() != r.result.fingerprint()) {
        bad.push_back("scenario " + std::to_string(k) +
                      ": the replay gave another fingerprint");
      }
    });
    // Operations: every viewer that joined. A failure is one that
    // survived the scenario but ended detached or never got the stream
    // back after a drop.
    for (const auto& v : r.result.viewers) {
      if (!v.ever_joined) continue;
      ++joined;
      if (!v.departed &&
          (!v.alive_in_tree || v.continuity.unrecovered_drops > 0)) {
        ++failed;
      }
    }
    iov::obs::MetricsSnapshot m;
    iov::obs::MetricsSnapshot::parse(r.result.metrics_text, &m);
    wall += r.wall_s;
    cpu += r.cpu_s;
    frames += static_cast<double>(r.result.frames_delivered());
    bytes += sum_metric(m, names::kSimDeliveredBytesTotal);
    switch_msgs += sum_metric(m, names::kSimSwitchMessagesTotal);
    delivered += sum_metric(m, names::kSimDeliveredMessagesTotal);
    const std::vector<double> rj = r.result.rejoin_latencies();
    rejoin.insert(rejoin.end(), rj.begin(), rj.end());
    for (const auto& s : r.result.shape) {
      depth = std::max(depth, static_cast<double>(s.depth));
      degree = std::max(degree, static_cast<double>(s.max_degree));
    }
    events += static_cast<double>(r.result.schedule.events.size());
    gap += r.result.total_gap_seconds();
  }

  out.attempted = joined;
  out.failed = failed;
  for (const auto& b : bad) out.notes.push_back("verify: " + b);
  out.correct = bad.empty() && failed == 0;

  std::sort(rejoin.begin(), rejoin.end());
  out.end_to_end = {
      {"setup_s", median(setups)},
      // Rates per second of CPU time: the simulator runs on this one
      // thread, and time the hypervisor gives to other guests is not its.
      {"msgs_per_s", frames / cpu},
      {"goodput_mb_s", bytes / cpu / 1e6},
      {"lat_p50_ms", quantile_sorted(rejoin, 0.5) * 1e3},
      {"cpu_us_per_msg", cpu * 1e6 / frames},
      {"rss_per_node_kb", node_kb},
  };
  out.figures = {{"lat_p99_ms", "ms",
                  quantile_sorted(rejoin, tail_level(rejoin.size())) * 1e3}};
  out.notes.push_back(
      "scenarios " + std::to_string(scenarios) + ", rejoins " +
      std::to_string(rejoin.size()) + ", tail level " +
      fmt("%.4f", tail_level(rejoin.size())) + ", sim wall s " +
      fmt("%.4f", wall));

  if (o.trace) {
    auto& L = out.layers;
    const double n = static_cast<double>(scenarios);
    L["sim.wall_s"] = wall / n;
    L["sim.switch_msgs_per_wall_s"] = switch_msgs / wall;
    L["sim.delivered_msgs"] = delivered / n;
    L["trees.depth_max"] = depth;
    L["trees.degree_max"] = degree;
    L["scenario.churn_events"] = events / n;
    L["scenario.verify_failures"] = static_cast<double>(bad.size());
    L["scenario.gap_mean_s"] = gap / (n * static_cast<double>(kViewers));
    L["trace.spans"] = static_cast<double>(spans.size());
    // The spans wrap whole phases, a few clock reads per run of a second
    // or more; no separate untraced pass is made, so the cost reads as 0.
    L["trace.overhead_pct"] = 0.0;
    if (!write_spans(o.trace_out, spans)) {
      out.notes.push_back("could not write spans to " + o.trace_out);
    }
  }
  return out;
}

}  // namespace perfbench
