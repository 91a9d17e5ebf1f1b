// The chain workloads: the paper's Fig 5 relay chain of four real
// engines (source node, two relays, sink node; three loopback TCP links),
// every node running RelayAlgorithm with the default EngineConfig.
//
//   chain4-1k   closed loop, 1 KB: the source emits whenever the switch
//               has room, so per-message engine cost sets the rate.
//   chain4-64k  the same with 64 KB payloads: the bytes path (kernel
//               copies, large-frame receive into pooled slabs) dominates.
//   chain4-cbr  open loop, 1 KB at a fixed rate far below saturation:
//               each message is timed from the moment it was due, so the
//               engine's idle-to-wake path shows up in the latency.
//
// A run is a few rounds. Each round builds the chain from scratch (timing
// set-up), warms up, measures a window, stops the source, waits for every
// produced message to arrive, and checks each one arrived exactly once
// with its payload intact.
#include <algorithm>
#include <array>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>

#include "algorithm/relay.h"
#include "common/clock.h"
#include "engine/engine.h"
#include "obs/metric_names.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using iov::Application;
using iov::BufferPtr;
using iov::Duration;
using iov::MsgPtr;
using iov::NodeId;
using iov::TimePoint;
using iov::u32;
using iov::u64;
using iov::engine::Engine;
using iov::engine::EngineConfig;
namespace names = iov::obs::names;

constexpr u32 kApp = 1;
constexpr std::size_t kNodes = 4;
/// Measured rounds, the first of which is left out of the figures (see
/// run_chain()).
constexpr int kRounds = 20;
/// Rounds of a traced run's traced half. Layer figures are pooled, not
/// best-of, and need windows longer than the engines' 500 ms gauge
/// refresh.
constexpr int kTracedRounds = 5;
/// Extra rounds that only build the chain and tear it down again, so the
/// set-up median rests on enough samples.
constexpr int kSetupOnlyRounds = 12;
constexpr std::size_t kPatterns = 64;
/// Due times are kept for this many most recent messages; far more than
/// the chain's buffers can hold in flight.
constexpr std::size_t kDueRing = 1 << 16;
constexpr Duration kWarmup = iov::millis(100);
constexpr Duration kFirstDeliveryTimeout = iov::seconds(20.0);
constexpr Duration kDrainTimeout = iov::seconds(10.0);
/// The open-loop rate, under 2% of what chain4-1k sustains on a 4-core
/// host. The engine emits a source's overdue messages in one burst when it
/// wakes; small bursts keep the latency a measure of the wake-up itself
/// rather than of how fast a burst drains through a busy machine.
constexpr double kCbrRate = 2000.0;
/// How long the open loop leaves the machine idle before its first round.
/// Right after a saturating run (another workload's, in another process)
/// an open-loop message cost half again as much CPU time, all of the
/// extra in the kernel, for as long as traffic kept flowing; five seconds
/// of idle cleared it.
constexpr Duration kOpenLoopSettle = iov::seconds(10.0);
/// How far the traced per-layer sum may sit from the untraced end-to-end
/// median before the breakdown self-check reports a miss.
constexpr double kBreakdownTolerance = 0.10;

TimePoint clock_now() { return iov::RealClock::instance().now(); }

struct ChainSpec {
  std::size_t payload = 1024;
  double rate = 0;  ///< messages per second; 0 is closed loop
};

/// Payloads are drawn from a fixed set of seeded patterns and shared
/// between messages, so producing one costs no copy.
class PayloadSet {
 public:
  PayloadSet(std::size_t bytes, u64 seed) {
    for (std::size_t i = 0; i < kPatterns; ++i) {
      patterns_.push_back(iov::Buffer::pattern(bytes, mix_seed(seed, i)));
    }
  }
  const BufferPtr& for_seq(u32 seq) const {
    return patterns_[seq % patterns_.size()];
  }

 private:
  std::vector<BufferPtr> patterns_;
};

/// The benchmark's source: closed loop (a message whenever asked) or open
/// loop (message k only once start + k/rate has passed). Records each
/// message's due time for the sink's latency figure.
class ChainSource final : public Application {
 public:
  ChainSource(const PayloadSet& payloads, double rate)
      : payloads_(payloads), rate_(rate), due_(kDueRing) {}

  MsgPtr next_message(u32 app, const NodeId& self, TimePoint now) override {
    if (stopped_.load(std::memory_order_acquire)) return nullptr;
    const u64 k = produced_.load(std::memory_order_relaxed);
    TimePoint due = now;
    if (rate_ > 0) {
      if (start_ < 0) start_ = now;
      due = due_time(start_, rate_, k);
      if (now < due) return nullptr;
    }
    due_[k % kDueRing].store(due, std::memory_order_relaxed);
    produced_.store(k + 1, std::memory_order_release);
    return iov::Msg::data(self, app, static_cast<u32>(k),
                          payloads_.for_seq(static_cast<u32>(k)));
  }
  void deliver(const MsgPtr&, TimePoint) override {}

  void stop() { stopped_.store(true, std::memory_order_release); }
  u64 produced() const { return produced_.load(std::memory_order_acquire); }
  TimePoint due(u32 seq) const {
    return due_[seq % kDueRing].load(std::memory_order_relaxed);
  }

 private:
  const PayloadSet& payloads_;
  const double rate_;
  TimePoint start_ = -1;  // engine thread only
  std::vector<std::atomic<TimePoint>> due_;
  std::atomic<u64> produced_{0};
  std::atomic<bool> stopped_{false};
};

/// The benchmark's sink: checks every payload against its pattern, keeps
/// a per-sequence delivery state for the exactly-once check, and times
/// each delivery from its due time while recording is on.
class ChainSink final : public Application {
 public:
  ChainSink(const PayloadSet& payloads, const ChainSource& source,
            std::size_t payload_bytes)
      : payloads_(payloads), source_(source), payload_bytes_(payload_bytes) {
    // Room for a window's samples up front, so recording neither
    // reallocates on the engine thread nor shows in the RSS reading (the
    // pages are only touched once written).
    latency_ns_.reserve(1 << 21);
  }

  MsgPtr next_message(u32, const NodeId&, TimePoint) override {
    return nullptr;
  }

  void deliver(const MsgPtr& m, TimePoint now) override {
    const u32 seq = m->seq();
    const BufferPtr& want = payloads_.for_seq(seq);
    const bool intact = m->type() == iov::MsgType::kData &&
                        m->payload_size() == payload_bytes_ &&
                        std::memcmp(m->payload()->data(), want->data(),
                                    payload_bytes_) == 0;
    if (seq >= state_.size()) {
      state_.resize(std::max<std::size_t>(seq + 1, state_.size() * 2), 0);
    }
    std::uint8_t& st = state_[seq];
    st = (st == 0 && intact) ? 1 : 2;
    if (recording_.load(std::memory_order_relaxed)) {
      latency_ns_.push_back(static_cast<double>(now - source_.due(seq)));
    }
    if (first_.load(std::memory_order_relaxed) < 0) {
      first_.store(now, std::memory_order_relaxed);
    }
    bytes_.fetch_add(m->payload_size(), std::memory_order_relaxed);
    delivered_.fetch_add(1, std::memory_order_release);
  }

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  TimePoint first_delivery() const {
    return first_.load(std::memory_order_relaxed);
  }
  u64 delivered() const { return delivered_.load(std::memory_order_acquire); }
  u64 bytes() const { return bytes_.load(std::memory_order_relaxed); }

  // Read only after the sink's engine has joined.
  /// Sequence numbers below `produced` that arrived exactly once, intact.
  u64 ok_count(u64 produced) const {
    u64 ok = 0;
    for (u64 s = 0; s < std::min<u64>(produced, state_.size()); ++s) {
      ok += state_[s] == 1 ? 1 : 0;
    }
    return ok;
  }
  /// Deliveries of sequence numbers that were never produced.
  u64 strays(u64 produced) const {
    u64 n = 0;
    for (u64 s = produced; s < state_.size(); ++s) n += state_[s] != 0;
    return n;
  }
  std::vector<double> take_latency_ns() { return std::move(latency_ns_); }

 private:
  const PayloadSet& payloads_;
  const ChainSource& source_;
  const std::size_t payload_bytes_;
  std::vector<std::uint8_t> state_;  // 0 unseen, 1 ok, 2 duplicate/corrupt
  std::vector<double> latency_ns_;  // recorded while recording_ is set
  std::atomic<bool> recording_{false};
  std::atomic<TimePoint> first_{-1};
  std::atomic<u64> delivered_{0};
  std::atomic<u64> bytes_{0};
};

struct Round {
  std::string error;
  double setup_s = 0;
  double window_s = 0;
  u64 window_msgs = 0;
  double window_bytes = 0;
  CpuTimes cpu;       ///< process CPU spent inside the window
  double rss_kb = 0;  ///< RSS after warm-up minus RSS before construction
  u64 produced = 0;
  u64 ok = 0;
  u64 strays = 0;
  std::vector<double> latency_ns;  ///< window deliveries, sorted
  TimePoint window_start = 0;
  TimePoint window_end = 0;
  // Traced rounds only: engine metric snapshots around the window.
  std::vector<iov::obs::MetricsSnapshot> before;
  std::vector<iov::obs::MetricsSnapshot> after;
  std::vector<std::unique_ptr<NodeTrace>> traces;
};

bool wait_for(Duration timeout, const std::function<bool()>& done) {
  const TimePoint deadline = clock_now() + timeout;
  while (!done()) {
    if (clock_now() > deadline) return false;
    iov::sleep_for(500 * iov::kNanosPerMicro);
  }
  return true;
}

Round run_round(const ChainSpec& spec, const PayloadSet& payloads,
                double window_s, bool traced) {
  Round r;
  const double rss0 = rss_kb();
  const TimePoint t0 = clock_now();
  auto source = std::make_shared<ChainSource>(payloads, spec.rate);
  auto sink = std::make_shared<ChainSink>(payloads, *source, spec.payload);
  std::shared_ptr<Application> source_app = source;
  std::shared_ptr<Application> sink_app = sink;
  std::vector<std::unique_ptr<Engine>> engines;
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::unique_ptr<iov::Algorithm> algorithm =
        std::make_unique<iov::RelayAlgorithm>();
    if (traced) {
      r.traces.push_back(std::make_unique<NodeTrace>(static_cast<u32>(i)));
      algorithm = std::make_unique<TracedAlgorithm>(std::move(algorithm),
                                                    r.traces.back().get());
    }
    engines.push_back(
        std::make_unique<Engine>(EngineConfig{}, std::move(algorithm)));
  }
  if (traced) {
    const ChainSource* src = source.get();
    source_app = std::make_shared<TracedApplication>(
        source, r.traces.front().get(),
        [src](u32 seq) { return src->due(seq); });
    sink_app = std::make_shared<TracedApplication>(sink, r.traces.back().get(),
                                                   nullptr);
  }
  engines.front()->register_app(kApp, source_app);
  engines.back()->register_app(kApp, sink_app);

  const auto teardown = [&] {
    for (auto& e : engines) e->stop();
    for (auto& e : engines) e->join();
  };
  for (auto& e : engines) {
    if (!e->start()) {
      r.error = "engine start failed";
      teardown();
      return r;
    }
  }
  // Wire the chain through the control path, as an observer would.
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    engines[i]->post(iov::Msg::control(
        iov::MsgType::kControl, NodeId(), iov::kControlApp,
        iov::RelayAlgorithm::kAddChild, static_cast<iov::i32>(kApp),
        engines[i + 1]->self().to_string()));
  }
  engines.back()->join_app(kApp);
  engines.front()->deploy_source(kApp);

  if (!wait_for(kFirstDeliveryTimeout,
                [&] { return sink->first_delivery() >= 0; })) {
    r.error = "no delivery at the sink";
    teardown();
    return r;
  }
  r.setup_s = iov::to_seconds(sink->first_delivery() - t0);
  // Stops the source, waits until everything it produced has reached the
  // sink, stops the chain, and checks what arrived.
  const auto drain_and_check = [&] {
    source->stop();
    const bool drained = wait_for(kDrainTimeout, [&] {
      return sink->delivered() >= source->produced();
    });
    teardown();
    r.produced = source->produced();
    r.ok = sink->ok_count(r.produced);
    r.strays = sink->strays(r.produced);
    r.latency_ns = sink->take_latency_ns();
    std::sort(r.latency_ns.begin(), r.latency_ns.end());
    if (!drained) r.error = "drain timed out";
  };
  if (window_s <= 0) {
    drain_and_check();
    return r;
  }
  iov::sleep_for(kWarmup);
  r.rss_kb = rss_kb() - rss0;

  if (traced) {
    for (auto& e : engines) r.before.push_back(e->metrics().snapshot());
  }
  sink->set_recording(true);
  const CpuTimes c0 = cpu_times();
  const u64 m0 = sink->delivered();
  const u64 b0 = sink->bytes();
  r.window_start = clock_now();
  iov::sleep_for(iov::seconds(window_s));
  const u64 m1 = sink->delivered();
  const u64 b1 = sink->bytes();
  r.window_end = clock_now();
  const CpuTimes c1 = cpu_times();
  sink->set_recording(false);
  if (traced) {
    for (auto& e : engines) r.after.push_back(e->metrics().snapshot());
  }
  r.window_s = iov::to_seconds(r.window_end - r.window_start);
  r.window_msgs = m1 - m0;
  r.window_bytes = static_cast<double>(b1 - b0);
  r.cpu = {c1.user_s - c0.user_s, c1.sys_s - c0.sys_s};

  drain_and_check();
  return r;
}

/// Per-hop gaps of sampled messages inside the window: the time between
/// node k's process() returning and node k+1's process() starting.
std::vector<std::vector<double>> hop_gaps_ns(const std::vector<Span>& spans,
                                             TimePoint from, TimePoint to) {
  std::map<u32, std::array<const Span*, kNodes>> by_seq;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "algorithm.process") != 0) continue;
    auto [it, fresh] = by_seq.try_emplace(s.seq);
    if (fresh) it->second.fill(nullptr);
    it->second[s.node] = &s;
  }
  std::vector<std::vector<double>> gaps(kNodes - 1);
  for (const auto& [seq, chain] : by_seq) {
    if (chain[0] == nullptr || chain[0]->start < from || chain[0]->start > to) {
      continue;
    }
    if (std::any_of(chain.begin(), chain.end(),
                    [](const Span* s) { return s == nullptr; })) {
      continue;
    }
    for (std::size_t k = 0; k + 1 < kNodes; ++k) {
      gaps[k].push_back(static_cast<double>(chain[k + 1]->start - chain[k]->end));
    }
  }
  return gaps;
}

/// The best round's reading. Interference from the rest of the machine
/// (other processes, a hypervisor taking the CPU away) only ever makes a
/// round slower, so the best round is the one it disturbed least.
double best(const std::vector<double>& per_round, bool higher_is_better) {
  if (per_round.empty()) return 0.0;
  return higher_is_better
             ? *std::max_element(per_round.begin(), per_round.end())
             : *std::min_element(per_round.begin(), per_round.end());
}

/// The figure a run reports from its rounds. A closed loop reports the
/// best round (see best()). An open loop's load is set by its schedule,
/// so its rounds differ less by interference than by where the engines'
/// wake-up bursts fall in the window; the best round would be the one
/// whose window caught the most of a burst, so it reports the median.
double pick(const std::vector<double>& per_round, bool higher_is_better,
            bool open_loop) {
  return open_loop ? median(per_round) : best(per_round, higher_is_better);
}

/// Per-round figures of one pass, and what is pooled across its rounds.
struct Totals {
  std::vector<double> rates, goodputs, lat50_ms, lat99_ms, cpu_us;
  LogHistogram latency_ns;  ///< all rounds pooled
  double cpu_s = 0;
  double sys_s = 0;
};

Totals fold(const std::vector<Round>& rounds) {
  Totals t;
  for (const Round& r : rounds) {
    t.rates.push_back(static_cast<double>(r.window_msgs) / r.window_s);
    t.goodputs.push_back(r.window_bytes / r.window_s / 1e6);
    t.lat50_ms.push_back(quantile_sorted(r.latency_ns, 0.5) / 1e6);
    t.lat99_ms.push_back(
        quantile_sorted(r.latency_ns, tail_level(r.latency_ns.size())) / 1e6);
    t.cpu_us.push_back(r.window_msgs > 0 ? r.cpu.total() * 1e6 /
                                               static_cast<double>(r.window_msgs)
                                         : 0);
    for (const double x : r.latency_ns) t.latency_ns.add(x);
    t.cpu_s += r.cpu.total();
    t.sys_s += r.cpu.sys_s;
  }
  return t;
}

/// Layer readings of the traced rounds (README.md lists what each one
/// explains).
void read_layers(const std::vector<Round>& traced, const Totals& plain,
                 const Totals& with_trace, bool open_loop, Result* out,
                 std::vector<Span>* spans_out) {
  auto& L = out->layers;
  std::array<LogHistogram, kNodes> process;
  LogHistogram source_ns, sink_ns, lag_ns;
  double data_calls = 0, control_calls = 0;
  iov::obs::HistogramData wait_all, flush, lag_reactor;
  std::array<iov::obs::HistogramData, kNodes> wait_node;
  double switch_msgs = 0, switch_rounds = 0, syscalls = 0, wire_msgs = 0;
  double hits = 0, misses = 0, link_failures = 0, threads = 0, fds = 0;
  std::vector<std::vector<double>> gaps(kNodes - 1);

  const auto add_hist = [](iov::obs::HistogramData* into,
                           const iov::obs::HistogramData& h) {
    if (into->counts.empty()) {
      *into = h;
      return;
    }
    if (into->counts.size() != h.counts.size()) return;
    for (std::size_t i = 0; i < h.counts.size(); ++i) into->counts[i] += h.counts[i];
    into->count += h.count;
  };
  for (const Round& r : traced) {
    for (std::size_t n = 0; n < kNodes; ++n) {
      const NodeTrace& t = *r.traces[n];
      process[n].merge(t.process_ns);
      data_calls += static_cast<double>(t.data_calls);
      control_calls += static_cast<double>(t.control_calls);
      const auto& a = r.after[n];
      const auto& b = r.before[n];
      const auto delta = [&](const char* name) {
        return histogram_delta(sum_histogram(a, name), sum_histogram(b, name));
      };
      const auto diff = [&](const char* name, const char* key = "",
                            const char* value = "") {
        return sum_metric(a, name, key, value) - sum_metric(b, name, key, value);
      };
      const auto wait = delta(names::kSwitchLatencySeconds);
      if (n > 0) add_hist(&wait_all, wait);
      add_hist(&wait_node[n], wait);
      add_hist(&flush, histogram_delta(
                           sum_histogram(a, names::kLinkFlushMsgs, "dir", "down"),
                           sum_histogram(b, names::kLinkFlushMsgs, "dir", "down")));
      add_hist(&lag_reactor, delta(names::kReactorLoopLagSeconds));
      switch_msgs += diff(names::kSwitchMessagesTotal);
      switch_rounds += diff(names::kSwitchRoundsTotal);
      syscalls += diff(names::kLinkSyscallsTotal);
      wire_msgs += diff(names::kLinkMessagesTotal);
      hits += diff(names::kPoolSlabAcquiresTotal, "result", "hit");
      misses += diff(names::kPoolSlabAcquiresTotal, "result", "miss");
      link_failures += diff(names::kEngineLinkFailuresTotal);
      threads += sum_metric(a, names::kEngineThreads);
      fds += sum_metric(a, names::kEngineOpenFds);
    }
    source_ns.merge(r.traces.front()->app_ns);
    sink_ns.merge(r.traces.back()->app_ns);
    lag_ns.merge(r.traces.front()->source_lag_ns);

    std::vector<const NodeTrace*> logs;
    for (const auto& t : r.traces) logs.push_back(t.get());
    std::vector<Span> spans = link_chain_spans(logs);
    const auto g = hop_gaps_ns(spans, r.window_start, r.window_end);
    for (std::size_t k = 0; k < g.size(); ++k) {
      gaps[k].insert(gaps[k].end(), g[k].begin(), g[k].end());
    }
    // Keep the spans of the last traced round for the trace file.
    *spans_out = std::move(spans);
  }
  const double rounds = static_cast<double>(traced.size());

  L["apps.source_ns_p50"] = source_ns.quantile(0.5);
  L["apps.sink_ns_p50"] = sink_ns.quantile(0.5);
  for (std::size_t n = 0; n < kNodes; ++n) {
    L["algorithm.process_ns_p50.n" + std::to_string(n)] = process[n].quantile(0.5);
    L["algorithm.process_ns_p99.n" + std::to_string(n)] = process[n].tail();
  }
  L["algorithm.calls_per_msg"] = data_calls > 0 ? control_calls / data_calls : 0;
  L["engine.recv_wait_us_p50"] = histogram_quantile(wait_all, 0.5) * 1e6;
  L["engine.recv_wait_us_p99"] =
      histogram_quantile(wait_all, tail_level(wait_all.count)) * 1e6;
  L["engine.msgs_per_round"] = switch_rounds > 0 ? switch_msgs / switch_rounds : 0;
  L["engine.source_pump_lag_ms_p50"] = lag_ns.quantile(0.5) / 1e6;
  L["engine.source_pump_lag_ms_p99"] = lag_ns.tail() / 1e6;
  L["engine.threads"] = threads / rounds;
  L["engine.open_fds"] = fds / rounds;
  L["engine.link_failures"] = link_failures;
  L["net.syscalls_per_msg"] = wire_msgs > 0 ? syscalls / wire_msgs : 0;
  L["net.flush_msgs_p50"] = histogram_quantile(flush, 0.5);
  L["net.reactor_lag_us_p99"] =
      histogram_quantile(lag_reactor, tail_level(lag_reactor.count)) * 1e6;
  L["net.sys_cpu_share"] =
      with_trace.cpu_s > 0 ? with_trace.sys_s / with_trace.cpu_s : 0;
  L["message.pool_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  L["trace.spans"] = static_cast<double>(spans_out->size());

  // Breakdown self-check: source lag + sum over hops of (receive-buffer
  // wait + the rest of the hop) against the untraced end-to-end median.
  double hop_sum_ns = 0;
  double hop_rest_us = 0;
  for (std::size_t k = 0; k < gaps.size(); ++k) {
    const double gap = median(gaps[k]);
    const double wait_ns = histogram_quantile(wait_node[k + 1], 0.5) * 1e9;
    hop_sum_ns += gap;
    hop_rest_us += (gap - wait_ns) / 1e3;
  }
  L["net.hop_us_p50"] = hop_rest_us / static_cast<double>(gaps.size());
  const double e2e_ms = plain.latency_ns.quantile(0.5) / 1e6;
  const double parts_ms = lag_ns.quantile(0.5) / 1e6 + hop_sum_ns / 1e6;
  L["trace.breakdown_ratio"] = e2e_ms > 0 ? parts_ms / e2e_ms : 0;
  out->notes.push_back(
      std::string("breakdown self-check ") +
      (std::abs(parts_ms / e2e_ms - 1.0) <= kBreakdownTolerance ? "PASS"
                                                               : "MISS") +
      ": source lag p50 " + fmt("%.4f", lag_ns.quantile(0.5) / 1e6) +
      " ms + hops " + fmt("%.4f", hop_sum_ns / 1e6) + " ms = " +
      fmt("%.4f", parts_ms) + " ms vs untraced lat p50 " + fmt("%.4f", e2e_ms) +
      " ms (ratio " + fmt("%.3f", parts_ms / e2e_ms) + ")");

  // Tracing overhead on the workload's headline figure: latency for the
  // open loop (its rate is fixed), throughput for the closed loops.
  if (open_loop) {
    const double traced_ms = with_trace.latency_ns.quantile(0.5) / 1e6;
    L["trace.overhead_pct"] = 100.0 * (traced_ms - e2e_ms) / e2e_ms;
  } else {
    const double a = best(plain.rates, true);
    const double b = best(with_trace.rates, true);
    L["trace.overhead_pct"] = 100.0 * (a - b) / a;
  }
}

}  // namespace

Result run_chain(const Options& o) {
  ChainSpec spec;
  if (o.workload == "chain4-64k") spec.payload = 64 * 1024;
  if (o.workload == "chain4-cbr") spec.rate = kCbrRate;
  const PayloadSet payloads(spec.payload, o.seed);
  const bool open_loop = spec.rate > 0;

  Result out;
  const EngineConfig defaults;
  out.provenance.emplace_back(
      "engine_config",
      "default EngineConfig: recv_buffer_msgs=" +
          std::to_string(defaults.recv_buffer_msgs) +
          " send_buffer_msgs=" + std::to_string(defaults.send_buffer_msgs) +
          " default_switch_weight=" +
          std::to_string(defaults.default_switch_weight) +
          " socket_buffer_bytes=" + std::to_string(defaults.socket_buffer_bytes));
  out.provenance.emplace_back(
      "workload_shape",
      "4 engines, 3 loopback TCP links, payload " + std::to_string(spec.payload) +
          " B, " +
          (open_loop ? "open loop at " + fmt("%.0f", spec.rate) + " msg/s"
                         : std::string("closed loop")));

  // A traced run spends half its time on untraced rounds, the reference
  // its overhead and breakdown are measured against.
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const int threads0 = thread_count();
  std::vector<Round> plain_rounds, traced_rounds;
  std::vector<double> setups;
  const auto round = [&](double window, bool traced) {
    Round r = run_round(spec, payloads, window, traced);
    out.attempted += r.produced;
    out.failed += (r.produced - r.ok) + r.strays;
    if (!r.error.empty()) {
      out.correct = false;
      out.notes.push_back("round: " + r.error);
    }
    setups.push_back(r.setup_s);
    return r;
  };
  // The first round runs in a process that has not built a chain yet, so
  // it gives the RSS reading. It is checked like every other round but
  // left out of the other figures: it pays one-time costs (starting the
  // shared reactor pool, first-touch allocations), and its CPU time per
  // message read far below every later round's, so that the best round
  // was the first in some runs and not in others.
  if (open_loop) iov::sleep_for(kOpenLoopSettle);
  const Round first = round(budget / kRounds, false);
  for (int j = 0; j < kSetupOnlyRounds; ++j) round(0, false);
  for (int i = 1; i < kRounds; ++i) {
    plain_rounds.push_back(round(budget / kRounds, false));
  }
  for (int i = 0; o.trace && i < kTracedRounds; ++i) {
    traced_rounds.push_back(round(budget / kTracedRounds, true));
  }
  // The shared reactor pool outlives the engines: whatever threads remain
  // beyond the ones the process started with are the pool's.
  out.provenance.emplace_back("reactor_pool_threads",
                              std::to_string(thread_count() - threads0));
  if (out.failed > 0) {
    out.correct = false;
    out.notes.push_back(std::to_string(out.failed) + " of " +
                        std::to_string(out.attempted) +
                        " messages not delivered exactly once and intact");
  }

  const Totals plain = fold(plain_rounds);
  out.end_to_end = {
      {"setup_s", median(setups)},
      {"msgs_per_s", pick(plain.rates, true, open_loop)},
      {"goodput_mb_s", pick(plain.goodputs, true, open_loop)},
      {"lat_p50_ms", pick(plain.lat50_ms, false, open_loop)},
      {"cpu_us_per_msg", pick(plain.cpu_us, false, open_loop)},
      {"rss_per_node_kb", first.rss_kb / kNodes},
  };
  out.figures = {{"lat_p99_ms", "ms", pick(plain.lat99_ms, false, open_loop)}};
  out.notes.push_back(
      "latency samples " + std::to_string(plain.latency_ns.count()) + " in " +
      std::to_string(plain_rounds.size()) + " rounds, tail level per round " +
      fmt("%.4f", tail_level(plain.latency_ns.count() / plain_rounds.size())));
  const auto rounds_note = [&](const char* what, const std::vector<double>& v) {
    std::string line = std::string("per-round ") + what + ":";
    for (const double x : v) line += " " + fmt("%.6g", x);
    const Quartiles q = quartiles(v);
    out.notes.push_back(line + " (iqr/median " + fmt("%.3f", q.iqr_share()) + ")");
  };
  rounds_note("msgs_per_s", plain.rates);
  rounds_note("lat_p50_ms", plain.lat50_ms);
  rounds_note("lat_p99_ms", plain.lat99_ms);
  rounds_note("cpu_us_per_msg", plain.cpu_us);

  if (o.trace) {
    const Totals with_trace = fold(traced_rounds);
    std::vector<Span> spans;
    read_layers(traced_rounds, plain, with_trace, open_loop, &out, &spans);
    if (!write_spans(o.trace_out, spans)) {
      out.notes.push_back("could not write spans to " + o.trace_out);
    }
  }
  return out;
}

}  // namespace perfbench
