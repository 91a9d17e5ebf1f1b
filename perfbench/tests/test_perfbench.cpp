// Unit tests of the benchmark's own code: the percentile and quartile
// rules, the open-loop schedule, span self time and parent links, and the
// tracing decorators' forwarding. Run with `python3 perfbench/run.py
// --self-test`.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "algorithm/relay.h"
#include "apps/sink.h"
#include "apps/source.h"
#include "sim/sim_net.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailRule, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(tail_level(10), 0.0);
  EXPECT_DOUBLE_EQ(tail_level(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail_level(100000), 0.99);
  EXPECT_DOUBLE_EQ(tail_level(500), 0.98);
  for (const int n : {11, 57, 500, 999, 1000, 1001, 25000}) {
    const std::vector<double> v = one_to(n);
    const double t = quantile_sorted(v, tail_level(v.size()));
    const auto beyond = std::count_if(v.begin(), v.end(),
                                      [&](double x) { return x > t; });
    EXPECT_GE(beyond, 10) << "n=" << n;
    if (n <= 1000) {
      EXPECT_EQ(beyond, 10) << "n=" << n;
    }
  }
}

TEST(TailRule, NearestRankQuantiles) {
  const std::vector<double> v = one_to(100);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // Reference values from statistics.quantiles(values, n=4).
  Quartiles q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.iqr_share(), 5.5 / 5.5);

  q = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);

  q = quartiles({5, 1, 9, 3, 7, 2});
  EXPECT_DOUBLE_EQ(q.q1, 1.75);
  EXPECT_DOUBLE_EQ(q.median, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.5);
  EXPECT_DOUBLE_EQ(q.iqr_share(), (7.5 - 1.75) / 4.0);

  q = quartiles({3.0});
  EXPECT_EQ(q.q1, 3.0);
  EXPECT_EQ(q.q3, 3.0);
  EXPECT_EQ(q.iqr_share(), 0.0);
}

TEST(Quartiles, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(LogHistogram, QuantilesWithinOnePercent) {
  LogHistogram h;
  std::vector<double> v;
  for (int i = 1; i <= 5000; ++i) {
    const double x = 1000.0 + 37.0 * i;
    h.add(x);
    v.push_back(x);
  }
  for (const double q : {0.5, 0.9, tail_level(v.size())}) {
    const double exact = quantile_sorted(v, q);
    EXPECT_NEAR(h.quantile(q) / exact, 1.0, 0.01) << "q=" << q;
  }
  EXPECT_NEAR(h.tail() / quantile_sorted(v, 0.99), 1.0, 0.01);
  EXPECT_EQ(h.count(), 5000u);

  LogHistogram other;
  other.add(5.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 5001u);
  EXPECT_EQ(LogHistogram().quantile(0.5), 0.0);
  EXPECT_EQ(LogHistogram().tail(), 0.0);
}

TEST(OpenLoopSchedule, DueTimesFollowTheRate) {
  const iov::TimePoint start = 123456789;
  EXPECT_EQ(due_time(start, 20000, 0), start);
  EXPECT_EQ(due_time(start, 20000, 1), start + 50000);
  EXPECT_EQ(due_time(start, 20000, 20000), start + 1000000000);
  // Non-integer periods do not drift: message k is due at k/rate exactly,
  // rounded to the nanosecond.
  EXPECT_EQ(due_time(start, 3, 3000000), start + 1000000 * 1000000000LL);
  EXPECT_EQ(due_time(start, 3, 1), start + 333333333);
  EXPECT_EQ(due_time(start, 3, 2), start + 666666667);
}

TEST(MixSeed, DependOnSeedAndIndex) {
  EXPECT_EQ(mix_seed(7, 3), mix_seed(7, 3));
  EXPECT_NE(mix_seed(7, 3), mix_seed(8, 3));
  EXPECT_NE(mix_seed(7, 3), mix_seed(7, 4));
}

Span span(const char* name, iov::TimePoint a, iov::TimePoint b) {
  Span s;
  s.name = name;
  s.start = a;
  s.end = b;
  return s;
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime) {
  const Span parent = span("p", 0, 100);
  EXPECT_EQ(self_time(parent, {}), 100);
  // Overlapping children count once; parts outside the parent are
  // clipped; a child that starts after the parent ends covers nothing.
  EXPECT_EQ(self_time(parent, {span("a", 10, 30), span("b", 20, 40),
                               span("c", 90, 120), span("d", 150, 160)}),
            100 - 30 - 10);
  EXPECT_EQ(self_time(parent, {span("all", -5, 105)}), 0);
}

TEST(Spans, ChainParentsFollowTheMessage) {
  std::vector<std::unique_ptr<NodeTrace>> nodes;
  for (std::uint32_t n = 0; n < 3; ++n) {
    nodes.push_back(std::make_unique<NodeTrace>(n));
  }
  const auto add = [&](std::uint32_t n, const char* name, std::uint32_t seq,
                       iov::TimePoint a, iov::TimePoint b) {
    Span s = span(name, a, b);
    s.node = n;
    s.origin = 9;
    s.seq = seq;
    nodes[n]->spans.add(s);
  };
  add(0, "apps.source", 64, 0, 5);
  add(0, "algorithm.process", 64, 6, 10);
  add(1, "algorithm.process", 64, 20, 30);
  add(2, "algorithm.process", 64, 40, 50);
  add(2, "apps.sink", 64, 42, 48);
  add(2, "algorithm.process", 128, 60, 70);  // its earlier hops were not kept
  const std::vector<Span> all =
      link_chain_spans({nodes[0].get(), nodes[1].get(), nodes[2].get()});
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].parent, -1);
  EXPECT_EQ(all[1].parent, 0);
  EXPECT_EQ(all[2].parent, 1);
  // Node 2's spans in log order: process 64, sink 64, process 128.
  EXPECT_EQ(all[3].parent, 2);
  EXPECT_EQ(all[4].parent, 3);
  EXPECT_EQ(all[5].parent, -1);
  EXPECT_EQ(self_time(all[3], {all[4]}), 4);
}

/// Records the callbacks the decorator must forward.
class Probe final : public iov::Algorithm {
 public:
  void on_start() override {
    starts += 1;
    bound_to = engine().self();
  }
  std::string status() const override { return "probe status"; }
  int starts = 0;
  iov::NodeId bound_to;
};

TEST(TracedAlgorithm, ForwardsBindStartAndStatus) {
  iov::sim::SimNet net;
  auto probe = std::make_unique<Probe>();
  Probe* raw = probe.get();
  NodeTrace trace(0);
  auto traced = std::make_unique<TracedAlgorithm>(std::move(probe), &trace);
  TracedAlgorithm* decorator = traced.get();
  iov::sim::SimEngine& node = net.add_node(std::move(traced));
  net.run_for(iov::millis(10));
  EXPECT_EQ(raw->starts, 1);
  EXPECT_EQ(raw->bound_to, node.self());
  EXPECT_EQ(decorator->status(), "probe status");
  EXPECT_EQ(&decorator->inner(), raw);
}

TEST(TracedAlgorithm, RelaysDataAndTimesEveryCall) {
  // A traced source -> relay -> sink chain on the simulator: the wrapped
  // relays can only forward if they were bound to their engines.
  constexpr iov::u32 kApp = 1;
  constexpr iov::u64 kMsgs = 200;
  iov::sim::SimNet net;
  std::vector<std::unique_ptr<NodeTrace>> traces;
  std::vector<iov::RelayAlgorithm*> relays;
  std::vector<iov::NodeId> ids;
  for (std::uint32_t n = 0; n < 3; ++n) {
    traces.push_back(std::make_unique<NodeTrace>(n));
    auto relay = std::make_unique<iov::RelayAlgorithm>();
    relays.push_back(relay.get());
    ids.push_back(net.add_node(std::make_unique<TracedAlgorithm>(
                                   std::move(relay), traces.back().get()))
                      .self());
  }
  relays[0]->add_child(kApp, ids[1]);
  relays[1]->add_child(kApp, ids[2]);
  auto source = std::make_shared<iov::apps::BackToBackSource>(256, kMsgs);
  auto sink = std::make_shared<iov::apps::SinkApp>(256);
  net.node(ids[0])->register_app(
      kApp, std::make_shared<TracedApplication>(
                source, traces[0].get(), [](std::uint32_t) { return 0; }));
  net.node(ids[2])->register_app(
      kApp, std::make_shared<TracedApplication>(sink, traces[2].get(), nullptr));
  net.join_app(ids[2], kApp);
  net.deploy(ids[0], kApp);
  net.run_for(iov::seconds(5.0));

  const auto stats = sink->stats(net.now());
  EXPECT_EQ(stats.distinct, kMsgs);
  EXPECT_EQ(stats.corrupt, 0u);
  for (const auto& t : traces) {
    EXPECT_EQ(t->data_calls, kMsgs);
    EXPECT_EQ(t->process_ns.count(), kMsgs);
    EXPECT_GT(t->control_calls, 0u);  // deploy / join at least
  }
  EXPECT_EQ(traces[0]->app_ns.count(), kMsgs);
  EXPECT_EQ(traces[0]->source_lag_ns.count(), kMsgs);
  EXPECT_EQ(traces[2]->app_ns.count(), kMsgs);
  // Seqs 0, 64, 128 and 192 are sampled: a source span on node 0, a
  // process span per node, a sink span on node 2.
  const std::vector<Span> all = link_chain_spans(
      {traces[0].get(), traces[1].get(), traces[2].get()});
  EXPECT_EQ(all.size(), 4u * 5u);
  for (const Span& s : all) {
    if (std::string(s.name) != "apps.source") {
      EXPECT_GE(s.parent, 0) << s.name << " seq " << s.seq;
    }
  }
}

TEST(MetricLists, NamesAreUniqueAndValid) {
  std::vector<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &layer_metrics()}) {
    for (const auto& [name, unit] : *list) {
      EXPECT_LE(name.size(), 64u);
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(name[0]))) << name;
      EXPECT_EQ(std::count(seen.begin(), seen.end(), name), 0) << name;
      seen.push_back(name);
      EXPECT_FALSE(unit.empty());
    }
  }
}

}  // namespace
}  // namespace perfbench
