// Strangers on the publicized port must not stall the engine thread
// (paper §2.2: the engine polls the publicized port alongside its other
// work). Silent, partial-hello and bad-magic connections are opened to a
// relay in the middle of a 100 msg/s CBR stream; the stream's delay must
// stay bounded, a real peer must still be adopted afterwards, every
// stranger must be refused with its reason counted, and the relay must
// still stop promptly. A relay that dials new children while strangers
// still owe their hellos must not stall either.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "apps/sink.h"
#include "apps/source.h"
#include "algorithm/relay.h"
#include "chaos/verify.h"
#include "engine/engine.h"
#include "engine_test_util.h"
#include "net/framing.h"
#include "obs/metric_names.h"

namespace iov::engine {
namespace {

using apps::CbrSource;
using apps::SinkApp;
using chaos::counter_value;
using test::RecordingRelay;
using test::wait_until;

constexpr u32 kApp = 1;
constexpr u32 kLateApp = 2;
constexpr std::size_t kPayload = 100;
constexpr double kMsgsPerSec = 100;
constexpr u32 kControlApp = 0;
/// Delay bound for the stream through a relay that must never block; a
/// relay stalling its engine thread on a stranger's hello for the
/// 100 ms dial-back grace exceeds it.
constexpr Duration kStreamDelayBound = millis(30);

struct Node {
  std::unique_ptr<Engine> engine;
  RecordingRelay* relay = nullptr;
};

Node make_node() {
  auto algorithm = std::make_unique<RecordingRelay>();
  Node n;
  n.relay = algorithm.get();
  n.engine = std::make_unique<Engine>(EngineConfig{}, std::move(algorithm));
  return n;
}

double rejected(const Engine& e, const char* reason) {
  return counter_value(e.metrics().snapshot(),
                       obs::names::kEngineConnsRejectedTotal,
                       {{"reason", reason}});
}

TEST(AcceptStall, StrangersOnThePublicizedPortDoNotStallTheRelay) {
  Node source = make_node();
  Node relay = make_node();
  Node sink_node = make_node();
  auto sink = std::make_shared<SinkApp>();
  sink->track_delay(true);
  source.engine->register_app(
      kApp, std::make_shared<CbrSource>(kPayload, kPayload * kMsgsPerSec,
                                        /*timestamped=*/true));
  sink_node.engine->register_app(kApp, sink);
  ASSERT_TRUE(sink_node.engine->start());
  ASSERT_TRUE(relay.engine->start());
  source.relay->add_child(kApp, relay.engine->self());
  relay.relay->add_child(kApp, sink_node.engine->self());
  sink_node.relay->set_consume(kApp, true);
  ASSERT_TRUE(source.engine->start());
  source.engine->deploy_source(kApp);
  const auto delivered = [&] {
    return sink->stats(RealClock::instance().now()).distinct;
  };
  ASSERT_TRUE(wait_until([&] { return delivered() >= 10; }));

  const NodeId port = relay.engine->self();
  const auto hello = encode_hello(Hello{ConnKind::kPersistent, port});
  std::vector<TcpConn> strangers;
  auto dial = [&](std::size_t bytes, bool bad_magic) {
    auto conn = TcpConn::connect(port, seconds(1.0));
    ASSERT_TRUE(conn.has_value());
    auto out = hello;
    if (bad_magic) out[0] ^= 0xff;
    if (bytes > 0) {
      ASSERT_TRUE(conn->write_all(out.data(), bytes));
    }
    strangers.push_back(std::move(*conn));
  };
  dial(0, false);                // silent
  dial(kHelloBytes / 2, false);  // partial hello, then nothing
  dial(kHelloBytes, true);       // whole hello, bad magic

  // The silent and partial connections are refused at their deadline,
  // the bad magic at once; the stream keeps flowing throughout.
  const u64 before = delivered();
  ASSERT_TRUE(wait_until([&] {
    return rejected(*relay.engine, "hello_timeout") >= 2 &&
           rejected(*relay.engine, "bad_hello") >= 1;
  }));
  EXPECT_EQ(rejected(*relay.engine, "hello_timeout"), 2.0);
  EXPECT_EQ(rejected(*relay.engine, "bad_hello"), 1.0);
  EXPECT_GE(delivered(), before + 50);

  // A real peer dialing afterwards is still adopted.
  Node late = make_node();
  late.engine->register_app(
      kLateApp, std::make_shared<CbrSource>(kPayload, kPayload * kMsgsPerSec));
  late.relay->add_child(kLateApp, port);
  ASSERT_TRUE(late.engine->start());
  late.engine->deploy_source(kLateApp);
  ASSERT_TRUE(wait_until([&] {
    for (const auto& link : relay.engine->snapshot().links) {
      if (link.peer == late.engine->self() && link.up.total_msgs > 0) {
        return true;
      }
    }
    return false;
  }));

  EXPECT_LT(sink->max_delay(), static_cast<double>(millis(200)));

  // A connection still owing its hello does not hold up shutdown.
  dial(kHelloBytes / 2, false);
  const TimePoint t0 = RealClock::instance().now();
  relay.engine->stop();
  relay.engine->join();
  EXPECT_LT(RealClock::instance().now() - t0, seconds(1.0));
}

TEST(AcceptStall, DialWhileStrangersOweHellosDoesNotStallTheRelay) {
  // Each dial below is made right after a silent stranger connected, so
  // the relay defers it in case the stranger is the child dialing in.
  // The deferral must only hold the new link's messages, never the
  // engine thread: the established stream keeps its delay.
  Node source = make_node();
  Node relay = make_node();
  Node sink_node = make_node();
  auto sink = std::make_shared<SinkApp>();
  sink->track_delay(true);
  source.engine->register_app(
      kApp, std::make_shared<CbrSource>(kPayload, kPayload * kMsgsPerSec,
                                        /*timestamped=*/true));
  sink_node.engine->register_app(kApp, sink);
  ASSERT_TRUE(sink_node.engine->start());
  ASSERT_TRUE(relay.engine->start());
  source.relay->add_child(kApp, relay.engine->self());
  relay.relay->add_child(kApp, sink_node.engine->self());
  sink_node.relay->set_consume(kApp, true);
  ASSERT_TRUE(source.engine->start());
  source.engine->deploy_source(kApp);
  ASSERT_TRUE(wait_until([&] {
    return sink->stats(RealClock::instance().now()).distinct >= 10;
  }));

  constexpr int kChildren = 4;
  std::vector<Node> children;
  std::vector<std::shared_ptr<SinkApp>> child_sinks;
  std::vector<TcpConn> strangers;
  for (int i = 0; i < kChildren; ++i) {
    children.push_back(make_node());
    child_sinks.push_back(std::make_shared<SinkApp>());
    child_sinks.back()->track_delay(true);
    children.back().engine->register_app(kApp, child_sinks.back());
    children.back().relay->set_consume(kApp, true);
    ASSERT_TRUE(children.back().engine->start());

    auto stranger = TcpConn::connect(relay.engine->self(), seconds(1.0));
    ASSERT_TRUE(stranger.has_value());
    strangers.push_back(std::move(*stranger));
    // Let the relay accept it before it learns of the new child.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    relay.engine->post(Msg::control(
        MsgType::kControl, NodeId(), kControlApp, RelayAlgorithm::kAddChild,
        static_cast<i32>(kApp), children.back().engine->self().to_string()));
    ASSERT_TRUE(wait_until([&] {
      return child_sinks.back()->stats(RealClock::instance().now()).distinct >
             0;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }

  EXPECT_LT(sink->max_delay(), static_cast<double>(kStreamDelayBound));
  // A deferred child waits out the grace, then is dialed.
  for (const auto& child : child_sinks) {
    EXPECT_LT(child->max_delay(), static_cast<double>(millis(300)));
  }
}

}  // namespace
}  // namespace iov::engine
