// Reactor tests (DESIGN.md §9), four layers:
//   * Worker/Reactor unit tests — task FIFO, timers + cancellation, and
//     fd readiness callbacks over a socketpair;
//   * a PeerLink-level fd/thread leak regression — open/close 200 links
//     and assert process fd and thread counts return to baseline (the
//     shared pool is created once and excluded);
//   * PeerLink wire behaviour — golden bytes of the framing a link sends
//     and decodes, and the loss accounting of a link torn down with a
//     full send buffer;
//   * a two-engine stream that must arrive loss-, duplicate- and
//     corruption-free (SinkApp checks payload integrity).
#include "net/reactor/reactor.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <atomic>
#include <fstream>
#include <string>
#include <vector>

#include "apps/sink.h"
#include "apps/source.h"
#include "chaos/verify.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "engine/peer_link.h"
#include "net/framing.h"
#include "obs/metric_names.h"
#include "../engine/engine_test_util.h"

namespace iov {
namespace {

using apps::BackToBackSource;
using apps::SinkApp;
using engine::Engine;
using engine::EngineConfig;
using engine::Inbound;
using engine::InternalSink;
using engine::PeerLink;
using reactor::EventHandler;
using reactor::Reactor;
using reactor::Worker;
using test::RecordingRelay;
using test::wait_until;

// ---------------------------------------------------------------------------
// Worker / Reactor unit tests
// ---------------------------------------------------------------------------

TEST(ReactorWorker, SubmittedTasksRunFifo) {
  Worker w;
  w.start();
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    w.submit([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      done.fetch_add(1);
    });
  }
  ASSERT_TRUE(wait_until([&] { return done.load() == 32; }));
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
  w.stop_and_join();
}

TEST(ReactorWorker, TimerFiresAfterDelayAndCancelDrops) {
  Worker w;
  w.start();
  std::atomic<bool> fired{false};
  std::atomic<bool> cancelled_fired{false};
  int owner_a = 0;
  int owner_b = 0;
  const TimePoint scheduled_at = RealClock::instance().now();
  w.submit([&] {
    w.schedule_after(millis(30), &owner_a, [&] { fired.store(true); });
    w.schedule_after(millis(30), &owner_b,
                     [&] { cancelled_fired.store(true); });
    w.cancel_timers(&owner_b);
  });
  ASSERT_TRUE(wait_until([&] { return fired.load(); }));
  // The timer must not have fired early...
  EXPECT_GE(RealClock::instance().now() - scheduled_at, millis(25));
  // ...and the cancelled one must never fire.
  sleep_for(millis(60));
  EXPECT_FALSE(cancelled_fired.load());
  w.stop_and_join();
}

/// Echo handler: reads whatever arrives on its fd and records it.
class Recorder final : public EventHandler {
 public:
  Recorder(Worker& w, int fd) : w_(w), fd_(fd) {}

  void on_event(u32 events) override {
    if ((events & EPOLLIN) == 0) return;
    char buf[256];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      w_.del_fd(fd_);
      closed_.store(true);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    got_.append(buf, static_cast<std::size_t>(n));
  }

  std::string got() const {
    std::lock_guard<std::mutex> lock(mu_);
    return got_;
  }
  bool closed() const { return closed_.load(); }

 private:
  Worker& w_;
  int fd_;
  mutable std::mutex mu_;
  std::string got_;
  std::atomic<bool> closed_{false};
};

TEST(ReactorWorker, FdReadinessDispatchesToHandler) {
  Worker w;
  w.start();
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  Recorder rec(w, sp[0]);
  w.submit([&] { ASSERT_TRUE(w.add_fd(sp[0], EPOLLIN, &rec)); });
  ASSERT_EQ(::send(sp[1], "ping", 4, 0), 4);
  ASSERT_TRUE(wait_until([&] { return rec.got() == "ping"; }));
  // Peer close surfaces as a readable EOF and the handler deregisters.
  ::close(sp[1]);
  ASSERT_TRUE(wait_until([&] { return rec.closed(); }));
  w.stop_and_join();
  ::close(sp[0]);
}

TEST(ReactorPool, PickRoundRobinsAcrossWorkers) {
  Reactor pool(2);
  EXPECT_EQ(pool.threads(), 2);
  Worker& a = pool.pick();
  Worker& b = pool.pick();
  Worker& c = pool.pick();
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &c);
}

// ---------------------------------------------------------------------------
// fd / thread leak regression (ISSUE 9 satellite)
// ---------------------------------------------------------------------------

std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n > 0 ? n - 3 : 0;  // ".", "..", and the DIR's own fd
}

std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// Records control posts; enough InternalSink for a bare PeerLink.
class RecordingSink final : public InternalSink {
 public:
  void post(MsgPtr m) override {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(m));
  }
  void wake() override {}
  std::vector<MsgPtr> posted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return posted_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<MsgPtr> posted_;
};

TEST(ReactorLeak, TwoHundredLinkCyclesLeakNothing) {
  // One shared fixture outside the measured loop: the pool (persists by
  // design), registries, and emulators.
  Reactor pool(1);
  obs::MetricsRegistry metrics_a;
  obs::MetricsRegistry metrics_b;
  BandwidthEmulator bandwidth;
  RecordingSink sink;
  EngineConfig config;
  const NodeId self_a(0x7f000001u, 1111);
  const NodeId self_b(0x7f000001u, 2222);

  auto run_cycle = [&] {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.has_value());
    auto client = TcpConn::connect(NodeId::loopback(listener->port()),
                                   seconds(1.0));
    ASSERT_TRUE(client.has_value());
    ASSERT_TRUE(wait_readable(listener->fd(), seconds(1.0)));
    auto server = listener->accept();
    ASSERT_TRUE(server.has_value());

    PeerLink a(self_a, self_b, config, bandwidth, RealClock::instance(),
               sink, metrics_a, pool.pick());
    PeerLink b(self_b, self_a, config, bandwidth, RealClock::instance(),
               sink, metrics_b, pool.pick());
    a.start(std::move(*client), /*dial_pending=*/false);
    b.start(std::move(*server), /*dial_pending=*/false);

    // Prove the link is live: one data message a→b.
    ASSERT_TRUE(a.send_buffer().try_push(
        Msg::data(self_a, 7, 0, Buffer::from_string("leakcheck"))));
    a.notify_send();
    ASSERT_TRUE(wait_until([&] { return !b.recv_buffer().empty(); }));
    auto in = b.recv_buffer().try_pop();
    ASSERT_TRUE(in.has_value());
    EXPECT_EQ(in->msg->payload()->size(), 9u);

    a.stop();
    b.stop();
    a.join();
    b.join();
  };

  // Warm-up absorbs lazily created process state (metric rows, etc.).
  run_cycle();
  const std::size_t fd_base = open_fd_count();
  const std::size_t thread_base = thread_count();

  for (int i = 0; i < 200; ++i) {
    run_cycle();
    if (HasFatalFailure()) {
      FAIL() << "cycle " << i << " failed";
    }
  }

  EXPECT_EQ(open_fd_count(), fd_base);
  EXPECT_EQ(thread_count(), thread_base);
}

// ---------------------------------------------------------------------------
// Golden wire bytes
// ---------------------------------------------------------------------------

const NodeId kGoldenSelf(0x7f000001u, 1111);

// The hello a link dials with: "IOV1", kind 1 (persistent), the dialing
// node's publicized 127.0.0.1:1111.
constexpr char kGoldenHello[] = "494f5631 00000001 7f000001 00000457";

// One 24-byte header per frame: type, origin ip, origin port, app, seq,
// payload size.
constexpr const char* kGoldenHeaders[] = {
    "00000001 7f000001 00000457 00000007 00000000 00000000",  // data, 0 B
    "00000001 7f000001 00000457 00000007 00000001 00000400",  // data, 1 KB
    "00000001 7f000001 00000457 00000007 00000002 000186a0",  // data, 100 KB
    "0000010b 7f000001 00000457 00000000 00000000 0000000a",  // kControl
};

// The control frame's payload: p0 = 42, p1 = -1, text "hi".
constexpr char kGoldenControlPayload[] = "0000002a ffffffff 6869";

/// The frames behind the golden bytes. The 100 KB frame exceeds
/// FrameReader's 64 KB chunk, so a receiving link takes the slab path.
std::vector<MsgPtr> golden_msgs() {
  return {Msg::data(kGoldenSelf, 7, 0, Buffer::empty_buffer()),
          Msg::data(kGoldenSelf, 7, 1, Buffer::pattern(1024, 1)),
          Msg::data(kGoldenSelf, 7, 2, Buffer::pattern(100 * 1000, 2)),
          Msg::control(MsgType::kControl, kGoldenSelf, kControlApp, 42, -1,
                       "hi")};
}

std::vector<u8> unhex(std::string_view hex) {
  std::vector<u8> out;
  std::string digits;
  for (const char c : hex) {
    if (c != ' ') digits.push_back(c);
  }
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<u8>(std::stoul(digits.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string hex(const u8* p, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && i % 4 == 0) out.push_back(' ');
    out += strf("%02x", p[i]);
  }
  return out;
}

/// The whole golden stream, hello first.
std::vector<u8> golden_stream() {
  std::vector<u8> out = unhex(kGoldenHello);
  const auto msgs = golden_msgs();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto header = unhex(kGoldenHeaders[i]);
    out.insert(out.end(), header.begin(), header.end());
    const auto payload = msgs[i]->type() == MsgType::kData
                             ? msgs[i]->payload()->bytes()
                             : unhex(kGoldenControlPayload);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

void expect_same_msg(const Msg& got, const Msg& want) {
  EXPECT_EQ(got.type(), want.type());
  EXPECT_EQ(got.origin(), want.origin());
  EXPECT_EQ(got.app(), want.app());
  EXPECT_EQ(got.seq(), want.seq());
  EXPECT_EQ(got.payload()->bytes(), want.payload()->bytes());
}

TEST(GoldenWire, LinkSendsExactBytes) {
  Reactor pool(1);
  obs::MetricsRegistry metrics;
  BandwidthEmulator bandwidth;
  RecordingSink sink;
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  const NodeId peer = NodeId::loopback(listener->port());
  auto conn = TcpConn::connect_start(peer);
  ASSERT_TRUE(conn.has_value());
  PeerLink link(kGoldenSelf, peer, EngineConfig{}, bandwidth,
                RealClock::instance(), sink, metrics, pool.pick());
  for (const auto& m : golden_msgs()) {
    ASSERT_TRUE(link.send_buffer().try_push(m));
  }
  link.start(std::move(*conn), /*dial_pending=*/true);
  link.notify_send();
  ASSERT_TRUE(wait_readable(listener->fd(), seconds(1.0)));
  auto server = listener->accept();
  ASSERT_TRUE(server.has_value());

  const std::vector<u8> want = golden_stream();
  std::vector<u8> got(want.size());
  ASSERT_TRUE(server->read_all(got.data(), got.size()));
  // Hello and headers compared as hex for a readable failure.
  std::size_t off = 0;
  EXPECT_EQ(hex(got.data(), kHelloBytes), kGoldenHello);
  off += kHelloBytes;
  const auto msgs = golden_msgs();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(hex(got.data() + off, Msg::kHeaderSize), kGoldenHeaders[i]);
    off += msgs[i]->wire_size();
  }
  EXPECT_TRUE(got == want) << "payload bytes differ";
  link.stop();
  link.join();
}

TEST(GoldenWire, ExactBytesDecodeIntoLink) {
  Reactor pool(1);
  obs::MetricsRegistry metrics;
  BandwidthEmulator bandwidth;
  RecordingSink sink;
  SlabPool slabs;
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  auto client =
      TcpConn::connect(NodeId::loopback(listener->port()), seconds(1.0));
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(wait_readable(listener->fd(), seconds(1.0)));
  auto server = listener->accept();
  ASSERT_TRUE(server.has_value());

  // The hello decodes the way the engine's accept path reads it...
  const std::vector<u8> stream = golden_stream();
  ASSERT_TRUE(client->write_all(stream.data(), kHelloBytes));
  const auto hello = read_hello(*server);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->kind, ConnKind::kPersistent);
  EXPECT_EQ(hello->sender, kGoldenSelf);

  // ...and the frames behind it land in the link's receive buffer (data)
  // and the sink (control).
  PeerLink link(NodeId::loopback(listener->port()), kGoldenSelf,
                EngineConfig{}, bandwidth, RealClock::instance(), sink,
                metrics, pool.pick(), &slabs);
  link.start(std::move(*server), /*dial_pending=*/false);
  ASSERT_TRUE(client->write_all(stream.data() + kHelloBytes,
                                stream.size() - kHelloBytes));
  ASSERT_TRUE(wait_until([&] {
    return link.recv_buffer().size() == 3 && sink.posted().size() == 1;
  }));
  const auto want = golden_msgs();
  for (std::size_t i = 0; i < 3; ++i) {
    auto in = link.recv_buffer().try_pop();
    ASSERT_TRUE(in.has_value());
    expect_same_msg(*in->msg, *want[i]);
  }
  expect_same_msg(*sink.posted()[0], *want[3]);
  link.stop();
  link.join();
}

// ---------------------------------------------------------------------------
// Teardown loss accounting
// ---------------------------------------------------------------------------

TEST(ReactorTeardown, UnsentSendBufferCountsAsLost) {
  Reactor pool(1);
  Worker& worker = pool.pick();
  obs::MetricsRegistry metrics;
  BandwidthEmulator bandwidth;
  RecordingSink sink;
  EngineConfig config;
  config.send_buffer_msgs = 64;
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  auto client =
      TcpConn::connect(NodeId::loopback(listener->port()), seconds(1.0));
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(wait_readable(listener->fd(), seconds(1.0)));
  auto server = listener->accept();
  ASSERT_TRUE(server.has_value());

  PeerLink link(kGoldenSelf, NodeId::loopback(listener->port()), config,
                bandwidth, RealClock::instance(), sink, metrics, worker);
  link.start(std::move(*server), /*dial_pending=*/false);
  // Tasks run FIFO: once this one has run, so has the link's start task
  // and the send pump it ends with. Nothing pumps the buffer after that
  // without a notify_send().
  std::atomic<bool> started{false};
  worker.submit([&] { started.store(true); });
  ASSERT_TRUE(wait_until([&] { return started.load(); }));

  constexpr u64 kQueued = 40;
  for (u32 i = 0; i < kQueued; ++i) {
    ASSERT_TRUE(link.send_buffer().try_push(
        Msg::data(kGoldenSelf, 7, i, Buffer::pattern(100, i))));
  }
  link.stop();
  link.join();
  EXPECT_EQ(chaos::counter_value(metrics.snapshot(),
                                 obs::names::kLinkLostMessagesTotal,
                                 {{"dir", "down"}}),
            static_cast<double>(kQueued));
  EXPECT_EQ(link.down_meter().lost_msgs(), kQueued);
  EXPECT_EQ(link.down_meter().total_msgs(), 0u);
}

TEST(ReactorTeardown, LinkStoppedBeforeItsSocketCountsQueuedAsLost) {
  // A deferred dial queues into a link that has no socket yet; if the
  // link is torn down before it gets one, the queue is lost, not leaked.
  Reactor pool(1);
  obs::MetricsRegistry metrics;
  BandwidthEmulator bandwidth;
  RecordingSink sink;
  PeerLink link(kGoldenSelf, NodeId::loopback(1), EngineConfig{}, bandwidth,
                RealClock::instance(), sink, metrics, pool.pick());
  constexpr u64 kQueued = 5;
  for (u32 i = 0; i < kQueued; ++i) {
    ASSERT_TRUE(link.send_buffer().try_push(
        Msg::data(kGoldenSelf, 7, i, Buffer::pattern(100, i))));
  }
  link.notify_send();  // nothing to send on yet: a no-op
  link.stop();
  link.join();
  EXPECT_EQ(link.down_meter().lost_msgs(), kQueued);
  EXPECT_TRUE(sink.posted().empty());  // no kPeerFailed for a deliberate stop
}

// ---------------------------------------------------------------------------
// Two-engine stream
// ---------------------------------------------------------------------------

struct Node {
  std::unique_ptr<Engine> engine;
  RecordingRelay* relay = nullptr;  // owned by engine
};

Node make_node() {
  auto algorithm = std::make_unique<RecordingRelay>();
  Node n;
  n.relay = algorithm.get();
  n.engine = std::make_unique<Engine>(EngineConfig{}, std::move(algorithm));
  return n;
}

constexpr u32 kApp = 1;
constexpr std::size_t kPayload = 1000;
constexpr u64 kMsgs = 300;

/// Streams kMsgs between two engines and requires a loss-free,
/// duplicate-free, corruption-free delivery. The stream also exercises
/// both directions of the single persistent connection: kJoin/QoS
/// control traffic flows sink→source on the same socket.
TEST(ReactorInterop, ReactorToReactor) {
  Node a = make_node();
  Node b = make_node();
  auto sink = std::make_shared<SinkApp>(kPayload);
  a.engine->register_app(kApp,
                         std::make_shared<BackToBackSource>(kPayload, kMsgs));
  b.engine->register_app(kApp, sink);
  ASSERT_TRUE(b.engine->start());
  ASSERT_TRUE(a.engine->start());
  b.relay->set_consume(kApp, true);
  a.engine->post(Msg::control(MsgType::kControl, NodeId(), kControlApp,
                              RelayAlgorithm::kAddChild,
                              static_cast<i32>(kApp),
                              b.engine->self().to_string()));
  a.engine->deploy_source(kApp);

  ASSERT_TRUE(wait_until([&] {
    return sink->stats(RealClock::instance().now()).distinct == kMsgs;
  }));
  const auto stats = sink->stats(RealClock::instance().now());
  EXPECT_EQ(stats.msgs, kMsgs);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
}

}  // namespace
}  // namespace iov
