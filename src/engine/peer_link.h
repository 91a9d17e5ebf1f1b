// PeerLink — one persistent connection to a peer node, with its buffers
// and meters (paper Fig. 4).
//
// The paper's engine is "thread-per-receiver and thread-per-sender ...
// along with a separate engine thread"; because connections are
// persistent and full duplex ("all the messages between two nodes are
// carried with the same connection"), both directions share one TCP
// socket. Here the receiver and sender are not threads: a ReactorLink
// state machine on one worker of the process-shared epoll reactor moves
// the link's bytes (DESIGN.md §9).
//
// Data-plane flow (batched wire path, DESIGN.md §8):
//   reactor worker:   socket --FrameReader bulk decode--> per message:
//                     [bandwidth recv pacing] --> recv buffer
//                     (full buffer = stop reading = TCP back-pressure)
//   engine thread:    recv buffer --batch pop, switch/algorithm--> send
//                     buffer, then notify_send()
//   reactor worker:   send buffer --try_pop_batch--> per message: [bandwidth
//                     send pacing, splitting the flush at every throttle
//                     boundary] --scatter-gather sendmsg--> socket
//
// Control-plane messages received on the link (anything but kData) bypass
// the buffers and are posted straight to the engine's internal sink —
// the moral equivalent of the paper's trick of "passing application-layer
// messages across thread boundaries via the publicized port". Failures
// are reported the same way (kPeerFailed / kSendFailed).
#pragma once

#include <atomic>
#include <memory>

#include "common/bounded_queue.h"
#include "common/clock.h"
#include "common/node_id.h"
#include "common/rng.h"
#include "engine/config.h"
#include "message/msg.h"
#include "message/slab_pool.h"
#include "net/bandwidth.h"
#include "net/socket.h"
#include "net/throughput.h"
#include "obs/metrics.h"

namespace iov::reactor {
class Worker;
}  // namespace iov::reactor

namespace iov::engine {

class ReactorLink;

/// A data message waiting in a receive buffer, stamped with the time the
/// link enqueued it so the switch can measure enqueue→dequeue latency
/// (docs/METRICS.md: iov_switch_latency_seconds).
struct Inbound {
  MsgPtr msg;
  TimePoint enqueued_at = 0;
};

/// Where links deposit messages for the engine thread.
class InternalSink {
 public:
  virtual ~InternalSink() = default;
  /// Enqueues a message for the engine thread and wakes it.
  virtual void post(MsgPtr m) = 0;
  /// Wakes the engine thread without a message (buffer state changed).
  virtual void wake() = 0;
};

class PeerLink {
 public:
  /// A link to `peer` driven on `worker`, one worker of the shared epoll
  /// reactor. It has no socket until start(); until then the engine may
  /// already queue into its send buffer. `config` supplies buffer
  /// capacities and the connect timeout; `metrics` must outlive the link
  /// (the engine owns both). `pool`, when non-null, serves the
  /// large-frame payload slabs (the engine owns the pool, which must
  /// outlive the link).
  PeerLink(NodeId self, NodeId peer, const EngineConfig& config,
           BandwidthEmulator& bandwidth, const Clock& clock,
           InternalSink& sink, obs::MetricsRegistry& metrics,
           reactor::Worker& worker, SlabPool* pool = nullptr);
  ~PeerLink();

  PeerLink(const PeerLink&) = delete;
  PeerLink& operator=(const PeerLink&) = delete;

  /// Takes ownership of `conn` and registers it with the reactor worker
  /// (asynchronously). `dial_pending` means `conn` came from
  /// TcpConn::connect_start and the TCP handshake + our hello still have
  /// to complete on the worker; false means an accepted socket whose
  /// hello the engine already consumed. Call at most once, before stop().
  void start(TcpConn conn, bool dial_pending);

  /// The engine pushed into the send buffer — schedule a send pump on
  /// the worker (deduplicated).
  void notify_send();

  /// The engine drained the receive buffer — resume a reader parked on a
  /// full buffer.
  void notify_recv_space();

  /// Initiates teardown: closes both buffers, shuts the socket down and
  /// submits the worker's detach task. Idempotent; safe from the engine
  /// thread.
  void stop();

  /// Waits until the worker has detached the link. Call after stop().
  void join();

  const NodeId& peer() const { return peer_; }

  /// Receive buffer the engine's switch drains. Engine-thread consumers
  /// should use try_pop().
  BoundedQueue<Inbound>& recv_buffer() { return recv_buffer_; }
  const BoundedQueue<Inbound>& recv_buffer() const { return recv_buffer_; }

  /// Send buffer the switch fills (try_push from the engine thread).
  BoundedQueue<MsgPtr>& send_buffer() { return send_buffer_; }
  const BoundedQueue<MsgPtr>& send_buffer() const { return send_buffer_; }

  /// Refreshes the queue-depth gauges; the engine calls this from the
  /// switch so depth tracks the data plane without extra locking here.
  void update_queue_gauges();

  const ThroughputMeter& up_meter() const { return up_meter_; }
  const ThroughputMeter& down_meter() const { return down_meter_; }
  ThroughputMeter& down_meter() { return down_meter_; }

  /// True once the link has observed a fatal socket error.
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// Emulated sender-side message loss (kSetLoss fault injection): each
  /// queued message is dropped with this probability before hitting the
  /// wire, accounted in the down-direction loss meters. Thread safe.
  void set_send_loss(double probability);

 private:
  friend class ReactorLink;  // the state machine that moves this link's bytes

  /// Loss accounting shared by every sender-side drop site.
  void count_send_loss(const Msg& m);

  const NodeId self_;
  const NodeId peer_;
  TcpConn conn_;
  SlabPool* const pool_;
  BandwidthEmulator& bandwidth_;
  const Clock& clock_;
  InternalSink& sink_;

  BoundedQueue<Inbound> recv_buffer_;
  BoundedQueue<MsgPtr> send_buffer_;
  ThroughputMeter up_meter_;    // bytes received from peer
  ThroughputMeter down_meter_;  // bytes sent to peer

  // Cached registry handles (lock-free atomics on the hot path); `dir` is
  // "up" for peer→us traffic, "down" for us→peer (paper Fig. 4).
  obs::Counter& up_bytes_;
  obs::Counter& up_msgs_;
  obs::Counter& down_bytes_;
  obs::Counter& down_msgs_;
  obs::Counter& down_lost_bytes_;
  obs::Counter& down_lost_msgs_;
  obs::Gauge& recv_depth_;
  obs::Gauge& send_depth_;
  obs::Histogram& recv_throttle_wait_;
  obs::Histogram& send_throttle_wait_;
  obs::Counter& up_syscalls_;    ///< recv syscalls (FrameReader refills)
  obs::Counter& down_syscalls_;  ///< sendmsg calls issued by flushes
  obs::Histogram& up_flush_msgs_;    ///< frames decoded per recv refill
  obs::Histogram& down_flush_msgs_;  ///< messages per scatter-gather flush

  // Injected loss, parts per million; the rng is worker-thread-only.
  std::atomic<u32> send_loss_ppm_{0};
  Rng loss_rng_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> failed_{false};

  std::unique_ptr<ReactorLink> rlink_;
};

}  // namespace iov::engine
