#include "engine/peer_link.h"

#include "engine/reactor_link.h"
#include "obs/metric_names.h"

namespace iov::engine {

namespace {
obs::Labels link_labels(const NodeId& peer, const char* dir) {
  return {{"peer", peer.to_string()}, {"dir", dir}};
}

// Bucket bounds for the flush/refill batch-size histograms (messages per
// syscall batch, not seconds).
const std::vector<double>& flush_bounds() {
  static const std::vector<double> kBounds{1, 2, 4, 8, 16, 32, 64, 128};
  return kBounds;
}
}  // namespace

PeerLink::PeerLink(NodeId self, NodeId peer, const EngineConfig& config,
                   BandwidthEmulator& bandwidth, const Clock& clock,
                   InternalSink& sink, obs::MetricsRegistry& metrics,
                   reactor::Worker& worker, SlabPool* pool)
    : self_(self),
      peer_(peer),
      pool_(pool),
      bandwidth_(bandwidth),
      clock_(clock),
      sink_(sink),
      recv_buffer_(config.recv_buffer_msgs),
      send_buffer_(config.send_buffer_msgs),
      up_bytes_(metrics.counter(obs::names::kLinkBytesTotal,
                                link_labels(peer, "up"))),
      up_msgs_(metrics.counter(obs::names::kLinkMessagesTotal,
                               link_labels(peer, "up"))),
      down_bytes_(metrics.counter(obs::names::kLinkBytesTotal,
                                  link_labels(peer, "down"))),
      down_msgs_(metrics.counter(obs::names::kLinkMessagesTotal,
                                 link_labels(peer, "down"))),
      down_lost_bytes_(metrics.counter(obs::names::kLinkLostBytesTotal,
                                       link_labels(peer, "down"))),
      down_lost_msgs_(metrics.counter(obs::names::kLinkLostMessagesTotal,
                                      link_labels(peer, "down"))),
      recv_depth_(metrics.gauge(obs::names::kLinkQueueDepth,
                                link_labels(peer, "up"))),
      send_depth_(metrics.gauge(obs::names::kLinkQueueDepth,
                                link_labels(peer, "down"))),
      recv_throttle_wait_(metrics.histogram(obs::names::kThrottleWaitSeconds,
                                            link_labels(peer, "up"))),
      send_throttle_wait_(metrics.histogram(obs::names::kThrottleWaitSeconds,
                                            link_labels(peer, "down"))),
      up_syscalls_(metrics.counter(obs::names::kLinkSyscallsTotal,
                                   link_labels(peer, "up"))),
      down_syscalls_(metrics.counter(obs::names::kLinkSyscallsTotal,
                                     link_labels(peer, "down"))),
      up_flush_msgs_(metrics.histogram(obs::names::kLinkFlushMsgs,
                                       link_labels(peer, "up"),
                                       flush_bounds())),
      down_flush_msgs_(metrics.histogram(obs::names::kLinkFlushMsgs,
                                         link_labels(peer, "down"),
                                         flush_bounds())),
      loss_rng_((static_cast<u64>(self.ip()) << 32) ^
                (static_cast<u64>(peer.ip()) << 16) ^ peer.port()) {
  metrics.gauge(obs::names::kLinkQueueCapacity, link_labels(peer, "up"))
      .set(static_cast<i64>(recv_buffer_.capacity()));
  metrics.gauge(obs::names::kLinkQueueCapacity, link_labels(peer, "down"))
      .set(static_cast<i64>(send_buffer_.capacity()));
  rlink_ = std::make_unique<ReactorLink>(
      *this, worker, metrics.histogram(obs::names::kReactorLoopLagSeconds),
      config.connect_timeout);
}

PeerLink::~PeerLink() {
  stop();
  join();
}

void PeerLink::start(TcpConn conn, bool dial_pending) {
  conn_ = std::move(conn);
  rlink_->start(dial_pending);
}

void PeerLink::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  recv_buffer_.close();
  send_buffer_.close();
  // Shutting down (not closing) the socket fails any in-flight I/O on the
  // worker without racing descriptor reuse; the fd is released with us.
  conn_.shutdown_both();
  rlink_->request_stop();
}

void PeerLink::join() { rlink_->wait_stopped(); }

void PeerLink::notify_send() { rlink_->notify_send(); }

void PeerLink::notify_recv_space() { rlink_->notify_recv_space(); }

void PeerLink::count_send_loss(const Msg& m) {
  down_meter_.record_loss(m.wire_size());
  down_lost_bytes_.inc(m.wire_size());
  down_lost_msgs_.inc();
}

void PeerLink::set_send_loss(double probability) {
  if (probability < 0.0) probability = 0.0;
  if (probability > 1.0) probability = 1.0;
  send_loss_ppm_.store(static_cast<u32>(probability * 1e6),
                       std::memory_order_relaxed);
}

void PeerLink::update_queue_gauges() {
  recv_depth_.set(static_cast<i64>(recv_buffer_.size()));
  send_depth_.set(static_cast<i64>(send_buffer_.size()));
}

}  // namespace iov::engine
