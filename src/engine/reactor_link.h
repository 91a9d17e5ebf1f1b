// ReactorLink — the event-driven wire path of a PeerLink (DESIGN.md §9),
// the only thing that moves a link's bytes. The paper's receiver and
// sender threads become this state machine, pinned to one worker of the
// process-shared epoll reactor:
//
//   kConnecting --connect done--> kHandshaking --hello flushed-->
//   kEstablished --stop()/failure--> kDraining
//
// It keeps the paper's per-link semantics: per-message token-bucket
// pacing (sleeps become reactor timers), loss injection, the batched
// FrameReader decode and write_batch-shaped scatter-gather flushes of up
// to kMaxWireBatch frames, per-link meters/metrics, and the
// flush-before-sleep rule that keeps emulated departure/arrival times
// exact. Back-pressure is event-loop parking instead of a blocking
// queue call:
//   * recv buffer full  -> stop reading (drop EPOLLIN; kernel window
//     fills; TCP pushes back) until the engine drains the buffer and
//     calls notify_recv_space();
//   * send buffer empty -> do nothing until the engine pushes and calls
//     notify_send().
//
// Threading: start/request_stop/wait_stopped/notify_* are called from
// the engine thread; every other method runs on the owning reactor
// worker. The two sides meet only through atomics, the thread-safe
// queues, and Worker::submit (whose per-worker FIFO ordering guarantees
// that a notify task submitted before the stop task can never observe
// the link after teardown).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "engine/peer_link.h"
#include "message/codec.h"
#include "message/msg.h"
#include "net/framing.h"
#include "net/reactor/reactor.h"
#include "obs/metrics.h"

namespace iov::engine {

class ReactorLink final : public reactor::EventHandler {
 public:
  /// `link` owns this object and outlives it. `connect_timeout` bounds a
  /// dial's TCP handshake.
  ReactorLink(PeerLink& link, reactor::Worker& worker,
              obs::Histogram& loop_lag, Duration connect_timeout);

  // --- Engine-thread API ---------------------------------------------------

  /// Registers the link's socket with the worker (asynchronously).
  /// `dial_pending` means the connection came from TcpConn::connect_start
  /// and the TCP handshake (then our hello) must complete before frames
  /// flow; false means an accepted, hello-completed socket.
  void start(bool dial_pending);

  /// Submits the teardown task. Call after PeerLink::stop closed the
  /// queues and shut the socket down. Idempotent.
  void request_stop();

  /// Blocks until the teardown task has run on the worker; after this no
  /// worker code touches the link again.
  void wait_stopped();

  /// The engine pushed into the send buffer: schedule a send pump
  /// (deduplicated — at most one pump task in flight).
  void notify_send();

  /// The engine drained the receive buffer: resume a reader parked on a
  /// full buffer (no-op otherwise).
  void notify_recv_space();

  // --- Worker-thread entry points ------------------------------------------

  void on_event(u32 events) override;

 private:
  enum class State { kConnecting, kHandshaking, kEstablished, kDraining };

  // All private methods run on the worker thread.
  void ws_start(bool dial_pending);
  void ws_connect_ready();
  void pump_send();
  void pump_recv();
  void on_send_pace_done();
  void on_recv_pace_done();
  void resume_recv();

  /// Moves pacing-cleared messages onto the wire queue (headers encoded
  /// here, so a partial write can resume byte-exactly).
  void stage_pending();

  /// Writes the raw handshake bytes, then wire frames, until drained or
  /// EAGAIN (arms EPOLLOUT) or error (fails the link). Returns true only
  /// when everything staged so far is on the wire.
  bool flush_wire();

  /// Hands the decoded batch to the switch. On a full buffer parks the
  /// reader (recv_full_, EPOLLIN off, engine woken) and returns false.
  bool flush_inbound();

  /// Post-pacing half of message delivery: meters, then route to the
  /// recv buffer (kData) or the internal sink (control).
  void account_and_route(MsgPtr m);

  /// True while the reader must not consume more input.
  bool read_parked() const { return paced_ || held_ctrl_ || recv_full_; }

  /// Marks the link failed, notifies the engine (unless stopping), and
  /// detaches.
  void fail(MsgType kind);

  /// Removes the fd and timers from the worker and accounts every
  /// undelivered egress message as lost. Idempotent.
  void detach();

  /// Recomputes the epoll interest mask from the parked/blocked flags.
  void update_interest();

  int fd() const;

  PeerLink& link_;
  reactor::Worker& worker_;
  obs::Histogram& loop_lag_;
  const Duration connect_timeout_;

  // --- Worker-thread state -------------------------------------------------
  State state_ = State::kConnecting;
  bool detached_ = false;
  bool registered_ = false;   ///< fd currently added to the worker's epoll
  bool suspended_ = false;    ///< deregistered while parked (HUP/ERR storm)
  u32 interest_ = 0;          ///< current epoll interest mask

  std::vector<u8> raw_head_;  ///< hello bytes to send before any frame
  std::size_t raw_off_ = 0;

  // Receive path.
  FrameReader reader_;
  std::vector<Inbound> inbound_;  ///< decoded kData awaiting one batch push
  MsgPtr paced_;      ///< decoded message waiting out a recv pacing timer
  MsgPtr held_ctrl_;  ///< control message waiting for inbound_ to flush
  bool recv_full_ = false;  ///< recv buffer refused part of inbound_
  u64 seen_syscalls_ = 0;
  u64 refill_msgs_ = 0;

  // Send path.
  std::vector<MsgPtr> popped_;   ///< batch popped from the send buffer
  std::size_t popped_idx_ = 0;   ///< first unprocessed element of popped_
  std::vector<MsgPtr> pending_;  ///< pacing-cleared, not yet staged
  std::deque<MsgPtr> wire_msgs_;              ///< staged frames
  std::deque<codec::HeaderBytes> wire_headers_;
  std::size_t wire_off_ = 0;   ///< bytes of the front frame already sent
  bool send_paced_ = false;    ///< a send pacing timer is pending
  bool write_blocked_ = false; ///< last write hit EAGAIN; EPOLLOUT armed

  // --- Cross-thread state --------------------------------------------------
  std::atomic<bool> send_scheduled_{false};
  std::atomic<bool> recv_blocked_{false};
  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopped_ = false;  // guarded by stop_mu_
};

}  // namespace iov::engine
