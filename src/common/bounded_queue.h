// Thread-safe bounded circular queue — the receive and send buffers
// between the engine thread and the reactor worker driving a link (paper
// §2.2).
//
// The paper's design deliberately has exactly one reader and one writer
// per buffer ("we adopt such a design to avoid the complex wait/signal
// scenario where the receiver or sender buffer is shared by more than one
// reader or writer threads"), but the queue itself is written to be safe
// for any number of each so tests can abuse it freely.
//
// Every operation is non-blocking. A full or empty buffer is reported to
// the caller, which parks instead of sleeping: a link whose receive
// buffer is full stops reading (back-pressure toward the upstream TCP
// connection) until PeerLink::notify_recv_space, and a link's send pump
// idles on an empty buffer until PeerLink::notify_send. After close(),
// pushes fail and pops drain the remaining elements, which is how
// graceful teardown proceeds.
#pragma once

#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace iov {

template <class T>
class BoundedQueue {
 public:
  /// Creates a queue holding at most `capacity` (> 0) elements.
  explicit BoundedQueue(std::size_t capacity)
      : ring_(capacity > 0 ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push. Returns false if the queue is full or closed.
  bool try_push(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || size_ == ring_.size()) return false;
    emplace_locked(std::move(value));
    return true;
  }

  /// Non-blocking bulk push: moves as many leading elements of `items` as
  /// fit (one lock for the lot) and returns how many were accepted — 0
  /// when full or closed. Consumed elements are left moved-from in
  /// `items`.
  std::size_t try_push_batch(std::vector<T>& items) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return 0;
    std::size_t pushed = 0;
    while (pushed < items.size() && size_ < ring_.size()) {
      emplace_locked(std::move(items[pushed]));
      ++pushed;
    }
    return pushed;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (size_ == 0) return std::nullopt;
    return take_locked();
  }

  /// Non-blocking bulk pop: appends up to `max` elements to `out` under a
  /// single lock acquisition. Returns the number popped (0 when empty).
  std::size_t try_pop_batch(std::vector<T>& out, std::size_t max) {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t popped = 0;
    while (popped < max && size_ > 0) {
      out.push_back(take_locked());
      ++popped;
    }
    return popped;
  }

  /// Pushes fail afterwards; pops drain whatever remains.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  std::size_t capacity() const { return ring_.size(); }

  bool empty() const { return size() == 0; }

  bool full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_ == ring_.size();
  }

 private:
  void emplace_locked(T&& value) {
    ring_[tail_] = std::move(value);
    tail_ = (tail_ + 1) % ring_.size();
    ++size_;
  }

  T take_locked() {
    T out = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --size_;
    return out;
  }

  mutable std::mutex mu_;
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace iov
