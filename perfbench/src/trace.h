// The traced run's instruments, all outside the library: spans recorded
// around the calls the engine makes into the algorithm and application
// layers, and the decorators that record them. Spans live in per-node
// logs written by one engine thread each and are read after the engines
// have joined, so recording takes no lock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algorithm/algorithm.h"
#include "algorithm/application.h"
#include "stats.h"

namespace perfbench {

/// One timed call. A message's spans share its id (origin, seq).
struct Span {
  const char* name = "";  ///< "apps.source", "algorithm.process", ...
  std::uint32_t node = 0;  ///< position in the chain
  std::uint64_t origin = 0;
  std::uint32_t seq = 0;
  iov::TimePoint start = 0;
  iov::TimePoint end = 0;
  std::int64_t parent = -1;  ///< index in the same list; -1 for a root
};

/// The span's duration minus the part of it covered by `children`'s
/// intervals (clipped to the span, overlaps counted once).
iov::Duration self_time(const Span& span, const std::vector<Span>& children);

/// Stable key of a node id, as spans carry it.
std::uint64_t origin_key(const iov::NodeId& id);

/// Bounded span buffer with one writer thread.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) { spans_.reserve(cap); }
  void add(const Span& s) {
    if (spans_.size() < cap_) spans_.push_back(s);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
};

/// Messages whose spans are kept: one in `kSpanStride` by sequence
/// number, so every node keeps the same ones.
inline constexpr std::uint32_t kSpanStride = 64;
inline bool span_sampled(std::uint32_t seq) { return seq % kSpanStride == 0; }

/// What the decorators of one node record. The decorators hold its
/// address, so it is neither copied nor moved.
struct NodeTrace {
  explicit NodeTrace(std::uint32_t node_index)
      : node(node_index), spans(1 << 14) {}
  NodeTrace(const NodeTrace&) = delete;
  NodeTrace& operator=(const NodeTrace&) = delete;
  std::uint32_t node;
  LogHistogram process_ns;     ///< algorithm process() of data messages
  std::uint64_t data_calls = 0;
  std::uint64_t control_calls = 0;
  LogHistogram app_ns;         ///< next_message() that produced a message,
                               ///< or deliver()
  LogHistogram source_lag_ns;  ///< source calls: call time minus due time
  SpanLog spans;
};

/// Algorithm decorator: forwards bind, on_start, process and status to
/// the wrapped algorithm and times every process() call. The engine binds
/// the decorator; the wrapped algorithm is bound to the same engine before
/// its first callback.
class TracedAlgorithm final : public iov::Algorithm {
 public:
  TracedAlgorithm(std::unique_ptr<iov::Algorithm> inner, NodeTrace* trace);

  void on_start() override;
  iov::Disposition process(const iov::MsgPtr& m) override;
  std::string status() const override;

  iov::Algorithm& inner() { return *inner_; }

 private:
  void bind_inner();

  std::unique_ptr<iov::Algorithm> inner_;
  NodeTrace* trace_;
  bool bound_ = false;
};

/// Application decorator: times next_message() (as "apps.source") and
/// deliver() (as "apps.sink"). `due_of` maps a produced message's seq to
/// the time it was due, for the source-lag figure.
class TracedApplication final : public iov::Application {
 public:
  using DueFn = std::function<iov::TimePoint(std::uint32_t seq)>;
  TracedApplication(std::shared_ptr<iov::Application> inner, NodeTrace* trace,
                    DueFn due_of);

  iov::MsgPtr next_message(iov::u32 app, const iov::NodeId& self,
                           iov::TimePoint now) override;
  void deliver(const iov::MsgPtr& m, iov::TimePoint now) override;

 private:
  std::shared_ptr<iov::Application> inner_;
  NodeTrace* trace_;
  DueFn due_of_;
};

/// Gathers the per-node logs of a chain into one list and links each span
/// to the one that caused it: a source span is a root, node 0's process
/// span hangs off the source span, node k's off node k-1's, and a sink
/// span off the process span of its own node.
std::vector<Span> link_chain_spans(const std::vector<const NodeTrace*>& nodes);

/// Writes `spans` as JSON lines (one object per span, with self time).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
