#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>

#include "common/clock.h"

namespace perfbench {

namespace {
constexpr char kSource[] = "apps.source";
constexpr char kSink[] = "apps.sink";
constexpr char kProcess[] = "algorithm.process";

iov::TimePoint now() { return iov::RealClock::instance().now(); }
}  // namespace

iov::Duration self_time(const Span& span, const std::vector<Span>& children) {
  std::vector<std::pair<iov::TimePoint, iov::TimePoint>> cover;
  for (const Span& c : children) {
    const iov::TimePoint a = std::max(c.start, span.start);
    const iov::TimePoint b = std::min(c.end, span.end);
    if (a < b) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  iov::Duration covered = 0;
  iov::TimePoint reach = span.start;
  for (const auto& [a, b] : cover) {
    const iov::TimePoint from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (span.end - span.start) - covered;
}

std::uint64_t origin_key(const iov::NodeId& id) {
  return (static_cast<std::uint64_t>(id.ip()) << 16) | id.port();
}

// --- TracedAlgorithm --------------------------------------------------------

TracedAlgorithm::TracedAlgorithm(std::unique_ptr<iov::Algorithm> inner,
                                 NodeTrace* trace)
    : inner_(std::move(inner)), trace_(trace) {}

void TracedAlgorithm::bind_inner() {
  if (bound_) return;
  inner_->bind(engine());
  bound_ = true;
}

void TracedAlgorithm::on_start() {
  bind_inner();
  inner_->on_start();
}

iov::Disposition TracedAlgorithm::process(const iov::MsgPtr& m) {
  bind_inner();
  if (m->type() != iov::MsgType::kData) {
    trace_->control_calls += 1;
    return inner_->process(m);
  }
  const iov::TimePoint t0 = now();
  const iov::Disposition d = inner_->process(m);
  const iov::TimePoint t1 = now();
  trace_->data_calls += 1;
  trace_->process_ns.add(static_cast<double>(t1 - t0));
  if (span_sampled(m->seq())) {
    trace_->spans.add(
        {kProcess, trace_->node, origin_key(m->origin()), m->seq(), t0, t1});
  }
  return d;
}

std::string TracedAlgorithm::status() const { return inner_->status(); }

// --- TracedApplication ------------------------------------------------------

TracedApplication::TracedApplication(std::shared_ptr<iov::Application> inner,
                                     NodeTrace* trace, DueFn due_of)
    : inner_(std::move(inner)), trace_(trace), due_of_(std::move(due_of)) {}

iov::MsgPtr TracedApplication::next_message(iov::u32 app,
                                            const iov::NodeId& self,
                                            iov::TimePoint t) {
  const iov::TimePoint t0 = now();
  iov::MsgPtr m = inner_->next_message(app, self, t);
  if (!m) return m;
  const iov::TimePoint t1 = now();
  trace_->app_ns.add(static_cast<double>(t1 - t0));
  if (due_of_) {
    trace_->source_lag_ns.add(static_cast<double>(t0 - due_of_(m->seq())));
  }
  if (span_sampled(m->seq())) {
    trace_->spans.add(
        {kSource, trace_->node, origin_key(m->origin()), m->seq(), t0, t1});
  }
  return m;
}

void TracedApplication::deliver(const iov::MsgPtr& m, iov::TimePoint t) {
  const iov::TimePoint t0 = now();
  inner_->deliver(m, t);
  const iov::TimePoint t1 = now();
  trace_->app_ns.add(static_cast<double>(t1 - t0));
  if (span_sampled(m->seq())) {
    trace_->spans.add(
        {kSink, trace_->node, origin_key(m->origin()), m->seq(), t0, t1});
  }
}

// --- Export -----------------------------------------------------------------

std::vector<Span> link_chain_spans(const std::vector<const NodeTrace*>& nodes) {
  std::vector<Span> all;
  for (const NodeTrace* n : nodes) {
    all.insert(all.end(), n->spans.spans().begin(), n->spans.spans().end());
  }
  using Key = std::tuple<std::string, std::uint32_t, std::uint64_t,
                         std::uint32_t>;
  std::map<Key, std::int64_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    index[{s.name, s.node, s.origin, s.seq}] = static_cast<std::int64_t>(i);
  }
  const auto find = [&](const char* name, std::uint32_t node,
                        const Span& s) -> std::int64_t {
    const auto it = index.find({name, node, s.origin, s.seq});
    return it == index.end() ? -1 : it->second;
  };
  for (Span& s : all) {
    if (std::strcmp(s.name, kSink) == 0) {
      s.parent = find(kProcess, s.node, s);
    } else if (std::strcmp(s.name, kProcess) == 0) {
      s.parent = s.node == 0 ? find(kSource, 0, s) : find(kProcess, s.node - 1, s);
    }
  }
  return all;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::vector<std::vector<Span>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back(s);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"node\": %u, "
                 "\"origin\": %llu, \"seq\": %u, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"self_ns\": %lld}\n",
                 i, s.name, s.node, static_cast<unsigned long long>(s.origin),
                 s.seq, static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(self_time(s, children[i])));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
