// In-memory span recorder for the end-to-end benchmark's traced runs.
//
// Spans come only from the benchmark's own calls into the library's public
// functions (the library itself carries no tracing). A span records its
// name, start, end, parent span and op id; spans reconstructed from what the
// program reports after the fact (SelectionReport timings, serve
// LatencyBreakdown) are flagged `derived`, because their placement inside
// the parent is inferred rather than observed.
//
// Span names are "<layer>.<what>" ("graph.knn_build", "api.run"); the layer
// is the prefix before the first dot. A span's self time is its duration
// minus the part of it that its children cover, and the per-layer table sums
// self time by layer.
//
// The recorder is also the benchmark's clock: now() works with tracing off,
// and then records nothing. Not thread-safe: the benchmark records every span
// from its main thread.
#pragma once

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace e2e {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder's origin
  double end = 0.0;
  int parent = -1;     // index into spans(), -1 for a root
  long op = -1;        // measured-phase op id, -1 outside the measured phase
  bool derived = false;
};

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Seconds since the recorder was created.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// The clock instant `seconds` after the origin (for sleep_until).
  Clock::time_point time_point(double seconds) const {
    return origin_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  }

  /// Records a complete span; returns its id (-1 when tracing is off).
  int add(std::string name, double start, double end, int parent, long op,
          bool derived) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), start, end, parent, op, derived});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Sets the end of an open span (no-op for id -1).
  void close(int id, double end) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = end;
  }

  /// Self seconds of every span: duration minus the union of its children.
  std::vector<double> self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                     span.end);
      }
    }
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double cursor = span.start;
      for (auto [start, end] : kids) {
        start = std::max(start, cursor);
        end = std::min(end, span.end);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
      self[i] = std::max(0.0, (span.end - span.start) - covered);
    }
    return self;
  }

  /// Layer -> summed self seconds over the measured phase (spans with an op).
  std::map<std::string, double> self_seconds_by_layer() const {
    const std::vector<double> self = self_seconds();
    std::map<std::string, double> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].op < 0) continue;
      const std::string& name = spans_[i].name;
      layers[name.substr(0, name.find('.'))] += self[i];
    }
    return layers;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable in
  /// chrome://tracing or Perfetto. Derived spans sit on their own track.
  std::string chrome_json() const {
    subsel::JsonWriter json;
    json.begin_object();
    json.key("displayTimeUnit").value("ms");
    json.key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      json.begin_object();
      json.key("name").value(span.name);
      json.key("cat").value(span.name.substr(0, span.name.find('.')));
      json.key("ph").value("X");
      json.key("ts").value(span.start * 1e6);
      json.key("dur").value((span.end - span.start) * 1e6);
      json.key("pid").value(1);
      json.key("tid").value(span.derived ? 2 : 1);
      json.key("args").begin_object();
      json.key("id").value(i);
      json.key("parent").value(span.parent);
      json.key("op").value(span.op);
      json.key("derived").value(span.derived);
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return json.str();
  }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Times one benchmark call into the library and records it as a span;
/// stop() (or the destructor) closes it. Times are kept whether or not
/// tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, std::string name, long op = -1, int parent = -1)
      : trace_(trace), start_(trace.now()) {
    id_ = trace_.add(std::move(name), start_, start_, parent, op, false);
  }
  ~ScopedSpan() { stop(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const noexcept { return id_; }
  double start() const noexcept { return start_; }

  /// Closes the span (once) and returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      end_ = trace_.now();
      trace_.close(id_, end_);
      stopped_ = true;
    }
    return end_ - start_;
  }

 private:
  Trace& trace_;
  double start_;
  double end_ = 0.0;
  int id_ = -1;
  bool stopped_ = false;
};

}  // namespace e2e
