#ifndef HRDM_BENCH_TRACE_H_
#define HRDM_BENCH_TRACE_H_

// Spans for the traced run. The benchmark wraps each call it makes into a
// library layer in a `Span`; with tracing off a span costs one load. The
// benchmark records spans from its one client thread only (the library's
// worker threads never open one), so the tracer keeps a single buffer.

#include <cstdint>
#include <vector>

#include "stats.h"

namespace hrdm_bench {

struct SpanRecord {
  const char* name = "";
  uint64_t op = 0;      // all spans of one operation share it
  uint64_t id = 0;      // unique, > 0
  uint64_t parent = 0;  // 0 for a root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double us() const { return double(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  uint64_t NextOp() { return ++next_op_; }

  /// Every span recorded so far, in the order they closed.
  const std::vector<SpanRecord>& spans() const { return spans_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  friend class Span;
  Tracer() { spans_.reserve(1 << 16); }

  bool enabled_ = false;
  uint64_t next_op_ = 0;
  uint64_t next_span_ = 0;
  uint64_t current_ = 0;  // innermost open span
  std::vector<SpanRecord> spans_;
};

/// RAII span: open at construction, closed at `End()` or destruction.
class Span {
 public:
  Span(const char* name, uint64_t op) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    tracer_ = &t;
    rec_.name = name;
    rec_.op = op;
    rec_.id = ++t.next_span_;
    rec_.parent = t.current_;
    t.current_ = rec_.id;
    rec_.start_ns = Tracer::NowNs();
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End() {
    if (tracer_ == nullptr) return;
    rec_.end_ns = Tracer::NowNs();
    tracer_->current_ = rec_.parent;
    tracer_->spans_.push_back(rec_);
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
};

}  // namespace hrdm_bench

#endif  // HRDM_BENCH_TRACE_H_
