// In-memory span recorder for the traced run.
//
// Spans are recorded only by the harness, around its own calls into each
// layer of the program. Each thread appends to its own buffer (no lock on
// the hot path); the buffers are merged once the workload's threads are
// quiescent, aggregated into the per-layer metrics, and written out as
// Chrome trace-event JSON when the run ends. When tracing is off a Span
// costs one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] uint64_t mono_ns();

struct SpanRecord {
  const char* name = "";  // string literal
  uint64_t op = 0;        // operation id shared by one operation's spans
  uint64_t t0 = 0, t1 = 0;
  uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return on_.load(std::memory_order_relaxed);
  }
  void record(const char* name, uint64_t op, uint64_t t0, uint64_t t1);

  /// Every recorded span, all threads. Call while no thread records.
  [[nodiscard]] std::vector<SpanRecord> collect() const;
  void clear();

  /// Write every recorded span as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps, the op id in args). `meta` is embedded as
  /// the top-level "meta" object. Returns false on I/O failure.
  bool write_chrome(const std::string& path, const std::string& meta) const;

 private:
  struct Buffer {
    uint32_t tid = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer& local();

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: records [construction, destruction) under `name` when the
/// tracer is enabled.
class Span {
 public:
  Span(const char* name, uint64_t op)
      : name_(name), op_(op), t0_(Tracer::get().enabled() ? mono_ns() : 0) {}
  ~Span() {
    if (t0_ != 0) Tracer::get().record(name_, op_, t0_, mono_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t op_;
  uint64_t t0_;
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRecord>& spans);

/// Median, over operations, of the share of each `op_name` span covered by
/// the spans named in `layers` that carry the same op id and thread, in
/// percent. 0 when there are no op spans.
[[nodiscard]] double median_coverage_pct(
    const std::vector<SpanRecord>& spans, const std::string& op_name,
    const std::vector<std::string>& layers);

}  // namespace perfbench
