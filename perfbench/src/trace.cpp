#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "stats.hpp"

namespace perfbench {

uint64_t mono_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->tid = static_cast<uint32_t>(buffers_.size());
    buf->spans.reserve(1 << 14);
  }
  return *buf;
}

void Tracer::record(const char* name, uint64_t op, uint64_t t0, uint64_t t1) {
  Buffer& b = local();
  b.spans.push_back(SpanRecord{name, op, t0, t1, b.tid});
}

std::vector<SpanRecord> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : buffers_) b->spans.clear();
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& meta) const {
  std::vector<SpanRecord> all = collect();
  uint64_t epoch = UINT64_MAX;
  for (const auto& s : all) epoch = std::min(epoch, s.t0);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"meta\": " << meta << ",\n\"traceEvents\": [\n";
  bool first = true;
  char buf[64];
  for (const auto& s : all) {
    out << (first ? "" : ",\n");
    first = false;
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.t0 - epoch) / 1000.0);
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"ts\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(s.t1 - s.t0) / 1000.0);
    out << ", \"dur\": " << buf << ", \"pid\": 1, \"tid\": " << s.tid
        << ", \"args\": {\"op\": " << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotals> out;
  for (const auto& s : spans) {
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ns += s.t1 - s.t0;
  }
  return out;
}

double median_coverage_pct(const std::vector<SpanRecord>& spans,
                           const std::string& op_name,
                           const std::vector<std::string>& layers) {
  // (tid, op) -> covered ns; the layer spans of one operation never
  // overlap each other, so their durations add.
  auto key = [](const SpanRecord& s) {
    return (static_cast<uint64_t>(s.tid) << 48) ^ s.op;
  };
  std::unordered_map<uint64_t, uint64_t> covered;
  for (const auto& s : spans) {
    if (std::find(layers.begin(), layers.end(), s.name) != layers.end()) {
      covered[key(s)] += s.t1 - s.t0;
    }
  }
  std::vector<double> shares;
  for (const auto& s : spans) {
    if (op_name != s.name || s.t1 <= s.t0) continue;
    auto it = covered.find(key(s));
    const double c = it == covered.end() ? 0 : static_cast<double>(it->second);
    shares.push_back(100.0 * c / static_cast<double>(s.t1 - s.t0));
  }
  return median(std::move(shares));
}

}  // namespace perfbench
