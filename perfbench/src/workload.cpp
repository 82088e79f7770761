#include "workload.hpp"

#include <atomic>

#include "host.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"latency_p50_us", "us"}, {"latency_p95_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      // service / mtype / compare / planir: the compile path per pair
      {"service.lower_ns", "ns"},
      {"service.freeze_ns", "ns"},
      {"service.compile_ns", "ns"},
      {"compare.steps_per_pair", "count"},
      {"planir.program_ops_per_pair", "count"},
      {"mtype.left_nodes", "count"},
      {"mtype.right_nodes", "count"},
      {"crosscache.verdict.hit_ratio", "ratio"},
      {"crosscache.program.hit_ratio", "ratio"},
      {"batch.worker_utilization_pct", "%"},
      // frontends, once per corpus load
      {"cfront.parse_ns", "ns"},
      {"javasrc.parse_ns", "ns"},
      {"annotate.run_ns", "ns"},
      // durable store, per round
      {"store.appends", "count"},
      {"store.bytes_appended", "bytes"},
      {"store.flush_ns", "ns"},
      {"store.open_ns", "ns"},
      {"store.hits", "count"},
      {"crosscache.store.hydrated", "count"},
      {"restart_ops_per_s", "1/s"},
      {"batch_ops_per_s", "1/s"},
      // value model and wire codec, per call
      {"runtime.value_build_ns", "ns"},
      {"runtime.string_of_ns", "ns"},
      {"wire.encode_ns", "ns"},
      {"wire.decode_ns", "ns"},
      {"wire.pool.reuse_ratio", "ratio"},
      // rpc and transport, per call
      {"rpc.send_ns", "ns"},
      {"rpc.reply_wait_ns", "ns"},
      {"serve.handler_ns", "ns"},
      {"rpc.frames_per_call", "count"},
      {"rpc.acks_per_call", "count"},
      {"rpc.retransmits_per_call", "count"},
      {"rpc.chunks_per_call", "count"},
      {"rpc.wire_bytes_per_call", "bytes"},
      {"rpc.goodput_ratio", "ratio"},
      {"rpc.max_queue_depth", "count"},
      {"rpc.reactor.loop_lag_p50_ns", "ns"},
      {"rpc.reactor.loop_lag_p95_ns", "ns"},
      // local stub runtime, per conversion
      {"jside.read_ns", "ns"},
      {"runtime.convert_ns", "ns"},
      {"cside.materialize_ns", "ns"},
      {"hand.convert_ns", "ns"},
      {"stub_over_hand_x", "x"},
      // every workload
      {"allocs_per_op", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.span_coverage_pct", "%"},
  };
  return m;
}

uint64_t Slices::attempted() const {
  uint64_t n = 0;
  for (const Measurement& m : each) n += m.lat.attempted();
  return n;
}

uint64_t Slices::failed() const {
  uint64_t n = 0;
  for (const Measurement& m : each) n += m.lat.failed();
  return n;
}

uint64_t Slices::allocs() const {
  uint64_t n = 0;
  for (const Measurement& m : each) n += m.allocs;
  return n;
}

double Slices::ops_per_s() const {
  std::vector<double> v;
  for (const Measurement& m : each) v.push_back(m.ops_per_s());
  return median(std::move(v));
}

double Slices::latency_us(double q) {
  std::vector<double> v;
  for (Measurement& m : each) v.push_back(m.lat.p(q));
  return median(std::move(v));
}

EndToEnd end_to_end(Slices& m) {
  return {m.ops_per_s(), m.latency_us(0.50), m.latency_us(0.95),
          peak_rss_mb()};
}

void report_end_to_end(Result& r, const Slices& m, const EndToEnd& e,
                       std::vector<double> setup_s) {
  r.attempted += m.attempted();
  r.failed += m.failed();
  r.set("setup_s", median(std::move(setup_s)));
  r.set("ops_per_s", e.ops_per_s);
  r.set("latency_p50_us", e.p50_us);
  r.set("latency_p95_us", e.p95_us);
  r.set("peak_rss_mb", e.peak_rss_mb);
}

uint64_t counter_value(const char* name) {
  return mbird::obs::counter(name).value();
}

CacheCounters::CacheCounters()
    : vh(counter_value("crosscache.verdict.hits")),
      vm(counter_value("crosscache.verdict.misses")),
      ph(counter_value("crosscache.program.hits")),
      pm(counter_value("crosscache.program.misses")) {}

void report_cache_ratios(Result& r, const CacheCounters& base) {
  const CacheCounters now;
  const double vh = static_cast<double>(now.vh - base.vh);
  const double vm = static_cast<double>(now.vm - base.vm);
  const double ph = static_cast<double>(now.ph - base.ph);
  const double pm = static_cast<double>(now.pm - base.pm);
  r.set("crosscache.verdict.hit_ratio", ratio(vh, vh + vm));
  r.set("crosscache.program.hit_ratio", ratio(ph, ph + pm));
}

uint64_t next_op_id() {
  static std::atomic<uint64_t> n{0};
  return ++n;
}

const std::vector<std::pair<std::string, WorkloadFn>>& workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> w = {
      {"serve_compile", run_serve_compile},
      {"serve_echo_bulk", run_serve_echo_bulk},
      {"compile_cold", run_compile_cold},
      {"local_stub", run_local_stub},
  };
  return w;
}

}  // namespace perfbench
