// The harness's own tests.
//
//   perfbench_selftest [WORK_DIR]
//
// 1. Statistics: percentiles, ratios, slice and column medians, and the
//    failed-operation-misses-every-limit rule.
// 2. Seeded inputs: the same seed gives the same draws.
// 3. A smoke-sized run of every workload, untraced and traced: every check
//    passes, every end-to-end metric is present, finite and positive, and
//    every per-layer metric the workload is meant to move is present.
//
// Exits 0 when everything passes; prints each failure.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "stats.hpp"
#include "vage.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

void test_stats() {
  expect(percentile({}, 0.5) == 0, "percentile of nothing is 0");
  expect(percentile({5}, 0.95) == 5, "percentile of one sample");
  expect(near(percentile({4, 1, 3, 2}, 0.5), 2.5), "median interpolates");
  expect(percentile({3, 1, 2}, 0) == 1, "q=0 is the minimum");
  expect(percentile({3, 1, 2}, 1) == 3, "q=1 is the maximum");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(percentile(hundred, 0.95), 95.05), "p95 of 1..100 is 95.05");
  expect(near(median({7, 1, 5}), 5), "median of three");

  expect(ratio(6, 3) == 2, "ratio");
  expect(ratio(1, 0) == 0, "ratio by zero is 0");

  LatencyLog log;
  log.ok(10);
  log.ok(20);
  log.fail();
  expect(log.attempted() == 3 && log.failed() == 1, "log counts failures");
  expect(log.p(0.5) == 20, "a failure pushes the median up");
  expect(std::isinf(log.p(1.0)), "a failure misses every latency limit");
  LatencyLog other;
  other.ok(1);
  log.absorb(other);
  expect(log.attempted() == 4 && log.failed() == 1, "absorb");
  expect(other.attempted() == 0, "absorb empties the source");

  Measurement m;
  m.lat.ok(1);
  m.lat.ok(1);
  m.lat.fail();
  m.elapsed_s = 2;
  expect(m.ops_per_s() == 1, "failed operations do not count as completed");

  // Medians over slices: one slow slice of three moves neither the rate
  // nor the percentiles; counts are summed.
  Slices s;
  s.each.resize(3);
  for (size_t k = 0; k < 3; ++k) {
    const double us = k == 1 ? 1000 : 10 + static_cast<double>(k);
    for (int i = 0; i < (k == 1 ? 1 : 10); ++i) s.each[k].lat.ok(us);
    s.each[k].elapsed_s = 1;
    s.each[k].allocs = 5;
  }
  s.each[2].lat.fail();
  expect(s.attempted() == 22 && s.failed() == 1 && s.allocs() == 15,
         "slice counts are summed");
  expect(s.ops_per_s() == 10, "rate is the median slice rate");
  expect(s.latency_us(0.5) == 12, "p50 is the median slice p50");

  // Position by position: one slow entry in each row, each at another
  // position, moves none of the medians.
  const std::vector<double> med =
      column_medians({{9, 1, 1}, {1, 9, 2}, {1, 2, 9}});
  expect(med == std::vector<double>({1, 2, 2}), "column medians");
  expect(column_medians({}).empty(), "no rows, no medians");
}

void test_seeds() {
  Rng a(42), b(42), c(43);
  bool same = true, differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.next();
    same = same && x == b.next();
    differs = differs || x != c.next();
  }
  expect(same, "same seed, same draws");
  expect(differs, "another seed, other draws");
  const auto o1 = seeded_order(100, 7), o2 = seeded_order(100, 7);
  expect(o1 == o2, "seeded order is deterministic");
  expect(std::set<int>(o1.begin(), o1.end()).size() == 100,
         "seeded order is a permutation");
  expect(seeded_order(100, 8) != o1, "seeded order depends on the seed");
  expect(vage_source(3, false) == vage_source(3, false), "corpus is fixed");
}

/// The per-layer metrics each workload must report (the layers it runs).
const std::map<std::string, std::vector<std::string>>& layer_map() {
  static const std::vector<std::string> common = {
      "allocs_per_op", "trace.overhead_frac", "trace.span_coverage_pct"};
  static const std::vector<std::string> frontends = {
      "cfront.parse_ns", "javasrc.parse_ns", "annotate.run_ns"};
  static const std::vector<std::string> rpc = {
      "runtime.value_build_ns",  "runtime.string_of_ns",
      "wire.encode_ns",          "wire.decode_ns",
      "wire.pool.reuse_ratio",   "rpc.send_ns",
      "rpc.reply_wait_ns",       "serve.handler_ns",
      "rpc.frames_per_call",     "rpc.acks_per_call",
      "rpc.retransmits_per_call", "rpc.chunks_per_call",
      "rpc.wire_bytes_per_call", "rpc.goodput_ratio",
      "rpc.max_queue_depth",     "rpc.reactor.loop_lag_p50_ns",
      "rpc.reactor.loop_lag_p95_ns"};
  static const std::vector<std::string> pairs = {
      "service.lower_ns",          "service.freeze_ns",
      "service.compile_ns",        "compare.steps_per_pair",
      "planir.program_ops_per_pair", "mtype.left_nodes",
      "mtype.right_nodes",         "crosscache.verdict.hit_ratio",
      "crosscache.program.hit_ratio", "store.appends",
      "store.bytes_appended",      "store.flush_ns",
      "store.open_ns",             "store.hits",
      "crosscache.store.hydrated", "restart_ops_per_s",
      "batch_ops_per_s",           "batch.worker_utilization_pct"};
  static const std::vector<std::string> stub = {
      "jside.read_ns", "runtime.convert_ns", "cside.materialize_ns",
      "hand.convert_ns", "stub_over_hand_x"};
  auto join = [](std::initializer_list<std::vector<std::string>> parts) {
    std::vector<std::string> out;
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  };
  static const std::map<std::string, std::vector<std::string>> m = {
      {"serve_compile",
       join({common, frontends, rpc,
             {"crosscache.verdict.hit_ratio", "crosscache.program.hit_ratio"}})},
      {"serve_echo_bulk", join({common, rpc})},
      {"compile_cold", join({common, frontends, pairs, stub})},
      {"local_stub", join({common, stub})},
  };
  return m;
}

void test_workloads(const std::string& work_dir) {
  std::set<std::string> all_layers;
  for (const auto& [name, unit] : per_layer_metrics()) all_layers.insert(name);
  for (const auto& [name, fn] : workloads()) {
    for (bool trace : {false, true}) {
      RunConfig cfg;
      cfg.seed = 11;
      cfg.seconds = 0.4;
      cfg.trace = trace;
      cfg.smoke = true;
      cfg.work_dir = work_dir;
      const std::string tag = name + (trace ? " (traced)" : "");
      Result r;
      try {
        r = fn(cfg);
      } catch (const std::exception& e) {
        expect(false, tag + " threw: " + e.what());
        continue;
      }
      for (const auto& e : r.errors) expect(false, tag + ": " + e);
      expect(r.correct(), tag + " is correct");
      expect(r.attempted > 0 && r.failed == 0,
             tag + " attempted operations without failures");
      if (!trace) {
        for (const auto& [metric, unit] : end_to_end_metrics()) {
          auto it = r.metrics.find(metric);
          expect(it != r.metrics.end() && std::isfinite(it->second) &&
                     it->second > 0,
                 tag + " reports " + metric + " > 0");
        }
        continue;
      }
      auto it = layer_map().find(name);
      expect(it != layer_map().end(), tag + " has a layer map entry");
      if (it == layer_map().end()) continue;
      for (const auto& metric : it->second) {
        expect(all_layers.count(metric) == 1,
               tag + ": " + metric + " is a declared per-layer metric");
        expect(r.metrics.count(metric) == 1, tag + " reports " + metric);
      }
      auto cov = r.metrics.find("trace.span_coverage_pct");
      expect(cov != r.metrics.end() && cov->second >= 90,
             tag + " layer spans cover >= 90% of each operation");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string work_dir = argc > 1 ? argv[1] : "perfbench-selftest-work";
  std::filesystem::create_directories(work_dir);
  test_stats();
  test_seeds();
  test_workloads(work_dir);
  std::filesystem::remove_all(work_dir);
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
