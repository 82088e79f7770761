// What every workload takes and returns.
//
// A run measures one workload for a fixed wall-clock budget. With tracing
// off it reports the end-to-end metrics; with tracing on it first repeats
// the untraced measurement for half the budget, then traces the second
// half and reports the per-layer metrics (plus trace.overhead_frac, the
// share of untraced throughput the tracing cost).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke size: tiny inputs and budgets, for the self-test.
  bool smoke = false;
  /// Scratch directory for store files (inside the checkout).
  std::string work_dir = ".";
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// The metric names every run reports (BENCHMARK.json lists the same).
/// A workload that does not exercise a layer reports 0 for it.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed checks, human-readable
  std::map<std::string, double> metrics;

  [[nodiscard]] bool correct() const { return errors.empty() && failed == 0; }
  void check(bool ok, const std::string& what) {
    if (!ok && errors.size() < 20) errors.push_back(what);
  }
  void set(const std::string& name, double v) { metrics[name] = v; }
};

/// One stretch of measured time shared by every workload: operations,
/// their exact latency samples and the elapsed wall time.
struct Measurement {
  LatencyLog lat;
  double elapsed_s = 0;
  uint64_t allocs = 0;
  [[nodiscard]] double ops_per_s() const {
    return ratio(static_cast<double>(lat.attempted() - lat.failed()),
                 elapsed_s);
  }
};

/// How many consecutive slices a measured budget is cut into. On a shared
/// 4-CPU host, throughput in half-second windows of one 15 s serve_compile
/// run ranged from 19 000 to 63 000 calls/s. The end-to-end rate and
/// percentiles are medians over slices, so a burst of host noise that
/// covers fewer than half the slices does not move them.
inline constexpr size_t kSlices = 5;

/// A measured run as consecutive slices of about equal wall time (a
/// compile_cold round, longer than a slice, is one slice on its own).
struct Slices {
  std::vector<Measurement> each;

  [[nodiscard]] uint64_t attempted() const;
  [[nodiscard]] uint64_t failed() const;
  [[nodiscard]] uint64_t allocs() const;
  /// Median over slices of completed operations per second.
  [[nodiscard]] double ops_per_s() const;
  /// Median over slices of each slice's exact q-quantile latency.
  [[nodiscard]] double latency_us(double q);
};

/// The measured end-to-end rate, latency percentiles and peak resident
/// set of a run.
struct EndToEnd {
  double ops_per_s = 0;
  double p50_us = 0;
  double p95_us = 0;
  double peak_rss_mb = 0;
};

/// The end-to-end figures of a measured run: medians over its slices, and
/// the peak resident set so far.
[[nodiscard]] EndToEnd end_to_end(Slices& m);

/// Fill the end-to-end metrics from a measured run (`m` gives the
/// operation counts), its figures and the set-up times.
void report_end_to_end(Result& r, const Slices& m, const EndToEnd& e,
                       std::vector<double> setup_s);

/// Build a workload's state with `make` repeatedly, appending each
/// build's duration to `times`, until `window_s` seconds of it have been
/// timed and at least `min_reps` ran (at most `max_reps`); returns the last
/// result. The previous result is destroyed before the clock starts.
template <class Make>
auto repeat_setup(std::vector<double>& times, Make&& make, double window_s,
                  size_t min_reps, size_t max_reps) {
  decltype(make()) last{};
  double total = 0;
  for (size_t n = 0; n < min_reps || (total < window_s && n < max_reps);
       ++n) {
    last = {};
    const double t0 = now_s();
    last = make();
    times.push_back(now_s() - t0);
    total += times.back();
  }
  return last;
}

/// Set-up, timed: setup_s is the median of `times`. A run times 5 s of
/// set-ups, at least nine, in two halves: timed_setup before the measured
/// phase (it returns the state the run uses) and timed_setup_after after
/// it, so the set-up times sample the whole run and not only its start.
/// On a shared 4-CPU host a set-up's time switches between two levels
/// (serve_compile: about 22 and 35 ms) for stretches from a fraction of a
/// second to all of a 5 s window or longer, and the median follows the
/// share of slow set-ups; timing them at both ends of the run samples
/// more of those stretches than one window at its start.
template <class Make>
auto timed_setup(const RunConfig& cfg, std::vector<double>& times,
                 Make&& make) {
  return repeat_setup(times, make, 2.5, cfg.smoke ? 1 : 5,
                      cfg.smoke ? 1 : 1000);
}

/// The second half of the set-up window, after the measured phase; each
/// state built is destroyed at once. Read the peak resident set before.
template <class Make>
void timed_setup_after(const RunConfig& cfg, std::vector<double>& times,
                       Make&& make) {
  (void)repeat_setup(times, make, 2.5, cfg.smoke ? 1 : 4,
                     cfg.smoke ? 1 : 1000);
}

/// Untimed operations before the measurement starts, so allocator pools,
/// caches and buffer pools have settled: one second (a tenth in smoke runs).
[[nodiscard]] inline double warmup_s(const RunConfig& cfg) {
  return cfg.smoke ? 0.1 : 1.0;
}

/// CrossCache counters from the metrics registry, read as deltas.
struct CacheCounters {
  CacheCounters();
  uint64_t vh, vm, ph, pm;
};
/// Set crosscache.{verdict,program}.hit_ratio from the deltas since `base`.
void report_cache_ratios(Result& r, const CacheCounters& base);

[[nodiscard]] uint64_t counter_value(const char* name);

/// Operation ids for spans: unique across threads and rounds.
[[nodiscard]] uint64_t next_op_id();

/// Repeat `round` until `budget_s` is spent and at least `min_rounds`
/// rounds ran; the round in progress finishes, so a run measures whole
/// rounds for at least the budget. Rounds are grouped into slices of at
/// least budget_s / kSlices.
template <class Round>
Slices measure_rounds(double budget_s, Round&& round, int min_rounds = 1) {
  Slices s;
  const double slice_s = budget_s / static_cast<double>(kSlices);
  double total = 0;
  for (int n = 0; n < min_rounds || total < budget_s; ++n) {
    if (s.each.empty() || s.each.back().elapsed_s >= slice_s) {
      s.each.emplace_back();
    }
    Measurement& m = s.each.back();
    const uint64_t a0 = alloc_count();
    const double t0 = now_s();
    round(m);
    const double dt = now_s() - t0;
    m.elapsed_s += dt;
    m.allocs += alloc_count() - a0;
    total += dt;
  }
  return s;
}

/// Untraced half, then traced half; fills trace.overhead_frac and
/// allocs_per_op (from the untraced half) and returns the traced spans.
template <class Measure>
std::vector<SpanRecord> traced_halves(const RunConfig& cfg, Result& r,
                                      Measure&& measure) {
  const Slices plain = measure(cfg.seconds / 2);
  Tracer::get().clear();
  Tracer::get().set_enabled(true);
  const Slices traced = measure(cfg.seconds / 2);
  Tracer::get().set_enabled(false);
  r.attempted += plain.attempted() + traced.attempted();
  r.failed += plain.failed() + traced.failed();
  r.set("trace.overhead_frac",
        ratio(plain.ops_per_s() - traced.ops_per_s(), plain.ops_per_s()));
  r.set("allocs_per_op", ratio(static_cast<double>(plain.allocs()),
                               static_cast<double>(plain.attempted())));
  return Tracer::get().collect();
}

using WorkloadFn = std::function<Result(const RunConfig&)>;

[[nodiscard]] Result run_serve_compile(const RunConfig& cfg);
[[nodiscard]] Result run_serve_echo_bulk(const RunConfig& cfg);
[[nodiscard]] Result run_compile_cold(const RunConfig& cfg);
[[nodiscard]] Result run_local_stub(const RunConfig& cfg);

/// local_stub's runtime layers inside another workload's traced run: a
/// fresh stub world, one warm-up second, traced stub calls for `budget_s`
/// seconds, then the hand-written reference. Fills jside.read_ns,
/// runtime.convert_ns, cside.materialize_ns, hand.convert_ns and
/// stub_over_hand_x, and adds the stub calls to `r`'s counts.
void measure_stub_layers(const RunConfig& cfg, double budget_s, Result& r);

/// Workload name -> entry point, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::pair<std::string, WorkloadFn>>&
workloads();

/// Splitmix64: the seeded generator behind every input draw.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  uint64_t s_;
};

}  // namespace perfbench
