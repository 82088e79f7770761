// compile_cold: the VisualAge N=100 pair set through the paths a user
// reaches it by, one thread, no sockets, on one seeded pair order (and,
// in phase 1, its reverse).
//
//   phase 1  `mbird serve` / `mbird compare` cold: a fresh ServiceCore on a
//            new store file compiles each pair via compile_spec, then
//            flushes the store. This is the measured, end-to-end phase.
//   phase 2  the restart: a fresh core reopens that store and replays the
//            pairs; every one must resolve from the store.
//   phase 3  `mbird batch`: tool::run_batch over the same manifest with
//            jobs = min(nproc, 4).
//   phase 4  the local stub of paper E1 (local_stub.cpp): JReader,
//            Converter and CWriter on a 16384-point PointVector.
//
// Phases 2 to 4 run in the traced run only and report restart_ops_per_s,
// batch_ops_per_s and the stub's layers with the per-layer metrics. Phase
// 4 carries those layers because local_stub, on its own, is not steady
// enough for the end-to-end set (see README.md). One operation is one
// pair. Each round starts from a fresh ServiceCore and a fresh store file,
// so every round in one order does the same work; rounds repeat until the
// time budget is spent.
#include <filesystem>
#include <limits>
#include <sstream>

#include "compare/compare.hpp"
#include "host.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "store/cachestore.hpp"
#include "tool/batch.hpp"
#include "trace.hpp"
#include "vage.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace mbird;
namespace fs = std::filesystem;

int pair_count(const RunConfig& cfg) { return cfg.smoke ? 12 : 100; }

/// Per-layer sums over the traced rounds.
struct LayerSums {
  uint64_t pairs = 0, rounds = 0;
  uint64_t steps = 0, program_ops = 0;
  uint64_t left_nodes = 0, right_nodes = 0;
  uint64_t store_appends = 0, store_bytes = 0;
};

/// compile_spec's own sequence (lower both sides, freeze, compile), with a
/// span around each step. Used only when tracing, so the spans can split
/// the call; the untraced path calls compile_spec itself.
bool traced_compile_spec(service::ServiceCore& core, const std::string& l,
                         const std::string& r, service::PairOutcome* out,
                         std::string* error, uint64_t op) {
  mtype::Ref ra, rb;
  {
    Span s("service.lower", op);
    ra = core.lower_left(l, error);
    if (ra == mtype::kNullRef) return false;
    rb = core.lower_right(r, error);
    if (rb == mtype::kNullRef) return false;
  }
  try {
    service::ServiceCore::Frozen f;
    {
      Span s("service.freeze", op);
      f = core.freeze();
    }
    Span s("service.compile", op);
    *out = core.compile(f, ra, rb);
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
  return true;
}

/// One serial pass over `order` through `core`. With `expect_ops` set
/// (restart), every pair must be a memo hit whose program size matches the
/// cold pass; `got_ops`, when set, receives each pair's program size.
/// `pair_us`, when set, receives each pair's latency by its position in
/// `order` (+inf for a failed pair).
void serial_pass(const Corpus& c, const std::vector<int>& order,
                 service::ServiceCore& core,
                 const std::vector<size_t>* expect_ops,
                 std::vector<size_t>* got_ops, std::vector<double>* pair_us,
                 Measurement& m, Result& r, LayerSums& sums) {
  const bool tracing = Tracer::get().enabled();
  if (pair_us != nullptr) pair_us->assign(order.size(), 0);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const size_t i = static_cast<size_t>(order[pos]);
    const uint64_t op = next_op_id();
    service::PairOutcome o;
    std::string err;
    bool ok = false;
    const uint64_t t0 = mono_ns();
    {
      Span s("pair", op);
      ok = tracing ? traced_compile_spec(core, c.left_specs[i],
                                         c.right_specs[i], &o, &err, op)
                   : core.compile_spec(c.left_specs[i], c.right_specs[i], &o,
                                       &err);
    }
    const double us = static_cast<double>(mono_ns() - t0) / 1000.0;
    bool good = ok && err.empty() &&
                o.verdict == compare::Verdict::Equivalent && o.program_ops > 0;
    if (expect_ops != nullptr) {
      good = good && o.memo_hit && o.program_ops == (*expect_ops)[i];
    }
    if (got_ops != nullptr) (*got_ops)[i] = o.program_ops;
    if (pair_us != nullptr) {
      (*pair_us)[pos] = good ? us : std::numeric_limits<double>::infinity();
    }
    if (good) {
      m.lat.ok(us);
    } else {
      m.lat.fail();
      r.check(false, c.left_specs[i] + " " + c.right_specs[i] + ": " +
                         (ok ? compare::to_string(o.verdict) : err) +
                         (o.memo_hit ? " (memo)" : " (no memo)"));
    }
    sums.steps += o.steps;
    sums.program_ops += o.program_ops;
    ++sums.pairs;
  }
  sums.left_nodes += core.left_graph().size();
  sums.right_nodes += core.right_graph().size();
  ++sums.rounds;
}

void report_corpus_layers(Result& r, const Corpus& c) {
  r.set("cfront.parse_ns", static_cast<double>(c.cfront_parse_ns));
  r.set("javasrc.parse_ns", static_cast<double>(c.javasrc_parse_ns));
  r.set("annotate.run_ns", static_cast<double>(c.annotate_ns));
}

void report_pair_layers(Result& r, const std::vector<SpanRecord>& spans,
                        const LayerSums& s) {
  const auto t = totals_by_name(spans);
  auto per_pair = [&](const char* span) {
    auto it = t.find(span);
    return it == t.end() ? 0.0
                         : ratio(static_cast<double>(it->second.total_ns),
                                 static_cast<double>(s.pairs));
  };
  auto per_round = [&](const char* span) {
    auto it = t.find(span);
    return it == t.end() ? 0.0
                         : ratio(static_cast<double>(it->second.total_ns),
                                 static_cast<double>(it->second.count));
  };
  const double pairs = static_cast<double>(s.pairs);
  const double rounds = static_cast<double>(s.rounds);
  r.set("service.lower_ns", per_pair("service.lower"));
  r.set("service.freeze_ns", per_pair("service.freeze"));
  r.set("service.compile_ns", per_pair("service.compile"));
  r.set("compare.steps_per_pair", ratio(static_cast<double>(s.steps), pairs));
  r.set("planir.program_ops_per_pair",
        ratio(static_cast<double>(s.program_ops), pairs));
  r.set("mtype.left_nodes", ratio(static_cast<double>(s.left_nodes), rounds));
  r.set("mtype.right_nodes",
        ratio(static_cast<double>(s.right_nodes), rounds));
  r.set("store.flush_ns", per_round("store.flush"));
  r.set("store.appends", ratio(static_cast<double>(s.store_appends), rounds));
  r.set("store.bytes_appended",
        ratio(static_cast<double>(s.store_bytes), rounds));
}

/// A fresh per-round directory for store files under the run's work dir.
std::string fresh_dir(const RunConfig& cfg, const std::string& tag) {
  static std::atomic<uint64_t> n{0};
  fs::path p = fs::path(cfg.work_dir) /
               (tag + "-" + std::to_string(cfg.seed) + "-" +
                std::to_string(++n));
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

bool open_store(service::ServiceCore& core, const std::string& path,
                Result& r) {
  Span s("store.open", 0);
  std::string err;
  const bool ok = core.open_cache(path, &err);
  r.check(ok, "open_cache " + path + ": " + err);
  return ok;
}

// ---- phase 3 ----------------------------------------------------------------

/// Every `"key": <number>` value in `text`, in order.
std::vector<double> json_numbers(const std::string& text,
                                 const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\": ";
  for (size_t p = text.find(needle); p != std::string::npos;
       p = text.find(needle, p + 1)) {
    const char* s = text.c_str() + p + needle.size();
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end != s) out.push_back(v);
  }
  return out;
}

size_t count_of(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t p = text.find(needle); p != std::string::npos;
       p = text.find(needle, p + 1)) {
    ++n;
  }
  return n;
}

/// Phase 3: one tool::run_batch over `manifest`. Every pair must come back
/// Equivalent, with no errors and exit status 0. Returns the round's worker utilization in percent.
double batch_round(Corpus& c, const std::string& manifest, Measurement& m,
                   Result& r) {
  tool::BatchOptions bopts;
  bopts.jobs = std::min(online_cpus(), 4u);
  std::istringstream in(manifest);
  std::ostringstream out, err;
  const int code = tool::run_batch(c.modules, in, "perfbench.manifest",
                                   c.diags, bopts, out, err);
  const std::string report = out.str();
  const auto micros = json_numbers(report, "micros");
  const auto pairs = json_numbers(report, "pairs");
  const auto errors = json_numbers(report, "errors");
  const size_t equivalent = count_of(
      report, std::string("\"verdict\": \"") +
                  compare::to_string(compare::Verdict::Equivalent) + "\"");
  const bool ok = code == 0 && !pairs.empty() && pairs.back() == c.n &&
                  !errors.empty() && errors.back() == 0 &&
                  equivalent == static_cast<size_t>(c.n) &&
                  micros.size() == static_cast<size_t>(c.n);
  r.check(ok, "run_batch exit " + std::to_string(code) + ", " +
                  std::to_string(equivalent) + " Equivalent of " +
                  std::to_string(c.n) + ": " + err.str());
  if (!ok) {
    for (int k = 0; k < c.n; ++k) m.lat.fail();
    return 0;
  }
  for (double us : micros) m.lat.ok(us);
  return static_cast<double>(
      obs::gauge("batch.worker_utilization_pct").value());
}

// ---- phases 1 and 2 ---------------------------------------------------------

/// Phase 1: a fresh ServiceCore on a new store file in `dir` compiles every
/// pair via compile_spec, then flushes the store. `pair_us` is as in
/// serial_pass.
void cold_round(Corpus& c, const std::vector<int>& order,
                const std::string& dir, std::vector<size_t>* program_ops,
                std::vector<double>* pair_us, Measurement& m, Result& r,
                LayerSums& sums) {
  service::ServiceCore core(c.modules, c.diags);
  if (!open_store(core, dir + "/cache.mbc", r)) {
    m.lat.fail();
    if (pair_us != nullptr) {
      pair_us->assign(order.size(), std::numeric_limits<double>::infinity());
    }
    return;
  }
  serial_pass(c, order, core, nullptr, program_ops, pair_us, m, r, sums);
  std::string err;
  {
    Span s("store.flush", 0);
    r.check(core.flush_cache(&err), "flush_cache: " + err);
  }
  const auto st = core.cache_store()->stats();
  sums.store_appends += st.appends;
  sums.store_bytes += st.bytes_appended;
}

/// Phase 2, the restart: a fresh ServiceCore reopens the store phase 1
/// wrote in `dir` and replays the same pairs. Every pair must be a memo
/// hit with the program size phase 1 compiled, and nothing may be
/// appended. Returns the store's hit count.
uint64_t restart_round(Corpus& c, const std::vector<int>& order,
                       const std::string& dir,
                       const std::vector<size_t>& program_ops, Measurement& m,
                       Result& r, LayerSums& sums) {
  service::ServiceCore core(c.modules, c.diags);
  if (!open_store(core, dir + "/cache.mbc", r)) {
    m.lat.fail();
    return 0;
  }
  serial_pass(c, order, core, &program_ops, nullptr, nullptr, m, r, sums);
  const auto st = core.cache_store()->stats();
  r.check(st.appends == 0,
          "restart appended " + std::to_string(st.appends) + " records");
  return st.hits;
}

}  // namespace

Result run_compile_cold(const RunConfig& cfg) {
  Result r;
  std::vector<double> setup;
  auto make = [&] { return load_corpus(pair_count(cfg)); };
  const std::unique_ptr<Corpus> corpus = timed_setup(cfg, setup, make);
  const std::vector<int> order = seeded_order(corpus->n, cfg.seed);
  LayerSums sums;

  // The seeded order and its reverse. A pair's cost grows with what the
  // core has compiled before it, so a round's time depends on the order:
  // on five seeds, runs of forward rounds alone gave 6.3 to 8.0 pairs/s.
  // Taken together, an order and its reverse give every pair both its
  // early and its late cost, and their sum hardly depends on the seed.
  const std::vector<int> reversed(order.rbegin(), order.rend());

  // A round (12 to 16 s) is longer than a slice, so each round is a slice
  // of its own. Each measurement alternates forward and reverse rounds,
  // starting forward. Every round in one direction does the same
  // work: the pair at position p meets a core in the same state in every
  // round. `pair_us` and `rest_us` keep each round's latency per position
  // and the rest of its time (store open and flush, teardown), by
  // direction.
  std::vector<std::vector<double>> pair_us[2];
  std::vector<double> rest_us[2];
  auto measure = [&](double budget, int min_rounds) {
    size_t n = 0;
    return measure_rounds(
        budget,
        [&](Measurement& m) {
          const size_t dir_ix = n++ % 2;
          const double t0 = now_s();
          std::vector<double> us;
          const std::string dir = fresh_dir(cfg, "cold");
          cold_round(*corpus, dir_ix == 0 ? order : reversed, dir, nullptr,
                     &us, m, r, sums);
          fs::remove_all(dir);
          double pairs_us = 0;
          for (double u : us) pairs_us += u;
          rest_us[dir_ix].push_back((now_s() - t0) * 1e6 - pairs_us);
          pair_us[dir_ix].push_back(std::move(us));
        },
        min_rounds);
  };

  if (!cfg.trace) {
    // The end-to-end figures are those of a median forward round and a
    // median reverse round, each built position by position: a pair's
    // latency is its median over that direction's rounds (at least two
    // each), and so is the rest of a round. ops_per_s is both rounds'
    // pairs over both rounds' time; the percentiles are over the
    // per-position medians of both directions.
    const Slices s = measure(cfg.seconds, cfg.smoke ? 2 : 4);
    std::vector<double> med;
    double rounds_us = 0;
    for (size_t d = 0; d < 2; ++d) {
      const std::vector<double> dm = column_medians(pair_us[d]);
      rounds_us += median(rest_us[d]);
      for (double u : dm) rounds_us += u;
      med.insert(med.end(), dm.begin(), dm.end());
    }
    const EndToEnd e{ratio(static_cast<double>(med.size()) * 1e6, rounds_us),
                     percentile(med, 0.50), percentile(med, 0.95),
                     peak_rss_mb()};
    timed_setup_after(cfg, setup, make);
    report_end_to_end(r, s, e, setup);
    return r;
  }
  CacheCounters base;
  const auto spans = traced_halves(cfg, r, [&](double b) {
    sums = LayerSums{};
    base = CacheCounters{};
    return measure(b, 1);
  });
  report_cache_ratios(r, base);
  report_pair_layers(r, spans, sums);
  report_corpus_layers(r, *corpus);
  r.set("trace.span_coverage_pct",
        median_coverage_pct(spans, "pair",
                            {"service.lower", "service.freeze",
                             "service.compile"}));

  // The restart phase, traced: one more (untraced) phase-1 round writes a
  // store, then a fresh core replays the pairs from it.
  const std::string dir = fresh_dir(cfg, "restart");
  std::vector<size_t> program_ops(static_cast<size_t>(corpus->n), 0);
  Measurement cold;
  LayerSums cold_sums;
  cold_round(*corpus, order, dir, &program_ops, nullptr, cold, r,
             cold_sums);
  const uint64_t hydrated0 = counter_value("crosscache.store.hydrated");
  const uint64_t phase2 = mono_ns();
  Tracer::get().set_enabled(true);
  Measurement restart;
  LayerSums restart_sums;
  const double t0 = now_s();
  const uint64_t hits =
      restart_round(*corpus, order, dir, program_ops, restart, r,
                    restart_sums);
  restart.elapsed_s = now_s() - t0;
  Tracer::get().set_enabled(false);
  fs::remove_all(dir);
  r.attempted += cold.lat.attempted() + restart.lat.attempted();
  r.failed += cold.lat.failed() + restart.lat.failed();

  SpanTotals open;
  for (const auto& s : Tracer::get().collect()) {
    if (s.t0 >= phase2 && std::string_view(s.name) == "store.open") {
      ++open.count;
      open.total_ns += s.t1 - s.t0;
    }
  }
  r.set("restart_ops_per_s", restart.ops_per_s());
  r.set("store.open_ns", ratio(static_cast<double>(open.total_ns),
                               static_cast<double>(open.count)));
  r.set("store.hits", static_cast<double>(hits));
  r.set("crosscache.store.hydrated",
        static_cast<double>(counter_value("crosscache.store.hydrated") -
                            hydrated0));

  // Phase 3: the batch driver over the same pairs, for a quarter of the
  // budget.
  const std::string manifest = manifest_text(*corpus, order);
  std::vector<double> utilization;
  const Slices batch = measure_rounds(cfg.seconds / 4, [&](Measurement& m) {
    utilization.push_back(batch_round(*corpus, manifest, m, r));
  });
  r.attempted += batch.attempted();
  r.failed += batch.failed();
  r.set("batch_ops_per_s", batch.ops_per_s());
  r.set("batch.worker_utilization_pct", median(utilization));

  // Phase 4: the local stub a compiled pair becomes (paper E1), traced for
  // a quarter of the budget.
  measure_stub_layers(cfg, cfg.seconds / 4, r);
  return r;
}

}  // namespace perfbench
