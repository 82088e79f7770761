// E2 "comparer scaling" — the paper's §5 VisualAge trial, quantified:
// N highly inter-related classes (12 == the paper's miniature system,
// 500 == the full system) mirrored across C++ and Java, each pair compared.
//
// Expected shape: near-linear growth in N with hash pruning and pair
// memoization; the ablation column (commutativity off) stays close because
// the mirrored declarations match in order, while pruning off explodes the
// candidate sets (see bench_isomorphism for that axis).
// The cross-pair cache rows (CrossCold/CrossWarm) quantify the CrossCache:
// cold pays full comparison cost while filling the cache, warm resolves
// every pair from the top-level memo. BatchDriver rows run the actual
// `mbird batch` per-pair step (service::compile_pair: two-way verdict +
// PlanIR compile) through the ThreadPool at 1/2/4/8 workers sharing one
// cache — cold rebuilds the cache per iteration, Warm keeps it, so Warm
// rows measure the driver's memo fast path. PersistentWarmRestart is the
// same memo resolution from a freshly opened --cache file (DESIGN.md
// §4i): a cold process replaying a prior run's verdicts from disk.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>

#include "annotate/script.hpp"
#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "compare/crosscache.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "service/service.hpp"
#include "support/threadpool.hpp"
#include "tool/batch.hpp"

// Heap-allocation counter for the warm-restart row: hydration decode was
// malloc-bound (~one allocation burst per record) before payload staging
// moved into the per-thread BumpArena, so allocs/pair is the second axis
// next to wall time for BM_PersistentWarmRestart.
std::atomic<uint64_t> g_allocs{0};

// The malloc/free-calling forms stay out of line: once GCC inlines both
// sides into one caller it pairs malloc with operator delete (or operator
// new with free) and warns -Wmismatched-new-delete. Every other form
// forwards to them.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace {

using namespace mbird;

std::string synthesize(int n, bool java) {
  std::ostringstream os;
  for (int k = 0; k < n; ++k) {
    os << (java ? "public class " : "class ") << "Node" << k << " {\n";
    if (!java) os << "public:\n";
    os << "  int kind;\n  int line;\n  float weight;\n";
    if (k > 0) {
      os << "  Node" << (k - 1) << (java ? " prev;\n" : " *prev;\n");
      os << "  Node" << (k / 2) << (java ? " owner;\n" : " *owner;\n");
    }
    for (int m = 0; m < 10; ++m) {
      const char* ret = m % 3 == 0 ? "int" : (m % 3 == 1 ? "float" : "void");
      os << "  " << ret << " method" << m << "(int a"
         << (m % 2 ? ", float b" : "") << ");\n";
    }
    os << "}" << (java ? "" : ";") << "\n";
  }
  return os.str();
}

void run_trial(benchmark::State& state, const compare::Options& opts) {
  int n = static_cast<int>(state.range(0));
  DiagnosticEngine diags;
  stype::Module cm = cfront::parse_c(synthesize(n, false), "e.hpp", diags);
  stype::Module jm = javasrc::parse_java(synthesize(n, true), "E.java", diags);
  const char* script =
      "annotate \"Node*.prev\" notnull;\nannotate \"Node*.owner\" notnull;\n";
  annotate::run_script(script, "b.mba", cm, diags);
  annotate::run_script(script, "b.mba", jm, diags);
  if (diags.has_errors()) {
    state.SkipWithError(diags.summary().c_str());
    return;
  }

  size_t steps = 0;
  for (auto _ : state) {
    // A tool session: lower the whole declaration set, hash once, then run
    // all comparisons against the shared graphs.
    mtype::Graph gc, gj;
    lower::LowerEngine ce(cm, gc, diags), je(jm, gj, diags);
    std::vector<mtype::Ref> rcs, rjs;
    for (int k = 0; k < n; ++k) {
      std::string name = "Node" + std::to_string(k);
      rcs.push_back(ce.lower_decl(name));
      rjs.push_back(je.lower_decl(name));
    }
    compare::HashCache hc(gc), hj(gj);
    compare::Options o = opts;
    o.left_hashes = hc.get();
    o.right_hashes = hj.get();

    compare::Session session(gc, gj, o);
    steps = 0;
    for (int k = 0; k < n; ++k) {
      auto res = session.compare(rcs[static_cast<size_t>(k)],
                                 rjs[static_cast<size_t>(k)]);
      steps += res.steps;
      if (!res.ok) {
        state.SkipWithError("unexpected mismatch");
        return;
      }
    }
  }
  state.counters["classes"] = n;
  state.counters["steps"] = static_cast<double>(steps);
  state.SetItemsProcessed(state.iterations() * n);
}

// Lowered pair set prepared once, so the cache rows time only comparisons.
struct Workload {
  mtype::Graph gc, gj;
  std::vector<mtype::Ref> rcs, rjs;
  bool ok = false;

  explicit Workload(int n) {
    DiagnosticEngine diags;
    stype::Module cm = cfront::parse_c(synthesize(n, false), "e.hpp", diags);
    stype::Module jm = javasrc::parse_java(synthesize(n, true), "E.java", diags);
    const char* script =
        "annotate \"Node*.prev\" notnull;\nannotate \"Node*.owner\" notnull;\n";
    annotate::run_script(script, "b.mba", cm, diags);
    annotate::run_script(script, "b.mba", jm, diags);
    if (diags.has_errors()) return;
    lower::LowerEngine ce(cm, gc, diags), je(jm, gj, diags);
    for (int k = 0; k < n; ++k) {
      std::string name = "Node" + std::to_string(k);
      rcs.push_back(ce.lower_decl(name));
      rjs.push_back(je.lower_decl(name));
    }
    ok = !diags.has_errors();
  }
};

// One independent Session per pair — the per-Session memo never helps a
// later pair, so any sharing comes from the CrossCache alone. `warm`
// pre-fills the cache outside the timing loop.
void run_cross_trial(benchmark::State& state, bool warm) {
  int n = static_cast<int>(state.range(0));
  Workload w(n);
  if (!w.ok) {
    state.SkipWithError("workload setup failed");
    return;
  }
  compare::HashCache hc(w.gc), hj(w.gj);
  std::optional<compare::CrossCache> cross;
  cross.emplace();
  compare::Options o;
  o.left_hashes = hc.get();
  o.right_hashes = hj.get();
  auto run_all = [&] {
    o.cross = &*cross;
    size_t steps = 0;
    for (size_t k = 0; k < w.rcs.size(); ++k) {
      auto res = compare::compare(w.gc, w.rcs[k], w.gj, w.rjs[k], o);
      steps += res.steps;
      if (!res.ok) return size_t(0);
    }
    return steps;
  };
  if (warm && run_all() == 0) {
    state.SkipWithError("unexpected mismatch during warmup");
    return;
  }
  size_t steps = 0;
  for (auto _ : state) {
    if (!warm) cross.emplace();  // cold: refill every time
    steps = run_all();
    if (steps == 0 && n > 0) {
      state.SkipWithError("unexpected mismatch");
      return;
    }
  }
  state.counters["classes"] = n;
  state.counters["steps"] = static_cast<double>(steps);
  state.SetItemsProcessed(state.iterations() * n);
}

// Baseline for the cache rows: the same independent-session workload with
// no cache at all. Each pair re-proves (and re-emits the plan for) its
// whole transitive closure.
void BM_CompareClassesSoloPairs(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Workload w(n);
  if (!w.ok) {
    state.SkipWithError("workload setup failed");
    return;
  }
  compare::HashCache hc(w.gc), hj(w.gj);
  compare::Options o;
  o.left_hashes = hc.get();
  o.right_hashes = hj.get();
  size_t steps = 0;
  for (auto _ : state) {
    steps = 0;
    for (size_t k = 0; k < w.rcs.size(); ++k) {
      auto res = compare::compare(w.gc, w.rcs[k], w.gj, w.rjs[k], o);
      steps += res.steps;
      if (!res.ok) {
        state.SkipWithError("unexpected mismatch");
        return;
      }
    }
  }
  state.counters["classes"] = n;
  state.counters["steps"] = static_cast<double>(steps);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CompareClassesSoloPairs)->Arg(12)->Arg(100);

void BM_CompareClassesCrossCold(benchmark::State& state) {
  run_cross_trial(state, false);
}
BENCHMARK(BM_CompareClassesCrossCold)->Arg(12)->Arg(100)->Arg(500);

void BM_CompareClassesCrossWarm(benchmark::State& state) {
  run_cross_trial(state, true);
}
BENCHMARK(BM_CompareClassesCrossWarm)->Arg(12)->Arg(100)->Arg(500);

// The batch driver's parallel phase, fanned out exactly like `mbird
// batch`: one PERSISTENT ThreadPool across iterations (workers block on a
// condvar when idle, so keeping it alive is free), pairs submitted in
// chunks of tool::batch_chunk_size, each chunk task routing its cache
// writes through a per-worker CrossCache::WriteBuffer. `warm` keeps one
// cache across iterations, pre-filled outside the timing loop, so every
// pair resolves through the memo fast path; cold rebuilds the cache each
// iteration. Arg is the worker count; the host's core count bounds real
// speedup — on a single-core host the interesting property is that the
// warm curve stays FLAT as jobs grow instead of regressing on per-task
// overhead (the pre-chunking driver was ~6x slower at 8 jobs than 1).
void run_batch_driver_trial(benchmark::State& state, bool warm,
                            size_t pairs_per_pass = 0) {
  const int n = 100;
  size_t jobs = static_cast<size_t>(state.range(0));
  Workload w(n);
  if (!w.ok) {
    state.SkipWithError("workload setup failed");
    return;
  }
  compare::HashCache hc(w.gc), hj(w.gj);
  std::optional<compare::CrossCache> cross;
  cross.emplace();
  ThreadPool pool(jobs);
  const size_t pairs = pairs_per_pass ? pairs_per_pass : w.rcs.size();
  auto run_all = [&] {
    compare::Options o;
    o.left_hashes = hc.get();
    o.right_hashes = hj.get();
    o.cross = &*cross;
    auto sid_c = cross->strict_ids(w.gc);
    auto sid_j = cross->strict_ids(w.gj);
    std::atomic<size_t> failures{0};
    const size_t chunk = tool::batch_chunk_size(pairs, jobs, 0);
    for (size_t begin = 0; begin < pairs; begin += chunk) {
      const size_t end = std::min(begin + chunk, pairs);
      pool.submit([&, begin, end] {
        compare::CrossCache::WriteBuffer wb(*cross);
        for (size_t i = begin; i < end; ++i) {
          const size_t k = i % w.rcs.size();
          auto out = service::compile_pair(w.gc, w.rcs[k], w.gj, w.rjs[k], o,
                                           (*sid_c)[w.rcs[k]],
                                           (*sid_j)[w.rjs[k]], &wb);
          if (out.verdict != compare::Verdict::Equivalent) {
            failures.fetch_add(1);
          }
        }
      });
    }
    pool.wait_idle();
    return failures.load() == 0;
  };
  if (warm && !run_all()) {
    state.SkipWithError("unexpected mismatch during warmup");
    return;
  }
  for (auto _ : state) {
    if (!warm) cross.emplace();  // cold: refill every time
    if (!run_all()) {
      state.SkipWithError("unexpected mismatch");
      return;
    }
  }
  state.counters["classes"] = n;
  state.counters["jobs"] = static_cast<double>(jobs);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pairs));
}

void BM_BatchDriverThreads(benchmark::State& state) {
  run_batch_driver_trial(state, false);
}
BENCHMARK(BM_BatchDriverThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchDriverWarm(benchmark::State& state) {
  run_batch_driver_trial(state, true);
}
BENCHMARK(BM_BatchDriverWarm)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Same warm trial over 2000 pairs per pass (cycling the 100 classes):
// the per-block shape the streaming driver actually sees, where the
// fixed chunk fan-out cost is amortized over real work. This is the row
// bench/check_batch_scaling.sh holds to the 1.2x jobs=4-vs-jobs=1
// budget — at 100 pairs the fixed handoff cost is a visible fraction of
// an ~18us pass on a single-core host, at 2000 it is noise.
void BM_BatchDriverWarmWide(benchmark::State& state) {
  run_batch_driver_trial(state, true, 2000);
}
BENCHMARK(BM_BatchDriverWarmWide)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// End-to-end `mbird batch` over a SYNTHETIC MANIFEST of Arg pairs (10k /
// 100k lines cycling through 100 distinct Node classes), streamed through
// tool::run_batch in kStreamBlock-line blocks with the report going to
// /dev/null. This is the memory-bounded scaling row: past the first block
// every declaration is already lowered and every pair memo-resolves, so
// time is dominated by ingestion + report emission — per-pair cost must
// stay flat from 10k to 100k, and peak RSS must not scale with manifest
// length (the report's peak_rss_kb gauge pins that in the tests).
void BM_BatchStreamingManifest(benchmark::State& state) {
  const int n = 100;
  const size_t npairs = static_cast<size_t>(state.range(0));
  DiagnosticEngine diags;
  std::vector<stype::Module> modules;
  modules.push_back(cfront::parse_c(synthesize(n, false), "e.hpp", diags));
  modules.push_back(javasrc::parse_java(synthesize(n, true), "E.java", diags));
  const char* script =
      "annotate \"Node*.prev\" notnull;\nannotate \"Node*.owner\" notnull;\n";
  annotate::run_script(script, "b.mba", modules[0], diags);
  annotate::run_script(script, "b.mba", modules[1], diags);
  if (diags.has_errors()) {
    state.SkipWithError(diags.summary().c_str());
    return;
  }
  std::string manifest_text;
  manifest_text.reserve(npairs * 32);
  for (size_t k = 0; k < npairs; ++k) {
    const std::string node = "Node" + std::to_string(k % n);
    manifest_text += "e.hpp:" + node + " E.java:" + node + "\n";
  }
  tool::BatchOptions bopts;
  bopts.jobs = 4;
  std::ostringstream out;
  bopts.out_path = "/dev/null";
  for (auto _ : state) {
    std::istringstream manifest(manifest_text);
    std::ostringstream err;
    int code = tool::run_batch(modules, manifest, "synthetic.txt", diags,
                               bopts, out, err);
    if (code != 0) {
      state.SkipWithError(("batch exit " + std::to_string(code)).c_str());
      return;
    }
  }
  state.counters["pairs"] = static_cast<double>(npairs);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(npairs));
}
BENCHMARK(BM_BatchStreamingManifest)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The warm-RESTART path: a cold process opening a populated --cache file
// and replaying every verdict from disk instead of re-comparing. Setup
// runs one ServiceCore pass that fills and flushes the durable store;
// each timed iteration then plays a fresh core (empty in-memory
// CrossCache, PauseTiming hides construction + lowering + cache open)
// over the same Arg pairs, so the measured loop is exactly the store
// fall-through: shard miss -> CacheStore get -> verdict/program
// hydration. Each of the 100 distinct pairs pays a one-time disk
// hydration (~tens of µs: CacheStore get + plan/program decode +
// verify); every later compile of that pair is an in-memory memo hit.
// The small-Arg rows therefore document the hydration cost itself; the
// Arg(20000) row is the steady-state one that carries the acceptance
// budget: per-pair cost within 5x of BM_BatchDriverWarm's in-process
// memo hit. In every row all pairs must memo-resolve (memo_hits
// counter == pairs) or the row is invalid.
void BM_PersistentWarmRestart(benchmark::State& state) {
  const int n = 100;
  const size_t pairs = static_cast<size_t>(state.range(0));
  const char* cache_path = "/tmp/mbird_bench_warm_restart.mbc";
  std::remove(cache_path);
  DiagnosticEngine diags;
  std::vector<stype::Module> modules;
  modules.push_back(cfront::parse_c(synthesize(n, false), "e.hpp", diags));
  modules.push_back(javasrc::parse_java(synthesize(n, true), "E.java", diags));
  const char* script =
      "annotate \"Node*.prev\" notnull;\nannotate \"Node*.owner\" notnull;\n";
  annotate::run_script(script, "b.mba", modules[0], diags);
  annotate::run_script(script, "b.mba", modules[1], diags);
  if (diags.has_errors()) {
    state.SkipWithError(diags.summary().c_str());
    return;
  }
  auto lower_all = [&](service::ServiceCore& core, std::vector<mtype::Ref>* ra,
                       std::vector<mtype::Ref>* rb) {
    std::string err;
    for (int k = 0; k < n; ++k) {
      const std::string node = "Node" + std::to_string(k);
      ra->push_back(core.lower_left("e.hpp:" + node, &err));
      rb->push_back(core.lower_right("E.java:" + node, &err));
      if (ra->back() == mtype::kNullRef || rb->back() == mtype::kNullRef) {
        return false;
      }
    }
    return true;
  };
  {
    // Populate + flush the store, then let this core die: the timed
    // iterations below model a BRAND NEW process reopening the file.
    service::ServiceCore core(modules, diags);
    std::string err;
    std::vector<mtype::Ref> ra, rb;
    if (!core.open_cache(cache_path, &err) || !lower_all(core, &ra, &rb)) {
      state.SkipWithError("cache setup failed");
      return;
    }
    const auto frozen = core.freeze();
    compare::CrossCache::WriteBuffer wb(core.cross());
    for (size_t k = 0; k < pairs; ++k) {
      const size_t i = k % static_cast<size_t>(n);
      (void)core.compile(frozen, ra[i], rb[i], &wb);
    }
    wb.flush();
    if (!core.flush_cache(&err)) {
      state.SkipWithError(("cache flush failed: " + err).c_str());
      return;
    }
  }
  size_t memo_hits = 0;
  uint64_t loop_allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    service::ServiceCore core(modules, diags);
    std::string err;
    std::vector<mtype::Ref> ra, rb;
    if (!core.open_cache(cache_path, &err) || !lower_all(core, &ra, &rb)) {
      state.SkipWithError("cache reopen failed");
      return;
    }
    const auto frozen = core.freeze();
    state.ResumeTiming();
    memo_hits = 0;
    uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    compare::CrossCache::WriteBuffer wb(core.cross());
    for (size_t k = 0; k < pairs; ++k) {
      const size_t i = k % static_cast<size_t>(n);
      auto o = core.compile(frozen, ra[i], rb[i], &wb);
      if (o.memo_hit) ++memo_hits;
    }
    loop_allocs += g_allocs.load(std::memory_order_relaxed) - allocs0;
  }
  if (memo_hits != pairs) {
    state.SkipWithError("cold replay fell back to the comparer");
    return;
  }
  std::remove(cache_path);
  state.counters["classes"] = n;
  state.counters["memo_hits"] = static_cast<double>(memo_hits);
  state.counters["allocs_per_pair"] =
      static_cast<double>(loop_allocs) /
      static_cast<double>(state.iterations() * static_cast<int64_t>(pairs));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pairs));
}
BENCHMARK(BM_PersistentWarmRestart)->Arg(100)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CompareClasses(benchmark::State& state) {
  run_trial(state, compare::Options{});
}
BENCHMARK(BM_CompareClasses)->Arg(12)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Arg(500);

void BM_CompareClasses_NoCommutativity(benchmark::State& state) {
  compare::Options opts;
  opts.commutative = false;
  run_trial(state, opts);
}
BENCHMARK(BM_CompareClasses_NoCommutativity)->Arg(12)->Arg(100)->Arg(500);

void BM_CompareClasses_NoHashPrune(benchmark::State& state) {
  compare::Options opts;
  opts.use_hash_prune = false;
  run_trial(state, opts);
}
BENCHMARK(BM_CompareClasses_NoHashPrune)->Arg(12)->Arg(100)->Arg(500);

}  // namespace
