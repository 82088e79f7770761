// ServiceCore + serve-daemon tests: the one compile-pair engine behind
// the CLI, the batch driver, and `mbird serve` (DESIGN.md §4i).
//
// The load-bearing case is PersistentWarmRestart: a SECOND ServiceCore —
// fresh graphs, fresh CrossCache, nothing in memory — opens the cache
// file the first core flushed and must replay every verdict without ever
// running the comparer (memo_hit, zero steps). That is the durability
// contract the store exists for.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "javasrc/javaparser.hpp"
#include "obs/metrics.hpp"
#include "service/serve.hpp"
#include "service/service.hpp"
#include "store/cachestore.hpp"

namespace mbird::service {
namespace {

class ServiceTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "mbird_service";
    std::filesystem::create_directories(dir_);
    cache_ = dir_ + "/cache.mbc";
    std::remove(cache_.c_str());
    std::remove((cache_ + ".journal").c_str());
    modules_.push_back(cfront::parse_c(
        "struct Point { int x; int y; };\n"
        "struct Wide { int v; int w; };\n"
        "struct Size { int w; int h; };\n",
        "a.h", diags_));
    modules_.push_back(javasrc::parse_java(
        "public class Point { int x; int y; }\n"
        "public class Wide { int v; }\n"
        "public class Dim { long w; long h; }\n",
        "B.java", diags_));
    ASSERT_FALSE(diags_.has_errors()) << diags_.summary();
  }

  DiagnosticEngine diags_;
  std::vector<stype::Module> modules_;
  std::string dir_, cache_;
};

TEST_F(ServiceTest, CompileSpecResolvesVerdicts) {
  ServiceCore core(modules_, diags_);
  PairOutcome o;
  std::string err;
  ASSERT_TRUE(core.compile_spec("a.h:Point", "B.java:Point", &o, &err)) << err;
  EXPECT_EQ(o.verdict, compare::Verdict::Equivalent);
  EXPECT_FALSE(o.memo_hit);
  EXPECT_GT(o.program_ops, 0u);

  ASSERT_TRUE(core.compile_spec("a.h:Size", "B.java:Dim", &o, &err)) << err;
  EXPECT_EQ(o.verdict, compare::Verdict::LeftSubtype);

  ASSERT_TRUE(core.compile_spec("a.h:Wide", "B.java:Wide", &o, &err)) << err;
  EXPECT_EQ(o.verdict, compare::Verdict::Mismatch);
  EXPECT_NE(o.mismatch.find("arity"), std::string::npos) << o.mismatch;

  // Same pair again: the in-memory CrossCache resolves it without the
  // comparer, and memo-resolved mismatches carry the verdict alone.
  ASSERT_TRUE(core.compile_spec("a.h:Point", "B.java:Point", &o, &err)) << err;
  EXPECT_TRUE(o.memo_hit);
  EXPECT_EQ(o.steps, 0u);
}

TEST_F(ServiceTest, CompileWaterfallAddsUpToThePair) {
  // A cold pair records one sample in each compile-side layer histogram,
  // and the layers fit inside the pair's own time.
  obs::set_metrics_on(true);
  auto& compare_ns = obs::histogram("service.compile.compare_ns");
  auto& planir_ns = obs::histogram("service.compile.planir_ns");
  auto& persist_ns = obs::histogram("service.compile.program_persist_ns");
  ServiceCore core(modules_, diags_);
  std::string err;
  const mtype::Ref ra = core.lower_left("a.h:Point", &err);
  const mtype::Ref rb = core.lower_right("B.java:Point", &err);
  ASSERT_NE(ra, mtype::kNullRef);
  ASSERT_NE(rb, mtype::kNullRef);
  const auto frozen = core.freeze();
  const uint64_t c0 = compare_ns.count(), p0 = planir_ns.count(),
                 s0 = persist_ns.count();
  const uint64_t sum0 = compare_ns.sum() + planir_ns.sum() + persist_ns.sum();
  auto& minted = obs::counter("crosscache.plan.nodes_minted");
  const uint64_t m0 = minted.value();
  const uint64_t t0 = obs::now_ns();
  PairOutcome o = core.compile(frozen, ra, rb);
  const uint64_t total = obs::now_ns() - t0;
  obs::set_metrics_on(false);
  ASSERT_EQ(o.verdict, compare::Verdict::Equivalent);
  ASSERT_FALSE(o.memo_hit);
  EXPECT_EQ(compare_ns.count() - c0, 1u);
  EXPECT_EQ(planir_ns.count() - p0, 1u);
  EXPECT_EQ(persist_ns.count() - s0, 1u);
  const uint64_t layers =
      compare_ns.sum() + planir_ns.sum() + persist_ns.sum() - sum0;
  EXPECT_GT(layers, 0u);
  EXPECT_LE(layers, total);
  // The proofs that pair minted are the cache's whole arena.
  EXPECT_EQ(minted.value() - m0, core.cross().arena()->size());
  EXPECT_EQ(obs::gauge("crosscache.plan.arena_nodes").value(),
            static_cast<int64_t>(core.cross().arena()->size()));

  // The memo fast path records none of them.
  ASSERT_TRUE(core.compile_spec("a.h:Point", "B.java:Point", &o, &err)) << err;
  EXPECT_TRUE(o.memo_hit);
  EXPECT_EQ(compare_ns.count() - c0, 1u);
}

TEST_F(ServiceTest, CompileSpecReportsUnknownDeclaration) {
  ServiceCore core(modules_, diags_);
  PairOutcome o;
  std::string err;
  EXPECT_FALSE(core.compile_spec("a.h:Point", "Nope", &o, &err));
  EXPECT_NE(err.find("unknown declaration"), std::string::npos) << err;
}

TEST_F(ServiceTest, PersistentWarmRestartReplaysWithoutComparer) {
  std::string err;
  {
    ServiceCore core(modules_, diags_);
    ASSERT_TRUE(core.open_cache(cache_, &err)) << err;
    PairOutcome o;
    ASSERT_TRUE(core.compile_spec("a.h:Point", "B.java:Point", &o, &err))
        << err;
    EXPECT_FALSE(o.memo_hit) << "first run is cold";
    ASSERT_TRUE(core.compile_spec("a.h:Size", "B.java:Dim", &o, &err)) << err;
    ASSERT_TRUE(core.compile_spec("a.h:Wide", "B.java:Wide", &o, &err)) << err;
    ASSERT_TRUE(core.flush_cache(&err)) << err;
  }
  // A brand-new core: empty graphs, empty CrossCache. Only the file
  // carries the verdicts across.
  ServiceCore core(modules_, diags_);
  ASSERT_TRUE(core.open_cache(cache_, &err)) << err;
  EXPECT_FALSE(core.cache_store()->opened_fresh());
  PairOutcome o;
  ASSERT_TRUE(core.compile_spec("a.h:Point", "B.java:Point", &o, &err)) << err;
  EXPECT_EQ(o.verdict, compare::Verdict::Equivalent);
  EXPECT_TRUE(o.memo_hit) << "verdict must hydrate from disk";
  EXPECT_EQ(o.steps, 0u) << "the comparer must not run";
  EXPECT_TRUE(o.program_cached) << "convert program must hydrate too";

  ASSERT_TRUE(core.compile_spec("a.h:Size", "B.java:Dim", &o, &err)) << err;
  EXPECT_EQ(o.verdict, compare::Verdict::LeftSubtype);
  EXPECT_TRUE(o.memo_hit);

  ASSERT_TRUE(core.compile_spec("a.h:Wide", "B.java:Wide", &o, &err)) << err;
  EXPECT_EQ(o.verdict, compare::Verdict::Mismatch);
  EXPECT_TRUE(o.memo_hit);

  const auto st = core.cache_store()->stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_EQ(st.appends, 0u) << "nothing new to write on a pure replay";
}

TEST_F(ServiceTest, ResetMemoryCacheRefillsFromStore) {
  std::string err;
  ServiceCore core(modules_, diags_);
  ASSERT_TRUE(core.open_cache(cache_, &err)) << err;
  PairOutcome o;
  ASSERT_TRUE(core.compile_spec("a.h:Point", "B.java:Point", &o, &err)) << err;
  EXPECT_FALSE(o.memo_hit);
  ASSERT_TRUE(core.flush_cache(&err)) << err;
  // Drop the in-memory shards but keep the store attached: the same
  // restart semantics without reopening the file.
  core.reset_memory_cache();
  ASSERT_TRUE(core.compile_spec("a.h:Point", "B.java:Point", &o, &err)) << err;
  EXPECT_TRUE(o.memo_hit);
  EXPECT_EQ(o.steps, 0u);
}

// The daemon answers >= 1k requests in one process, over the real rpc
// stack, with per-request metrics and memo hits past the first cycle.
TEST_F(ServiceTest, ServeAnswersThousandRequestsWithMetrics) {
  const uint64_t req_before = obs::counter("serve.requests").value();
  std::ostringstream reqs;
  reqs << "# warmup comment line\n";
  const size_t kRequests = 1200;
  for (size_t i = 0; i < kRequests; ++i) {
    switch (i % 3) {
      case 0: reqs << "a.h:Point B.java:Point\n"; break;
      case 1: reqs << "a.h:Size B.java:Dim\n"; break;
      default: reqs << "a.h:Wide B.java:Wide\n"; break;
    }
  }
  reqs << "malformed-single-token\n";
  std::istringstream in(reqs.str());
  std::ostringstream out, err;
  ServeOptions sopts;
  sopts.cache_path = cache_;
  const int rc = run_serve(modules_, in, "reqs.txt", diags_, sopts, out, err);
  EXPECT_EQ(rc, 0) << err.str();

  const std::string o = out.str();
  EXPECT_NE(o.find("\"served\": 1200"), std::string::npos) << "summary";
  EXPECT_NE(o.find("\"bad_requests\": 1"), std::string::npos);
  EXPECT_NE(o.find("\"memo\": true"), std::string::npos);
  EXPECT_NE(o.find("\"verdict\": \"equivalent\""), std::string::npos);
  EXPECT_NE(o.find("\"rpc\": {\"frames_sent\": "), std::string::npos);
  EXPECT_NE(o.find("\"store\": {"), std::string::npos);
  EXPECT_NE(err.str().find("reqs.txt:"), std::string::npos)
      << "malformed line carries file:line";
  // One reply line per request plus one error line plus the summary.
  size_t lines = 0;
  for (char c : o) lines += c == '\n';
  EXPECT_EQ(lines, kRequests + 2);
  EXPECT_GE(obs::counter("serve.requests").value() - req_before, kRequests);

  // The daemon's shutdown flush persisted the session: a cold core
  // replays a verdict the serve loop computed.
  ServiceCore core(modules_, diags_);
  std::string cerr;
  ASSERT_TRUE(core.open_cache(cache_, &cerr)) << cerr;
  PairOutcome po;
  ASSERT_TRUE(core.compile_spec("a.h:Point", "B.java:Point", &po, &cerr))
      << cerr;
  EXPECT_TRUE(po.memo_hit);
}

TEST_F(ServiceTest, ServeReportsUnknownDeclarationPerRequest) {
  std::istringstream in("a.h:Point Nope\n");
  std::ostringstream out, err;
  const int rc = run_serve(modules_, in, "r.txt", diags_, ServeOptions{}, out,
                           err);
  EXPECT_EQ(rc, 0) << "bad requests are data, not daemon failures";
  EXPECT_NE(out.str().find("unknown declaration"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("\"reply_errors\": 1"), std::string::npos);
}

}  // namespace
}  // namespace mbird::service
