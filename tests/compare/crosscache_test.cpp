#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "annotate/script.hpp"
#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "compare/crosscache.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "mtype/canon.hpp"
#include "mtype/mtype.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "planir/planir.hpp"
#include "runtime/conform.hpp"
#include "runtime/convert.hpp"
#include "service/service.hpp"
#include "store/cachestore.hpp"
#include "store/serial.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"
#include "wire/wire.hpp"

namespace mbird::compare {
namespace {

using mtype::Graph;
using mtype::Ref;
using mtype::Repertoire;

// A two-level record pair: permuted fields at both levels, so the comparer
// has real backtracking to do on a cold run.
struct PairFixture {
  Graph ga, gb;
  Ref a, b;
  PairFixture() {
    Ref ia = ga.record({ga.integer(0, 255), ga.real(24, 8),
                        ga.character(Repertoire::Ascii)});
    a = ga.record({ia, ga.integer(-100, 100), ga.list_of(ga.integer(0, 9))});
    Ref ib = gb.record({gb.character(Repertoire::Ascii), gb.integer(0, 255),
                        gb.real(24, 8)});
    b = gb.record({gb.list_of(gb.integer(0, 9)), gb.integer(-100, 100), ib});
  }
};

TEST(CrossCache, SecondSessionReportsNearZeroSteps) {
  PairFixture f;
  CrossCache cross;
  Options opts;
  opts.cross = &cross;

  Session first(f.ga, f.gb, opts);
  auto r1 = first.compare(f.a, f.b);
  ASSERT_TRUE(r1.ok) << r1.mismatch.to_string();
  EXPECT_GT(r1.steps, 3u);

  // A brand-new Session over the same cache resolves the whole pair from
  // the top-level memo entry: one visit.
  Session second(f.ga, f.gb, opts);
  auto r2 = second.compare(f.a, f.b);
  ASSERT_TRUE(r2.ok) << r2.mismatch.to_string();
  EXPECT_LE(r2.steps, 1u);
  EXPECT_TRUE(plan::validate(second.plans(), r2.root).empty());

  auto st = cross.stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.entries, 0u);
}

TEST(CrossCache, CachedFragmentSteersFieldsCorrectly) {
  // Two distinct roots in the same graphs with identical concrete layout
  // (strict-id equal): the fragment cached for the first pair must convert
  // the second pair's fields the same, correct way.
  Graph ga, gb;
  Ref a1 = ga.record({ga.integer(0, 50), ga.real(24, 8)});
  Ref a2 = ga.record({ga.integer(0, 50), ga.real(24, 8)});
  Ref b1 = gb.record({gb.real(24, 8), gb.integer(0, 50)});

  CrossCache cross;
  Options opts;
  opts.cross = &cross;

  Result warmup = compare(ga, a1, gb, b1, opts);
  ASSERT_TRUE(warmup.ok);

  Result r = compare(ga, a2, gb, b1, opts);
  ASSERT_TRUE(r.ok);
  EXPECT_LE(r.steps, 1u) << "strict-id twin should hit the pair memo";
  ASSERT_TRUE(plan::validate(r.plan, r.root).empty());

  // Target leaf 0 is the Real, target leaf 1 the Int: the spliced
  // RecordMap must route the right conversion op to each.
  const plan::PlanNode& root = r.plan.at(r.root);
  ASSERT_EQ(root.kind, plan::PKind::RecordMap);
  ASSERT_EQ(root.fields.size(), 2u);
  EXPECT_EQ(r.plan.at(root.fields[0].op).kind, plan::PKind::RealCopy);
  EXPECT_EQ(r.plan.at(root.fields[1].op).kind, plan::PKind::IntCopy);

  // And the compiled program must verify.
  planir::Program prog = planir::compile(r.plan, r.root);
  EXPECT_TRUE(planir::verify(prog).empty());
}

TEST(CrossCache, NegativeVerdictsAreCachedAndDefinitive) {
  Graph ga, gb;
  Ref a = ga.record({ga.integer(0, 5), ga.character(Repertoire::Ascii)});
  Ref b = gb.record({gb.integer(0, 6), gb.character(Repertoire::Ascii)});

  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  // Without the hash prune the cold run genuinely explores candidates, so
  // the warm run's single step demonstrably comes from the cached verdict.
  opts.use_hash_prune = false;

  Result r1 = compare(ga, a, gb, b, opts);
  ASSERT_FALSE(r1.ok);
  EXPECT_GT(r1.steps, 1u);

  Result r2 = compare(ga, a, gb, b, opts);
  ASSERT_FALSE(r2.ok);
  EXPECT_LE(r2.steps, 1u) << "second run should fail from the cached verdict";
  EXPECT_TRUE(r2.mismatch.valid);
}

TEST(CrossCache, BudgetTrippedRunsPoisonNoNegatives) {
  PairFixture f;
  CrossCache cross;
  Options tight;
  tight.cross = &cross;
  tight.max_steps = 2;  // guaranteed to trip mid-comparison
  Result starved = compare(f.ga, f.a, f.gb, f.b, tight);
  ASSERT_FALSE(starved.ok);

  // Same cache, sane budget: the pair must still be provable — a budget
  // failure is not a structural verdict and must not have been recorded.
  Options roomy;
  roomy.cross = &cross;
  Result r = compare(f.ga, f.a, f.gb, f.b, roomy);
  EXPECT_TRUE(r.ok) << r.mismatch.to_string();
}

TEST(CrossCache, CanonAssistedAgreesWithPlainComparer) {
  // Differential check over a family of related types, including the
  // µ-wrapped-record corner where iso classes and comparer equivalence
  // genuinely diverge: with and without the cache, verdicts must agree.
  Graph ga, gb;
  std::vector<Ref> left, right;
  {
    Ref r2 = ga.record({ga.integer(0, 7), ga.character(Repertoire::Ascii)});
    Ref rec = ga.rec_placeholder();
    ga.seal_rec(rec, r2);
    left.push_back(ga.record({rec}));                       // µ-wrapped
    left.push_back(r2);                                     // plain
    left.push_back(ga.record({r2, ga.unit()}));             // unit-padded
    left.push_back(ga.record({ga.integer(0, 7)}));          // narrower
    left.push_back(ga.list_of(r2));                         // list
    left.push_back(ga.choice({r2, ga.unit()}));             // choice
  }
  {
    Ref s2 = gb.record({gb.character(Repertoire::Ascii), gb.integer(0, 7)});
    Ref rec = gb.rec_placeholder();
    gb.seal_rec(rec, s2);
    right.push_back(gb.record({rec}));
    right.push_back(s2);
    right.push_back(gb.record({gb.unit(), s2}));
    right.push_back(gb.record({gb.integer(0, 7)}));
    right.push_back(gb.list_of(s2));
    right.push_back(gb.choice({gb.unit(), s2}));
  }

  for (bool unit_elim : {false, true}) {
    CrossCache cross;
    for (const Ref a : left) {
      for (const Ref b : right) {
        Options plain;
        plain.unit_elimination = unit_elim;
        Options cached = plain;
        cached.cross = &cross;
        FullResult want = compare_full(ga, a, gb, b, plain);
        // Twice with the cache: cold (filling) and warm (serving).
        FullResult got_cold = compare_full(ga, a, gb, b, cached);
        FullResult got_warm = compare_full(ga, a, gb, b, cached);
        EXPECT_EQ(to_string(want.verdict), to_string(got_cold.verdict))
            << "pair (" << a << ", " << b << ") unit_elim=" << unit_elim;
        EXPECT_EQ(to_string(want.verdict), to_string(got_warm.verdict))
            << "pair (" << a << ", " << b << ") unit_elim=" << unit_elim;
        if (want.to_right.ok) {
          EXPECT_TRUE(
              plan::validate(got_warm.to_right.plan, got_warm.to_right.root)
                  .empty());
        }
      }
    }
  }
}

TEST(CrossCache, UndersizedHashVectorsAreIgnored) {
  PairFixture f;
  std::vector<uint64_t> bogus(2, 0xdeadbeefULL);  // far too small, garbage
  Options opts;
  opts.left_hashes = &bogus;
  opts.right_hashes = &bogus;
  Result r = compare(f.ga, f.a, f.gb, f.b, opts);
  EXPECT_TRUE(r.ok) << "bogus hash vectors must be ignored, not trusted: "
                    << r.mismatch.to_string();
}

TEST(HashCache, RecomputesAfterInPlaceRewrite) {
  Graph g;
  Ref r = g.integer(0, 10);
  (void)g.record({r, r});
  HashCache hc(g);
  uint64_t before = (*hc.get())[r];

  // In-place rewrite: same node count, different structure. The stale
  // cache bug served the old hashes here (size unchanged).
  g.at_mut(r).hi = 99;
  uint64_t after = (*hc.get())[r];
  EXPECT_NE(before, after);

  // Growth still triggers recomputation too.
  (void)g.integer(5, 6);
  EXPECT_EQ(hc.get()->size(), g.size());

  // Explicit refresh is a no-op when nothing changed.
  auto snapshot = *hc.get();
  hc.refresh();
  EXPECT_EQ(*hc.get(), snapshot);
}

TEST(CrossCache, ExtractRefusesMidConstructionFragments) {
  plan::PlanGraph pg;
  plan::PlanNode alias;
  alias.kind = plan::PKind::Alias;  // inner left dangling (kNullPlan)
  plan::PlanRef r = pg.add(std::move(alias));
  EXPECT_EQ(CrossCache::extract(pg, r), nullptr);
}

TEST(CrossCache, ProgramMemoRoundTrip) {
  Graph ga, gb;
  Ref a = ga.integer(0, 10);
  Ref b = gb.integer(0, 10);
  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  Result r = compare(ga, a, gb, b, opts);
  ASSERT_TRUE(r.ok);

  auto sa = cross.strict_ids(ga);
  auto sb = cross.strict_ids(gb);
  CrossCache::Key key{(*sa)[a], (*sb)[b], CrossCache::fingerprint(opts)};
  EXPECT_EQ(cross.find_program(key), nullptr);
  auto prog = std::make_shared<planir::Program>(planir::compile(r.plan, r.root));
  cross.insert_program(key, prog);
  EXPECT_EQ(cross.find_program(key).get(), prog.get());
  EXPECT_EQ(cross.stats().programs, 1u);
}

TEST(CrossCache, SharedAcrossThreadsUnderLoad) {
  // Four workers hammer one cache with the same pair family. Primarily a
  // ThreadSanitizer target (the CI TSan lane runs this test); the
  // functional assertion is that every comparison still gets the right
  // verdict.
  PairFixture f;
  CrossCache cross;
  std::atomic<int> ok_count{0};
  std::atomic<int> bad_count{0};
  {
    ThreadPool pool(4);
    for (int t = 0; t < 4; ++t) {
      pool.submit([&] {
        for (int i = 0; i < 50; ++i) {
          Options opts;
          opts.cross = &cross;
          Result r = compare(f.ga, f.a, f.gb, f.b, opts);
          (r.ok ? ok_count : bad_count).fetch_add(1);
          Result rev = compare(f.gb, f.b, f.ga, f.a, opts);
          (rev.ok ? ok_count : bad_count).fetch_add(1);
        }
      });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(ok_count.load(), 400);
  EXPECT_EQ(bad_count.load(), 0);
  auto st = cross.stats();
  EXPECT_GT(st.hits, 0u);
}

TEST(CrossCache, WriteBufferFlushesOnUnwind) {
  // An exception thrown through a scope holding a WriteBuffer with pending
  // inserts must not drop them: the destructor flushes during unwinding,
  // so a crashing chunk in the batch driver still publishes what it
  // learned before the throw.
  PairFixture f;
  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  auto sa = cross.strict_ids(f.ga);
  auto sb = cross.strict_ids(f.gb);
  const CrossCache::Key key{(*sa)[f.a], (*sb)[f.b],
                            CrossCache::fingerprint(opts)};
  auto negative = std::make_shared<CrossCache::Variant>();
  negative->ok = false;  // portable: no fragment, no graph binding
  EXPECT_THROW(
      {
        CrossCache::WriteBuffer wb(cross);
        wb.insert(key, negative);
        // Pending only: under kAutoFlush, the owner must not see it yet.
        EXPECT_EQ(cross.find(key, &f.ga, f.ga.version(), &f.gb,
                             f.gb.version()),
                  nullptr);
        throw std::runtime_error("chunk died");
      },
      std::runtime_error);
  auto hit = cross.find(key, &f.ga, f.ga.version(), &f.gb, f.gb.version());
  ASSERT_NE(hit, nullptr) << "unwind must flush pending inserts";
  EXPECT_FALSE(hit->ok);
}

// ---- the shared plan arena ---------------------------------------------------

// The paper's §5 VisualAge corpus: class k refers to classes k-1 and k/2
// and carries scalar fields and methods. With `recursive`, each class also
// refers to itself, so every declaration lowers to a µ-type.
std::string class_chain(int n, bool java, bool recursive, int methods) {
  std::string src;
  for (int k = 0; k < n; ++k) {
    const std::string ptr = java ? " " : " *";
    src += (java ? "public class Node" : "class Node") + std::to_string(k) +
           " {\n";
    if (!java) src += "public:\n";
    src += "  int kind;\n  int line;\n  float weight;\n";
    if (recursive) src += "  Node" + std::to_string(k) + ptr + "next;\n";
    if (k > 0) {
      src += "  Node" + std::to_string(k - 1) + ptr + "prev;\n";
      src += "  Node" + std::to_string(k / 2) + ptr + "owner;\n";
    }
    for (int m = 0; m < methods; ++m) {
      const char* ret = m % 3 == 0 ? "int" : (m % 3 == 1 ? "float" : "void");
      src += std::string("  ") + ret + " method" + std::to_string(m) +
             "(int a" + (m % 2 != 0 ? ", float b" : "") + ");\n";
    }
    src += java ? "}\n" : "};\n";
  }
  return src;
}

// Both sides of a corpus, lowered declaration by declaration (as the
// service lowers them) into one graph per side.
struct Corpus {
  Graph ga, gb;
  std::vector<std::pair<Ref, Ref>> pairs;
};

std::unique_ptr<Corpus> chain_corpus(int n, bool recursive, int methods,
                                     bool annotate_notnull) {
  DiagnosticEngine diags;
  auto c = std::make_unique<Corpus>();
  stype::Module cm = cfront::parse_c(class_chain(n, false, recursive, methods),
                                     "engine.hpp", diags);
  stype::Module jm = javasrc::parse_java(
      class_chain(n, true, recursive, methods), "Engine.java", diags);
  if (annotate_notnull) {
    const char* script =
        "annotate \"Node*.prev\" notnull;\nannotate \"Node*.owner\" notnull;\n";
    annotate::run_script(script, "batch.mba", cm, diags);
    annotate::run_script(script, "batch.mba", jm, diags);
  }
  EXPECT_FALSE(diags.has_errors()) << diags.summary();
  lower::LowerEngine ce(cm, c->ga, diags), je(jm, c->gb, diags);
  for (int k = 0; k < n; ++k) {
    const std::string name = "Node" + std::to_string(k);
    c->pairs.emplace_back(ce.lower_decl(name), je.lower_decl(name));
  }
  return c;
}

// Appends `count` random nodes that refer only to existing nodes, µ-types
// and ports included (the canon suites' generator, except that a µ-type's
// τ is drawn before its binder exists, so its values are finite).
void grow_random(Graph& g, Rng& rng, int count) {
  auto pick = [&] { return static_cast<Ref>(rng.below(g.size())); };
  for (int i = 0; i < count; ++i) {
    if (g.size() == 0) {
      (void)g.integer(0, 1);
      continue;
    }
    switch (rng.below(10)) {
      case 0: (void)g.integer(0, rng.range(1, 3)); break;
      case 1:
        (void)g.character(rng.chance(0.5) ? Repertoire::Ascii
                                          : Repertoire::Unicode);
        break;
      case 2: (void)g.real(24, rng.chance(0.5) ? 8 : 11); break;
      case 3: (void)g.unit(); break;
      case 4:
      case 5: {
        std::vector<Ref> kids(static_cast<size_t>(rng.range(1, 4)));
        for (Ref& k : kids) k = pick();
        if (rng.chance(0.5)) {
          (void)g.record(std::move(kids));
        } else {
          (void)g.choice(std::move(kids));
        }
        break;
      }
      case 6: (void)g.port(pick()); break;
      case 7: (void)g.list_of(pick()); break;
      case 8: {  // µX.Record(τ, Choice(Unit, X)), τ drawn before X exists
        Ref tau = pick();
        Ref rec = g.rec_placeholder();
        Ref tail = g.choice({g.unit(), g.var(rec)});
        g.seal_rec(rec, g.record({tau, tail}));
        break;
      }
      default: {  // unproductive µX.X: degenerate
        Ref rec = g.rec_placeholder();
        g.seal_rec(rec, g.var(rec));
        break;
      }
    }
  }
}

// A random graph and a node-for-node copy: every (r, r) pair is provable
// and most cross pairs are not.
std::unique_ptr<Corpus> random_corpus(uint64_t seed) {
  auto c = std::make_unique<Corpus>();
  Rng rng(seed);
  grow_random(c->ga, rng, 60);
  for (Ref r = 0; r < c->ga.size(); ++r) (void)c->gb.add_node(c->ga.at(r));
  for (int i = 0; i < 40; ++i) {
    const auto a = static_cast<Ref>(rng.below(c->ga.size()));
    const auto b = rng.chance(0.5) ? a : static_cast<Ref>(rng.below(c->gb.size()));
    c->pairs.emplace_back(a, b);
  }
  return c;
}

// The comparer rule sets the differential covers.
std::vector<std::pair<const char*, Options>> rule_sets() {
  Options strict;
  strict.commutative = false;
  strict.associative = false;
  Options iso;
  Options units;
  units.unit_elimination = true;
  return {{"strict", strict}, {"iso", iso}, {"unit-elim", units}};
}

// Two convert-mode programs compute the same conversion up to sharing:
// from (i, j) on, instructions match op for op — ranges, paths, record
// skeletons, arm paths, custom names — and so do the instructions they
// lead to (coinductively: a revisited pair is assumed to match). Plain
// compare() proves a sub-pair once per comparison while the cache proves
// it once per cache, so their plans share differently and the programs'
// layouts differ; PortMap origins name plan nodes and are not compared.
class SameProgram {
 public:
  SameProgram(const planir::Program& p, const planir::Program& q) : p_(p), q_(q) {}
  bool operator()() { return same(p_.entry, q_.entry); }

 private:
  using Op = planir::OpCode;
  template <class T>
  static bool slices(const std::vector<T>& a, uint32_t ao, uint32_t al,
                     const std::vector<T>& b, uint32_t bo, uint32_t bl) {
    return al == bl && std::equal(a.begin() + ao, a.begin() + ao + al, b.begin() + bo);
  }
  bool paths(uint32_t ao, uint32_t al, uint32_t bo, uint32_t bl) const {
    return slices(p_.path_pool, ao, al, q_.path_pool, bo, bl);
  }
  bool field(const planir::Program::Field& f, const planir::Program::Field& g) {
    return paths(f.src_off, f.src_len, g.src_off, g.src_len) &&
           paths(f.dst_off, f.dst_len, g.dst_off, g.dst_len) && same(f.op, g.op);
  }
  bool same(uint32_t i, uint32_t j) {
    if (!assumed_.emplace(i, j).second) return true;
    const planir::Instr& a = p_.code[i];
    const planir::Instr& b = q_.code[j];
    if (a.op != b.op || a.lo != b.lo || a.hi != b.hi) return false;
    switch (a.op) {
      case Op::BuildRecord: {
        const auto& ra = p_.records[a.a];
        const auto& rb = q_.records[b.a];
        if (ra.fields_len != rb.fields_len ||
            ra.shape_len != rb.shape_len) {
          return false;
        }
        for (uint32_t k = 0; k < ra.shape_len; ++k) {
          const auto& ta = p_.shape_pool[ra.shape_off + k];
          const auto& tb = q_.shape_pool[rb.shape_off + k];
          if (ta.kind != tb.kind || ta.arg != tb.arg) return false;
        }
        for (uint32_t k = 0; k < ra.fields_len; ++k) {
          if (!field(p_.fields[ra.fields_off + k], q_.fields[rb.fields_off + k])) {
            return false;
          }
        }
        return true;
      }
      case Op::MatchChoice: {
        const auto& ca = p_.choices[a.a];
        const auto& cb = q_.choices[b.a];
        if (ca.arms_len != cb.arms_len) return false;
        for (uint32_t k = 0; k < ca.arms_len; ++k) {
          const auto& x = p_.arms[ca.arms_off + k];
          const auto& y = q_.arms[cb.arms_off + k];
          if (!paths(x.src_off, x.src_len, y.src_off, y.src_len) ||
              !paths(x.dst_off, x.dst_len, y.dst_off, y.dst_len) ||
              !same(x.op, y.op)) {
            return false;
          }
        }
        return true;
      }
      case Op::MapList: return same(a.a, b.a);
      case Op::ExtractField: return field(p_.fields[a.a], q_.fields[b.a]);
      case Op::CallCustom: return p_.custom_names[a.a] == q_.custom_names[b.a];
      default: return true;  // scalar copies (CopyPort: `a` is a plan ref)
    }
  }

  const planir::Program& p_;
  const planir::Program& q_;
  std::set<std::pair<uint32_t, uint32_t>> assumed_;
};

// planir::compile's program, or the fault it refused the plan with.
std::variant<planir::Program, planir::IrFault> lower(const Result& r) {
  try {
    return planir::compile(r.plan, r.root);
  } catch (const planir::IrError& e) {
    return e.fault();
  }
}

// Whether values of `r` stay small: its tree unfolding (µ-bodies once,
// not through their variables) has under 300 nodes. Values unfold the
// type's DAG, so a not-null class chain's grow exponentially with k.
bool small_values(const Graph& g, Ref r) {
  size_t n = 0;
  std::vector<Ref> work{r};
  for (; !work.empty() && n < 300; ++n) {
    const mtype::Node& nd = g.at(work.back());
    work.pop_back();
    if (nd.kind != mtype::MKind::Var) {
      for (Ref k : nd.children) work.push_back(k);
    }
  }
  return work.empty();
}

// Converted values, each as its wire encoding (or the conversion error).
std::vector<std::string> conversions(const Corpus& c, Ref a, Ref b,
                                     const Result& r, uint64_t seed) {
  runtime::Converter conv(r.plan);
  std::vector<std::string> out;
  for (uint64_t vs = 0; vs < 6; ++vs) {
    runtime::Value v = runtime::random_value(c.ga, a, seed * 131 + vs);
    try {
      runtime::Value got = conv.apply(r.root, v);
      std::vector<uint8_t> bytes = wire::encode(c.gb, b, got);
      out.emplace_back(bytes.begin(), bytes.end());
    } catch (const std::exception& e) {
      out.emplace_back(std::string("error: ") + e.what());
    }
  }
  return out;
}

// Cold (filling) and warm (serving) cached runs against plain compare():
// same verdicts, byte-identical programs and converted values.
void expect_cached_matches_plain(const Corpus& c, const Options& plain) {
  CrossCache cross;
  Options cached = plain;
  cached.cross = &cross;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < c.pairs.size(); ++i) {
      const auto [a, b] = c.pairs[i];
      SCOPED_TRACE("pair " + std::to_string(i) + " round " +
                   std::to_string(round));
      Result want = compare(c.ga, a, c.gb, b, plain);
      Result got = compare(c.ga, a, c.gb, b, cached);
      ASSERT_EQ(want.ok, got.ok);
      if (!want.ok) continue;
      ASSERT_TRUE(plan::validate(got.plan, got.root).empty());
      auto pw = lower(want);
      auto pg = lower(got);
      ASSERT_EQ(pw.index(), pg.index());
      if (pw.index() == 1) {
        EXPECT_EQ(std::get<1>(pw), std::get<1>(pg));  // same refusal
        continue;
      }
      const auto& prog = std::get<0>(pg);
      ASSERT_TRUE(planir::verify(prog).empty());
      EXPECT_TRUE(SameProgram(std::get<0>(pw), prog)());
      if (small_values(c.ga, a)) {
        EXPECT_EQ(conversions(c, a, b, want, i), conversions(c, a, b, got, i));
      }
    }
  }
}

void expect_cached_matches_plain(const Corpus& c) {
  for (const auto& [rules, opts] : rule_sets()) {
    SCOPED_TRACE(rules);
    expect_cached_matches_plain(c, opts);
  }
}

TEST(PlanArena, CachedPlansMatchPlainOnVisualAge) {
  expect_cached_matches_plain(*chain_corpus(100, false, 10, true));
}

TEST(PlanArena, CachedPlansMatchPlainOnChain) {
  expect_cached_matches_plain(*chain_corpus(30, false, 2, false));
}

TEST(PlanArena, CachedPlansMatchPlainOnRecursiveChain) {
  expect_cached_matches_plain(*chain_corpus(30, true, 2, false));
}

TEST(PlanArena, CachedPlansMatchPlainOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_cached_matches_plain(*random_corpus(seed));
  }
}

TEST(PlanArena, HitIsAReferenceNotACopy) {
  PairFixture f;
  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  Result cold = compare(f.ga, f.a, f.gb, f.b, opts);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(plan::is_shared(cold.root));
  const size_t arena = cross.arena()->size();

  // A fresh comparison of the known pair: the root is the cached proof,
  // and neither the consumer's local layer nor the arena grows.
  Result warm = compare(f.ga, f.a, f.gb, f.b, opts);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.root, cold.root);
  EXPECT_EQ(warm.plan.local_size(), 0u);
  EXPECT_EQ(cross.arena()->size(), arena);
  EXPECT_EQ(plan::print(warm.plan, warm.root), plan::print(cold.plan, cold.root));
}

TEST(PlanArena, ExtractMovesOnlyWhatTheComparisonBuilt) {
  // Pair 1 proves the inner record; pair 2 wraps it. Each comparison's
  // arena growth is exactly the nodes it built (its local layer): pair 2
  // refers to pair 1's proof and moves only its own top record and the
  // new scalar.
  Graph ga, gb;
  Ref ia = ga.record({ga.integer(0, 255), ga.real(24, 8)});
  Ref ib = gb.record({gb.real(24, 8), gb.integer(0, 255)});
  Ref oa = ga.record({ia, ga.character(Repertoire::Ascii)});
  Ref ob = gb.record({gb.character(Repertoire::Ascii), ib});
  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  auto& minted = obs::counter("crosscache.plan.nodes_minted");

  const uint64_t m0 = minted.value();
  Result inner = compare(ga, ia, gb, ib, opts);
  ASSERT_TRUE(inner.ok);
  EXPECT_EQ(cross.arena()->size(), inner.plan.local_size());
  EXPECT_EQ(inner.plan.local_size(), 3u);  // record + two scalars
  EXPECT_EQ(minted.value() - m0, 3u);

  const size_t before = cross.arena()->size();
  Result outer = compare(ga, oa, gb, ob, opts);
  ASSERT_TRUE(outer.ok);
  EXPECT_EQ(outer.plan.local_size(), 2u);  // record + char
  EXPECT_EQ(cross.arena()->size() - before, outer.plan.local_size());
  EXPECT_EQ(cross.stats().fragment_nodes, cross.arena()->size());
  // The outer proof refers to the inner one; it does not hold a copy.
  const plan::PlanNode& top = outer.plan.at(outer.root);
  ASSERT_EQ(top.kind, plan::PKind::RecordMap);
  EXPECT_EQ(top.fields[1].op, inner.root);
}

TEST(PlanArena, RollbackLeavesTheArenaUntouched) {
  auto arena = std::make_shared<plan::PlanArena>();
  plan::PlanGraph g(arena);
  plan::PlanNode i;
  i.kind = plan::PKind::IntCopy;
  i.hi = 9;
  const size_t mark = g.checkpoint();
  plan::PlanRef leaf = g.add(i);
  plan::PlanNode list;
  list.kind = plan::PKind::ListMap;
  list.inner = leaf;
  plan::PlanRef top = g.add(std::move(list));
  auto v = CrossCache::extract(g, top);
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(arena->size(), 2u);
  const std::string printed = plan::print(g, v->root);
  // Speculation above the published proof, then a rollback past all of it.
  (void)g.add(i);
  g.rollback(mark);
  EXPECT_EQ(g.local_size(), mark);
  EXPECT_EQ(arena->size(), 2u);
  EXPECT_EQ(plan::print(g, v->root), printed);
  EXPECT_TRUE(plan::validate(g, v->root).empty());

  // A comparison that backtracks over a proved field keeps that proof.
  // Subtype mode: p fits r and s, q only r, and p tries r first; when q
  // then fails against s, the p->r match is rolled back, yet its proof
  // stays published and valid.
  Graph ga, gb;
  Ref p = ga.integer(0, 1);
  Ref q = ga.integer(0, 9);
  Ref a = ga.record({p, q});
  Ref r = gb.integer(0, 9);
  Ref s = gb.integer(0, 5);
  Ref b = gb.record({r, s});
  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  opts.mode = Mode::Subtype;
  Result res = compare(ga, a, gb, b, opts);
  ASSERT_TRUE(res.ok);
  EXPECT_TRUE(plan::validate(res.plan, res.root).empty());
  const CrossCache::Key spec{(*cross.strict_ids(ga))[p], (*cross.strict_ids(gb))[r],
                             CrossCache::fingerprint(opts)};
  auto kept = cross.find(spec, &ga, ga.version(), &gb, gb.version());
  ASSERT_NE(kept, nullptr);
  ASSERT_TRUE(kept->ok);
  EXPECT_EQ(res.plan.at(kept->root).kind, plan::PKind::IntCopy);
  // The final plan took p->s: target leaf 1 (s) comes from source field 0.
  const plan::PlanNode& rec = res.plan.at(res.root);
  EXPECT_EQ(rec.fields[1].src_path, mtype::Path{0});
  EXPECT_NE(rec.fields[1].op, kept->root);
}

TEST(PlanArena, RefusedExtractMovesNothing) {
  auto arena = std::make_shared<plan::PlanArena>();
  plan::PlanGraph g(arena);
  plan::PlanNode leaf;
  leaf.kind = plan::PKind::CharCopy;
  plan::PlanNode alias;
  alias.kind = plan::PKind::Alias;  // body still being built
  plan::PlanNode rec;
  rec.kind = plan::PKind::RecordMap;
  rec.fields.push_back({{0}, {0}, g.add(leaf)});
  rec.fields.push_back({{1}, {1}, g.add(std::move(alias))});
  plan::PlanRef top = g.add(std::move(rec));
  EXPECT_EQ(CrossCache::extract(g, top), nullptr);
  EXPECT_EQ(arena->size(), 0u);
  EXPECT_EQ(g.at(0).kind, plan::PKind::CharCopy);  // nothing moved out
  EXPECT_EQ(g.forward(0), 0u);
}

TEST(PlanArena, HydrationReusesProofsAlreadyInTheArena) {
  // The store writes each proof as a self-contained fragment with its
  // keyed sub-proofs. A restarted cache that already holds a sub-proof
  // wires it in: hydrating the outer pair appends only its own nodes.
  Graph ga, gb;
  Ref ia = ga.record({ga.integer(0, 255), ga.real(24, 8)});
  Ref ib = gb.record({gb.real(24, 8), gb.integer(0, 255)});
  Ref oa = ga.record({ia, ga.character(Repertoire::Ascii)});
  Ref ob = gb.record({gb.character(Repertoire::Ascii), ib});
  const std::string path = testing::TempDir() + "mbird_arena_hydrate.mbc";
  std::remove(path.c_str());
  std::remove((path + ".journal").c_str());
  std::string err;
  planir::Program before;
  {
    store::CacheStore st;
    ASSERT_TRUE(st.open(path, CrossCache::store_payload_version(), &err)) << err;
    CrossCache cross;
    cross.attach_store(&st);
    Options opts;
    opts.cross = &cross;
    Result r = compare(ga, oa, gb, ob, opts);
    ASSERT_TRUE(r.ok);
    before = planir::compile(r.plan, r.root);
    ASSERT_EQ(cross.arena()->size(), 5u);
    ASSERT_TRUE(st.flush(&err)) << err;
    cross.attach_store(nullptr);
  }
  store::CacheStore st;
  ASSERT_TRUE(st.open(path, CrossCache::store_payload_version(), &err)) << err;
  CrossCache cross;
  cross.attach_store(&st);
  Options opts;
  opts.cross = &cross;
  Result inner = compare(ga, ia, gb, ib, opts);
  ASSERT_TRUE(inner.ok);
  EXPECT_EQ(inner.steps, 1u);  // hydrated, not compared
  EXPECT_EQ(cross.arena()->size(), 3u);
  Result outer = compare(ga, oa, gb, ob, opts);
  ASSERT_TRUE(outer.ok);
  EXPECT_EQ(outer.steps, 1u);
  EXPECT_EQ(cross.arena()->size(), 5u) << "the inner proof was appended twice";
  EXPECT_EQ(outer.plan.at(outer.root).fields[1].op, inner.root);
  EXPECT_TRUE(SameProgram(before, planir::compile(outer.plan, outer.root))());
  cross.attach_store(nullptr);
}

TEST(PlanArena, SharedNodesCannotBeEditedThroughAPlan) {
  Graph ga, gb;
  Ref a = ga.record({ga.integer(0, 9), ga.real(24, 8)});
  Ref b = gb.record({gb.integer(0, 9), gb.real(24, 8)});
  CrossCache cross;
  Options opts;
  opts.cross = &cross;
  Result mine = compare(ga, a, gb, b, opts);
  Result theirs = compare(ga, a, gb, b, opts);
  ASSERT_TRUE(mine.ok && theirs.ok);
  ASSERT_TRUE(plan::is_shared(mine.root));
  const std::string before = plan::print(theirs.plan, theirs.root);

  EXPECT_THROW((void)mine.plan.at_mut(mine.root), std::logic_error);
  plan::PlanRef doubler = plan::make_custom(mine.plan, "double_it");
  EXPECT_FALSE(plan::replace_field_op(mine.plan, mine.root, {1}, doubler));
  EXPECT_EQ(plan::print(theirs.plan, theirs.root), before);
  // The local layer stays editable.
  EXPECT_EQ(mine.plan.at_mut(doubler).note, "double_it");
}

TEST(PlanArena, PlansOutliveTheirCache) {
  Graph ga, gb;
  Ref a = ga.record({ga.integer(0, 9), ga.list_of(ga.real(24, 8))});
  Ref b = gb.record({gb.list_of(gb.real(24, 8)), gb.integer(0, 9)});
  Result res;
  {
    CrossCache cross;
    Options opts;
    opts.cross = &cross;
    res = compare(ga, a, gb, b, opts);
  }
  ASSERT_TRUE(res.ok);
  planir::Program prog = planir::compile(res.plan, res.root);
  EXPECT_TRUE(planir::verify(prog).empty());
  runtime::Converter conv(res.plan);
  runtime::Value v = runtime::random_value(ga, a, 7);
  EXPECT_TRUE(runtime::conforms(gb, b, conv.apply(res.root, v)));
}

TEST(PlanArena, KnownPairMintsNothingInAFreshComparison) {
  std::vector<stype::Module> modules;
  DiagnosticEngine diags;
  modules.push_back(cfront::parse_c(class_chain(12, false, false, 2), "e.hpp", diags));
  modules.push_back(
      javasrc::parse_java(class_chain(12, true, false, 2), "E.java", diags));
  ASSERT_FALSE(diags.has_errors()) << diags.summary();
  service::ServiceCore core(modules, diags);
  auto& minted = obs::counter("crosscache.plan.nodes_minted");
  service::PairOutcome out;
  std::string err;
  ASSERT_TRUE(core.compile_spec("e.hpp:Node11", "E.java:Node11", &out, &err)) << err;
  ASSERT_EQ(out.verdict, Verdict::Equivalent);
  const size_t arena = core.cross().arena()->size();
  EXPECT_GT(arena, 0u);

  const uint64_t m0 = minted.value();
  ASSERT_TRUE(core.compile_spec("e.hpp:Node11", "E.java:Node11", &out, &err)) << err;
  EXPECT_TRUE(out.memo_hit);
  // Bypass the memo fast path: a fresh comparison resolves from the cache.
  const auto frozen = core.freeze();
  Ref ra = core.lower_left("e.hpp:Node11", &err);
  Ref rb = core.lower_right("E.java:Node11", &err);
  FullResult full = compare_full(core.left_graph(), ra, core.right_graph(), rb,
                                 frozen.base);
  ASSERT_EQ(full.verdict, Verdict::Equivalent);
  EXPECT_EQ(full.to_right.plan.local_size(), 0u);
  EXPECT_EQ(full.to_left.plan.local_size(), 0u);
  EXPECT_EQ(minted.value() - m0, 0u);
  EXPECT_EQ(core.cross().arena()->size(), arena);

  // The plans hold the arena: they outlive the cache they came from.
  core.reset_memory_cache();
  planir::Program prog = planir::compile(full.to_right.plan, full.to_right.root);
  EXPECT_TRUE(planir::verify(prog).empty());
}

TEST(PlanArena, ConcurrentColdFill) {
  // Four workers fill one cache through WriteBuffers, each walking the
  // pairs in its own order (so they race on the same proofs), while two
  // readers compare the same pairs against the cache and compile and run
  // what they get. A TSan target; functionally, every reader program must
  // match the plain comparer's.
  auto c = chain_corpus(24, false, 2, true);
  CrossCache cross;
  Options base;
  base.cross = &cross;
  auto lids = cross.strict_ids(c->ga);
  auto rids = cross.strict_ids(c->gb);
  std::vector<planir::Program> plain;
  for (const auto& [a, b] : c->pairs) {
    plain.push_back(planir::compile(compare(c->ga, a, c->gb, b, {}).plan,
                                    compare(c->ga, a, c->gb, b, {}).root));
  }
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<size_t> order(c->pairs.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      for (size_t chunk = 0; chunk < order.size(); chunk += 6) {
        CrossCache::WriteBuffer wb(cross);
        for (size_t k = chunk; k < std::min(order.size(), chunk + 6); ++k) {
          const auto [a, b] = c->pairs[order[k]];
          auto o = service::compile_pair(c->ga, a, c->gb, b, base, (*lids)[a],
                                         (*rids)[b], &wb);
          if (o.verdict != Verdict::Equivalent) bad.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < c->pairs.size(); ++i) {
          const size_t k = t == 0 ? i : c->pairs.size() - 1 - i;
          const auto [a, b] = c->pairs[k];
          Result r = compare(c->ga, a, c->gb, b, base);
          if (!r.ok) {
            bad.fetch_add(1);
            continue;
          }
          planir::Program prog = planir::compile(r.plan, r.root);
          if (!planir::verify(prog).empty() || !SameProgram(plain[k], prog)()) {
            bad.fetch_add(1);
          }
          runtime::Converter conv(r.plan);
          runtime::Value v = runtime::random_value(c->ga, a, k, 2);
          if (!small_values(c->ga, a)) continue;
          if (!runtime::conforms(c->gb, b, conv.apply(r.root, v))) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(cross.stats().hits, 0u);
}

TEST(ThreadPool, RecursiveSubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &count] {
      count.fetch_add(1);
      pool.submit([&count] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
  // Reusable after idle.
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 21);
}

}  // namespace
}  // namespace mbird::compare
