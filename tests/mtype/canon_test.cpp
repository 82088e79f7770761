#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cfront/cparser.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "mtype/canon.hpp"
#include "mtype/mtype.hpp"
#include "support/diag.hpp"
#include "support/rng.hpp"

namespace mbird::mtype {
namespace {

// ---- structure_hashes sanity (the prune the Comparer leans on) -------------

TEST(StructureHashes, Deterministic) {
  auto build = [] {
    Graph g;
    Ref inner = g.record({g.integer(0, 255), g.character(Repertoire::Ascii)});
    (void)g.record({inner, g.real(24, 8), g.list_of(g.integer(-10, 10))});
    return g;
  };
  Graph g1 = build();
  Graph g2 = build();
  auto h1 = structure_hashes(g1, false);
  auto h1_again = structure_hashes(g1, false);
  auto h2 = structure_hashes(g2, false);
  EXPECT_EQ(h1, h1_again);
  // Same construction order => same refs => identical vectors.
  EXPECT_EQ(h1, h2);
}

TEST(StructureHashes, CollisionSanityAcrossDistinctShapes) {
  Graph g;
  std::vector<Ref> roots = {
      g.integer(0, 255),
      g.integer(0, 127),
      g.character(Repertoire::Ascii),
      g.character(Repertoire::Unicode),
      g.real(24, 8),
      g.unit(),
      g.record({g.integer(0, 255)}),
      g.record({g.integer(0, 255), g.integer(0, 255)}),
      g.choice({g.integer(0, 255), g.character(Repertoire::Ascii)}),
      g.list_of(g.integer(0, 255)),
  };
  auto h = structure_hashes(g, false);
  for (size_t i = 0; i < roots.size(); ++i) {
    for (size_t j = i + 1; j < roots.size(); ++j) {
      EXPECT_NE(h[roots[i]], h[roots[j]])
          << "hash collision between distinct shapes " << i << " and " << j;
    }
  }
}

// ---- canonical index -------------------------------------------------------

TEST(CanonIndex, InternIsIdempotent) {
  Graph g;
  Ref pt = g.record({g.integer(0, 255), g.character(Repertoire::Ascii)});
  (void)g.record({pt, pt});

  CanonIndex idx;
  auto ids1 = idx.intern(g);
  size_t classes_after_first = idx.classes();
  auto ids2 = idx.intern(g);
  EXPECT_EQ(ids1, ids2);
  EXPECT_EQ(idx.classes(), classes_after_first)
      << "re-interning the same graph must not mint new classes";

  // ids_for memoizes: same snapshot object for an unchanged graph.
  auto s1 = idx.ids_for(g);
  auto s2 = idx.ids_for(g);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(*s1, ids1);
}

TEST(CanonIndex, IsomorphicRecordsAcrossGraphsShareIsoId) {
  Graph ga, gb;
  Ref a = ga.record({ga.integer(0, 10), ga.character(Repertoire::Ascii)});
  Ref b = gb.record({gb.character(Repertoire::Ascii), gb.integer(0, 10)});

  CanonIndex iso;  // commutative + associative defaults
  auto ia = iso.intern(ga);
  auto ib = iso.intern(gb);
  EXPECT_EQ(ia[a], ib[b]) << "permuted fields must share an iso class";

  CanonIndex strict(CanonOptions::strict());
  auto sa = strict.intern(ga);
  auto sb = strict.intern(gb);
  EXPECT_NE(sa[a], sb[b]) << "strict ids must distinguish field order";

  // Identical layout across graphs shares a strict id.
  Graph gc;
  Ref c = gc.record({gc.integer(0, 10), gc.character(Repertoire::Ascii)});
  auto sc = strict.intern(gc);
  EXPECT_EQ(sa[a], sc[c]);
}

TEST(CanonIndex, AssociativeFlatteningSharesClass) {
  Graph ga, gb;
  Ref nested = ga.record(
      {ga.integer(0, 1),
       ga.record({ga.character(Repertoire::Ascii), ga.real(24, 8)})});
  Ref flat = gb.record({gb.integer(0, 1), gb.character(Repertoire::Ascii),
                        gb.real(24, 8)});

  CanonIndex iso;
  auto ia = iso.intern(ga);
  auto ib = iso.intern(gb);
  EXPECT_EQ(ia[nested], ib[flat]);

  CanonIndex strict(CanonOptions::strict());
  auto sa = strict.intern(ga);
  auto sb = strict.intern(gb);
  EXPECT_NE(sa[nested], sb[flat]);
}

TEST(CanonIndex, UnitEliminationBridgesToSingleComponent) {
  CanonOptions uopts;
  uopts.unit_elimination = true;
  CanonIndex idx(uopts);

  Graph g;
  Ref bare = g.integer(0, 99);
  Ref wrapped = g.record({g.integer(0, 99), g.unit()});
  auto ids = idx.intern(g);
  EXPECT_EQ(ids[bare], ids[wrapped])
      << "Record(tau, Unit) ~ tau under unit elimination";

  // Without unit elimination the record stays distinct.
  CanonIndex plain;
  auto pids = plain.intern(g);
  EXPECT_NE(pids[bare], pids[wrapped]);

  // The bridge must NOT collapse a record onto a record: a single-component
  // record of a record has a different flattened form than its component
  // only when the component is reached through a µ-binder; the plain nested
  // case flattens away entirely.
  Graph g2;
  Ref inner2 = g2.record({g2.integer(0, 5), g2.character(Repertoire::Ascii)});
  Ref outer2 = g2.record({inner2, g2.unit()});
  auto ids2 = idx.intern(g2);
  EXPECT_EQ(ids2[outer2], ids2[inner2])
      << "flattening alone collapses Record(Record(..), Unit)";
}

TEST(CanonIndex, MuUnfoldingSharesClassUnderIsoOptions) {
  Graph ga, gb;
  Ref la = ga.list_of(ga.integer(0, 255));
  Ref lb = gb.list_of(gb.integer(0, 255));

  CanonIndex iso;  // mu_transparent defaults on
  auto ia = iso.intern(ga);
  auto ib = iso.intern(gb);
  EXPECT_NE(ia[la], kNoCanon);
  EXPECT_EQ(ia[la], ib[lb]) << "same list type from two graphs, one class";

  // A Var aliasing the Rec resolves to the same class.
  Graph gc;
  Ref lc = gc.list_of(gc.integer(0, 255));
  Ref vc = gc.var(lc);
  auto ic = iso.intern(gc);
  EXPECT_EQ(ic[vc], ic[lc]);

  // Lists of different element types stay apart.
  Graph gd;
  Ref ld = gd.list_of(gd.character(Repertoire::Ascii));
  auto id = iso.intern(gd);
  EXPECT_NE(ia[la], id[ld]);
}

TEST(CanonIndex, MuWrappedRecordStaysDistinctFromUnfolding) {
  // Record(µR.Record(Int, Char)) vs Record(Int, Char): the Comparer's
  // direct-first strategy can still relate these two, but their flattened
  // congruence differs (arity 1 vs 2), so the iso index keeps them apart.
  // This is exactly why iso ids are only ever positive evidence.
  Graph g;
  Ref r2 = g.record({g.integer(0, 7), g.character(Repertoire::Ascii)});
  Ref rec = g.rec_placeholder();
  g.seal_rec(rec, r2);
  Ref wrapped = g.record({rec});

  CanonIndex iso;
  auto ids = iso.intern(g);
  EXPECT_NE(ids[wrapped], kNoCanon);
  EXPECT_NE(ids[wrapped], ids[r2]);
  // The µ-binder itself is transparent: same class as its body.
  EXPECT_EQ(ids[rec], ids[r2]);
}

TEST(CanonIndex, StrictIdsKeepMuBindersStructural) {
  Graph g;
  Ref r2 = g.record({g.integer(0, 7), g.character(Repertoire::Ascii)});
  Ref rec = g.rec_placeholder();
  g.seal_rec(rec, r2);

  CanonIndex strict(CanonOptions::strict());
  auto ids = strict.intern(g);
  EXPECT_NE(ids[rec], kNoCanon);
  EXPECT_NE(ids[rec], ids[r2])
      << "strict ids must distinguish a µ-binder from its body";
}

TEST(CanonIndex, DegenerateNodesGetNoCanon) {
  Graph g;
  Ref ok = g.integer(0, 1);
  Ref unsealed = g.rec_placeholder();
  Ref holder = g.record({unsealed, g.integer(0, 1)});

  CanonIndex idx;
  auto ids = idx.intern(g);
  EXPECT_NE(ids[ok], kNoCanon);
  EXPECT_EQ(ids[unsealed], kNoCanon) << "unsealed rec is degenerate";
  EXPECT_EQ(ids[holder], kNoCanon) << "degeneracy is contagious upward";
}

TEST(CanonIndex, IdsAreStableAcrossLaterInterns) {
  CanonIndex idx;
  Graph ga;
  Ref a = ga.record({ga.integer(0, 10), ga.real(24, 8)});
  auto ia = idx.intern(ga);
  CanonId a_id = ia[a];

  // Interning more graphs — equivalent or novel — never changes a's id.
  Graph gb;
  Ref b = gb.record({gb.real(24, 8), gb.integer(0, 10)});  // iso-equal
  Graph gc;
  Ref c = gc.choice({gc.integer(0, 10), gc.unit()});  // novel
  auto ib = idx.intern(gb);
  auto ic = idx.intern(gc);
  EXPECT_EQ(ib[b], a_id);
  EXPECT_NE(ic[c], a_id);

  auto ia_again = idx.intern(ga);
  EXPECT_EQ(ia_again[a], a_id);
  EXPECT_EQ(ia_again, ia);
}

TEST(CanonIndex, StableIdsDoNotDependOnQueryOrder) {
  // Digests of classes on a cycle used to depend on which member was
  // digested first, so two processes could key one layout differently.
  Graph g;
  Ref list = g.list_of(g.integer(0, 9));
  for (const CanonOptions& opts : {CanonOptions{}, CanonOptions::strict()}) {
    CanonIndex a(opts), b(opts);
    auto ia = a.intern(g);
    auto ib = b.intern(g);
    std::vector<StableId> forward, backward(g.size());
    for (Ref r = 0; r < g.size(); ++r) forward.push_back(a.stable_id(ia[r]));
    for (Ref r = g.size(); r-- > 0;) backward[r] = b.stable_id(ib[r]);
    for (Ref r = 0; r < g.size(); ++r) {
      EXPECT_TRUE(forward[r] == backward[r]) << "ref " << r;
    }
    EXPECT_FALSE(forward[list].is_null());
  }
}

TEST(CanonIndex, IdsForMemoDoesNotOutliveItsGraph) {
  // A graph destroyed and rebuilt at the same address, with the same size
  // and version, used to be served the destroyed graph's memoized ids.
  CanonIndex idx;
  std::optional<Graph> g;
  g.emplace();
  Ref first_ref = g->integer(0, 1);
  auto first = idx.ids_for(*g);
  g.reset();
  g.emplace();
  Ref second_ref = g->integer(0, 2);
  ASSERT_EQ(first_ref, second_ref);
  auto second = idx.ids_for(*g);
  EXPECT_NE((*second)[second_ref], (*first)[first_ref])
      << "Integer[0..2] must not inherit Integer[0..1]'s id";
  EXPECT_EQ(idx.classes(), 2u);
}

TEST(CanonIndex, IdsForKeepsOnlyTheLatestSnapshot) {
  CanonIndex idx;
  Graph g;
  (void)g.integer(0, 1);
  auto old = idx.ids_for(g);
  (void)g.real(24, 8);
  auto now = idx.ids_for(g);
  EXPECT_NE(old.get(), now.get());
  EXPECT_EQ(old.use_count(), 1) << "the memo must drop a superseded snapshot";
  EXPECT_EQ(idx.ids_for(g), now);
}

// ---- suffix interning --------------------------------------------------------

// The declaration chain of the batch-scaling workload: NodeK points at
// Node(K-1) and Node(K/2), so each declaration lowers on top of the ones
// before it. With `recursive`, NodeK also points at itself, so every
// declaration lowers to a new µ-type.
std::string chain_module(int n, bool java, bool recursive = false) {
  std::string src;
  for (int k = 0; k < n; ++k) {
    src += (java ? "public class Node" : "class Node") + std::to_string(k) +
           " {\n";
    if (!java) src += "public:\n";
    src += "  int kind;\n  int line;\n  float weight;\n";
    if (recursive) {
      src += "  Node" + std::to_string(k) + (java ? " next;\n" : " *next;\n");
    }
    if (k > 0) {
      src += "  Node" + std::to_string(k - 1) + (java ? " prev;\n" : " *prev;\n");
      src += "  Node" + std::to_string(k / 2) + (java ? " owner;\n" : " *owner;\n");
    }
    src += "  int method0(int a);\n  float method1(int a, float b);\n";
    src += "}";
    src += (java ? "\n" : ";\n");
  }
  return src;
}

// Appends `count` random nodes that refer only to existing nodes. Recursive
// types are allocated and sealed within the call, so the graph grows
// append-only, as lowering grows it.
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
      case 8: {  // µX.Record(τ, Choice(Unit, X))
        Ref rec = g.rec_placeholder();
        Ref tail = g.choice({g.unit(), g.var(rec)});
        g.seal_rec(rec, g.record({pick(), tail}));
        break;
      }
      default: {  // unproductive µX.X: degenerate, and contagious upward
        Ref rec = g.rec_placeholder();
        g.seal_rec(rec, g.var(rec));
        break;
      }
    }
  }
}

Graph copy_of(const Graph& g) {
  Graph c;
  for (Ref r = 0; r < g.size(); ++r) (void)c.add_node(g.at(r));
  return c;
}

std::vector<CanonOptions> test_options() {
  CanonOptions units;
  units.unit_elimination = true;
  return {CanonOptions{}, CanonOptions::strict(), units};
}

// `ids` (from `idx`) must induce the same partition of g's refs as a fresh
// index's full intern, with the same StableId for every node.
void expect_matches_fresh(CanonIndex& idx, const std::vector<CanonId>& ids,
                          const Graph& g) {
  CanonIndex fresh(idx.options());
  const std::vector<CanonId> want = fresh.intern(g);
  ASSERT_EQ(ids.size(), want.size());
  std::unordered_map<CanonId, CanonId> fwd, back;
  for (Ref r = 0; r < g.size(); ++r) {
    ASSERT_EQ(ids[r] == kNoCanon, want[r] == kNoCanon) << "ref " << r;
    if (want[r] == kNoCanon) continue;
    ASSERT_EQ(fwd.emplace(ids[r], want[r]).first->second, want[r])
        << "ref " << r << " shares a class a full intern splits";
    ASSERT_EQ(back.emplace(want[r], ids[r]).first->second, ids[r])
        << "ref " << r << " is split from a class a full intern shares";
    ASSERT_TRUE(idx.stable_id(ids[r]) == fresh.stable_id(want[r]))
        << "ref " << r;
  }
}

TEST(CanonIndexSuffix, LoweringDeclarationsOneAtATimeMatchesFullIntern) {
  const int n = 50;
  DiagnosticEngine diags;
  stype::Module cm = cfront::parse_c(chain_module(n, false), "e.hpp", diags);
  stype::Module jm = javasrc::parse_java(chain_module(n, true), "E.java", diags);
  ASSERT_FALSE(diags.has_errors()) << diags.summary();
  for (const CanonOptions& opts : test_options()) {
    Graph gc, gj;
    lower::LowerEngine ce(cm, gc, diags), je(jm, gj, diags);
    CanonIndex inc(opts);
    for (int k = 0; k < n; ++k) {
      const std::string name = "Node" + std::to_string(k);
      ASSERT_NE(ce.lower_decl(name), kNullRef);
      ASSERT_NE(je.lower_decl(name), kNullRef);
      const CanonStats before = inc.stats();
      const size_t placed = inc.interned_nodes();
      auto ic = inc.ids_for(gc);
      auto ij = inc.ids_for(gj);
      expect_matches_fresh(inc, *ic, gc);
      expect_matches_fresh(inc, *ij, gj);
      // Every node is copied once: the arena grows with the graphs, not
      // with the number of interns.
      ASSERT_EQ(inc.interned_nodes(), gc.size() + gj.size()) << name;
      // Work pin: growth is acyclic, so every new structural node is
      // classified by one signature lookup, nothing is refined, and no
      // old node is classified again.
      const CanonStats after = inc.stats();
      const uint64_t added = inc.interned_nodes() - placed;
      const uint64_t looked_up = after.looked_up - before.looked_up;
      EXPECT_EQ(after.refinements, 0u) << name;
      EXPECT_GT(looked_up, 0u) << name;
      EXPECT_LE(looked_up, added) << name;
      if (opts == CanonOptions::strict()) {
        // No node is transparent under strict options.
        EXPECT_EQ(looked_up, added) << name;
      }
    }
  }
}

TEST(CanonIndexSuffix, RandomGrowthMatchesFullIntern) {
  for (const CanonOptions& opts : test_options()) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      Rng rng(seed);
      Graph ga, gb;
      CanonIndex inc(opts);
      CanonIndex twin(opts);
      for (int step = 0; step < 12; ++step) {
        grow_random(ga, rng, static_cast<int>(rng.range(1, 12)));
        grow_random(gb, rng, static_cast<int>(rng.range(1, 12)));
        auto ia = inc.ids_for(ga);
        auto ib = inc.ids_for(gb);
        expect_matches_fresh(inc, *ia, ga);
        expect_matches_fresh(inc, *ib, gb);
        ASSERT_EQ(inc.interned_nodes(), ga.size() + gb.size());

        // Within one index, suffix ids are exactly the ids a full copy of
        // the same graph is assigned.
        auto suffix = twin.intern(ga);
        EXPECT_EQ(suffix, twin.intern(copy_of(ga)));
      }
    }
  }
}

TEST(CanonIndexSuffix, SealBelowPrefixForcesFullReintern) {
  for (const CanonOptions& opts : test_options()) {
    Graph g;
    Ref rec = g.rec_placeholder();
    Ref holder = g.record({rec, g.integer(0, 1)});
    CanonIndex idx(opts);
    auto before = idx.intern(g);
    EXPECT_EQ(before[rec], kNoCanon) << "unsealed";
    EXPECT_EQ(before[holder], kNoCanon);
    const size_t placed = idx.interned_nodes();

    Ref tail = g.choice({g.unit(), g.var(rec)});
    g.seal_rec(rec, g.record({g.integer(0, 7), tail}));
    auto ids = idx.ids_for(g);
    EXPECT_NE((*ids)[rec], kNoCanon);
    EXPECT_NE((*ids)[holder], kNoCanon);
    expect_matches_fresh(idx, *ids, g);
    EXPECT_EQ(idx.interned_nodes(), placed + g.size())
        << "an edit below the prefix re-copies the whole graph";
  }
}

TEST(CanonIndexSuffix, AtMutBelowPrefixForcesFullReintern) {
  Graph g;
  Ref r = g.integer(0, 10);
  (void)g.record({r, r});
  CanonIndex idx;
  auto before = idx.intern(g);
  const size_t placed = idx.interned_nodes();

  g.at_mut(r).hi = 99;
  Ref same_as_old = g.integer(0, 10);
  auto ids = idx.ids_for(g);
  EXPECT_NE((*ids)[r], before[r]);
  EXPECT_EQ((*ids)[same_as_old], before[r]) << "ids handed out stay stable";
  expect_matches_fresh(idx, *ids, g);
  EXPECT_EQ(idx.interned_nodes(), placed + g.size());
}

TEST(CanonIndexSuffix, MovedToGraphKeepsPlacementMovedFromStartsOver) {
  CanonIndex idx;
  Graph a;
  Ref x = a.integer(0, 1);
  (void)a.record({x, a.character(Repertoire::Ascii)});
  const uint64_t uid = a.uid();
  auto ids_a = idx.ids_for(a);
  const size_t placed = idx.interned_nodes();

  Graph b(std::move(a));
  EXPECT_EQ(b.uid(), uid);
  EXPECT_EQ(idx.ids_for(b), ids_a) << "same graph state, same snapshot";
  (void)b.list_of(x);
  auto ids_b = idx.ids_for(b);
  EXPECT_EQ(idx.interned_nodes(), placed + (b.size() - ids_a->size()))
      << "only the moved-to graph's new suffix is copied";
  expect_matches_fresh(idx, *ids_b, b);

  // The moved-from graph is empty under a new identity; regrown to the
  // same size with different content, it reuses neither b's placement
  // nor b's snapshot.
  EXPECT_NE(a.uid(), uid);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  Ref y = a.integer(0, 2);
  (void)a.record({y, a.character(Repertoire::Ascii)});
  const size_t before_regrown = idx.interned_nodes();
  auto ids_regrown = idx.ids_for(a);
  EXPECT_EQ(idx.interned_nodes(), before_regrown + a.size());
  EXPECT_NE((*ids_regrown)[y], (*ids_a)[x]);
  expect_matches_fresh(idx, *ids_regrown, a);

  // Move assignment hands the identity over the same way.
  Graph c;
  c = std::move(b);
  EXPECT_EQ(c.uid(), uid);
  EXPECT_EQ(idx.ids_for(c), ids_b);
  EXPECT_NE(b.uid(), uid);  // NOLINT(bugprone-use-after-move)
}

TEST(CanonIndexSuffix, ConcurrentIdsForOfGrownGraphShareOneSnapshot) {
  constexpr int kThreads = 6;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Graph g;
    grow_random(g, rng, 40);
    CanonIndex idx;
    (void)idx.ids_for(g);
    grow_random(g, rng, 40);

    std::vector<std::shared_ptr<const std::vector<CanonId>>> got(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        got[static_cast<size_t>(t)] = idx.ids_for(g);
      });
    }
    for (auto& th : threads) th.join();
    for (const auto& ids : got) EXPECT_EQ(ids.get(), got[0].get());
    expect_matches_fresh(idx, *got[0], g);
    EXPECT_EQ(idx.interned_nodes(), g.size());
  }
}

// ---- new cycles ---------------------------------------------------------------

// µX.Record(leaf, Choice(Unit, X)), allocated and sealed in one go.
Ref mu_list(Graph& g, Ref leaf) {
  Ref rec = g.rec_placeholder();
  g.seal_rec(rec, g.record({leaf, g.choice({g.unit(), g.var(rec)})}));
  return rec;
}

// A mutually recursive pair: A = µ.Record(la, Choice(Unit, B)) and
// B = µ.Record(lb, Choice(Unit, A)). Returns {A, B}.
std::pair<Ref, Ref> mu_pair(Graph& g, Ref la, Ref lb) {
  Ref a = g.rec_placeholder();
  Ref b = g.rec_placeholder();
  g.seal_rec(b, g.record({lb, g.choice({g.unit(), g.var(a)})}));
  g.seal_rec(a, g.record({la, g.choice({g.unit(), g.var(b)})}));
  return {a, b};
}

TEST(CanonIndexCycles, NewCycleBisimilarToAnInternedOneJoinsItsClass) {
  for (const CanonOptions& opts : test_options()) {
    Graph g;
    Ref t = mu_list(g, g.integer(0, 9));
    CanonIndex idx(opts);
    const CanonId want = idx.intern(g)[t];
    ASSERT_NE(want, kNoCanon);
    const size_t classes = idx.classes();
    const CanonStats before = idx.stats();

    // A second copy of the same µ-type, and a mutually recursive pair that
    // unfolds to it: both are new cycles bisimilar to `t`.
    Ref copy = mu_list(g, g.integer(0, 9));
    auto [a, b] = mu_pair(g, g.integer(0, 9), g.integer(0, 9));
    auto ids = idx.ids_for(g);
    EXPECT_EQ((*ids)[copy], want);
    EXPECT_EQ((*ids)[a], want);
    EXPECT_EQ((*ids)[b], want);
    EXPECT_EQ(idx.classes(), classes) << "no class was minted";
    EXPECT_EQ(idx.stats().refinements, before.refinements + 1)
        << "three new cycles, one refinement";
    expect_matches_fresh(idx, *ids, g);
  }
}

TEST(CanonIndexCycles, DistinctNewCyclesGetFreshIds) {
  for (const CanonOptions& opts : test_options()) {
    Graph g;
    Ref t = mu_list(g, g.integer(0, 9));
    CanonIndex idx(opts);
    (void)idx.intern(g);
    const auto old_classes = static_cast<CanonId>(idx.classes());
    const CanonStats before = idx.stats();

    Ref other = mu_list(g, g.real(24, 8));
    auto [a, b] = mu_pair(g, g.integer(0, 9), g.character(Repertoire::Ascii));
    auto ids = idx.ids_for(g);
    for (Ref r : {other, a, b}) {
      ASSERT_NE((*ids)[r], kNoCanon);
      EXPECT_GE((*ids)[r], old_classes) << "ref " << r << " got an old id";
    }
    EXPECT_NE((*ids)[a], (*ids)[b]) << "the pair's halves differ";
    EXPECT_NE((*ids)[other], (*ids)[t]);
    EXPECT_EQ(idx.stats().refinements, before.refinements + 1);
    expect_matches_fresh(idx, *ids, g);

    // Interned again from another graph, the same shapes join those ids.
    Graph h;
    Ref other2 = mu_list(h, h.real(24, 8));
    auto [a2, b2] = mu_pair(h, h.integer(0, 9), h.character(Repertoire::Ascii));
    const size_t classes = idx.classes();
    auto hid = idx.intern(h);
    EXPECT_EQ(hid[other2], (*ids)[other]);
    EXPECT_EQ(hid[a2], (*ids)[a]);
    EXPECT_EQ(hid[b2], (*ids)[b]);
    EXPECT_EQ(idx.classes(), classes);
    expect_matches_fresh(idx, hid, h);
  }
}

TEST(CanonIndexCycles, RecursiveDeclarationsRefineAtMostOncePerIntern) {
  const int n = 30;
  DiagnosticEngine diags;
  stype::Module cm =
      cfront::parse_c(chain_module(n, false, true), "r.hpp", diags);
  stype::Module jm =
      javasrc::parse_java(chain_module(n, true, true), "R.java", diags);
  ASSERT_FALSE(diags.has_errors()) << diags.summary();
  for (const CanonOptions& opts : test_options()) {
    // One declaration per intern: each adds a new cycle and refines once.
    Graph gc, gj;
    lower::LowerEngine ce(cm, gc, diags), je(jm, gj, diags);
    CanonIndex inc(opts);
    for (int k = 0; k < n; ++k) {
      const std::string name = "Node" + std::to_string(k);
      ASSERT_NE(ce.lower_decl(name), kNullRef);
      ASSERT_NE(je.lower_decl(name), kNullRef);
      const uint64_t before = inc.stats().refinements;
      auto ic = inc.ids_for(gc);
      expect_matches_fresh(inc, *ic, gc);
      EXPECT_EQ(inc.stats().refinements, before + 1) << name;
      auto ij = inc.ids_for(gj);
      expect_matches_fresh(inc, *ij, gj);
      EXPECT_LE(inc.stats().refinements, before + 2) << name;
    }
    // The whole module in one intern: n new cycles, one refinement.
    CanonIndex whole(opts);
    (void)whole.intern(gc);
    EXPECT_EQ(whole.stats().refinements, 1u);
  }
}

}  // namespace
}  // namespace mbird::mtype
