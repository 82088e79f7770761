#include "compare/compare.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <tuple>

#include "compare/crosscache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mbird::compare {

using mtype::CanonId;
using mtype::FlatChild;
using mtype::Graph;
using mtype::MKind;
using mtype::Path;
using mtype::Ref;
using plan::ArmMove;
using plan::FieldMove;
using plan::PKind;
using plan::PlanNode;
using plan::PlanRef;
using plan::RecShape;

namespace {

// Comparer instruments (DESIGN.md §4h). Counters are unconditional (one
// relaxed add per event, and every event already costs orders of
// magnitude more comparer work); the run-duration histogram is gated by
// obs::metrics_on() inside ScopedTimer.
struct CmpMetrics {
  obs::Counter& runs = obs::counter("compare.runs");
  obs::Counter& steps = obs::counter("compare.steps");
  obs::Counter& candidates_ordered = obs::counter("compare.candidates_ordered");
  obs::Counter& plan_extracts = obs::counter("compare.plan_extracts");
  obs::Counter& plan_splices = obs::counter("compare.plan_splices");
  obs::Histogram& run_ns = obs::histogram("compare.run_ns");
};
CmpMetrics& cmp_metrics() {
  static CmpMetrics m;
  return m;
}

int repertoire_rank(stype::Repertoire r) {
  switch (r) {
    case stype::Repertoire::Ascii: return 0;
    case stype::Repertoire::Latin1: return 1;
    case stype::Repertoire::Ucs2: return 2;
    case stype::Repertoire::Unicode: return 3;
  }
  return 3;
}

}  // namespace

// Not in the anonymous namespace: Session::Impl (an external-linkage type)
// holds a Cmp, and -Wsubobject-linkage would flag an internal-linkage
// member there.
class Cmp {
 public:
  Cmp(const Graph& ga, const Graph& gb, const Options& opts)
      : ga_(ga), gb_(gb), opts_(opts),
        plan_(opts.cross != nullptr ? plan::PlanGraph(opts.cross->arena())
                                    : plan::PlanGraph()) {
    // Phase 1 of a compare: structure hashing + canonical-id interning.
    obs::Span span("compare.canon");
    if (opts_.use_hash_prune && opts_.mode == Mode::Equivalence) {
      // Borrow caller-provided hashes when they plausibly belong to these
      // graphs (full coverage); undersized / oversized vectors are ignored
      // and recomputed locally rather than read out of bounds.
      if (opts_.left_hashes != nullptr &&
          opts_.left_hashes->size() == ga.size()) {
        hash_a_ = opts_.left_hashes;
      } else {
        owned_hash_a_ = mtype::structure_hashes(ga_, opts_.unit_elimination);
        hash_a_ = &owned_hash_a_;
      }
      if (opts_.right_hashes != nullptr &&
          opts_.right_hashes->size() == gb.size()) {
        hash_b_ = opts_.right_hashes;
      } else {
        owned_hash_b_ = mtype::structure_hashes(gb_, opts_.unit_elimination);
        hash_b_ = &owned_hash_b_;
      }
    }
    if (opts_.cross != nullptr) {
      sid_a_ = opts_.cross->strict_ids(ga_);
      sid_b_ = opts_.cross->strict_ids(gb_);
      iso_a_ = opts_.cross->iso_ids(ga_, opts_);
      iso_b_ = opts_.cross->iso_ids(gb_, opts_);
      fp_ = CrossCache::fingerprint(opts_);
      ver_a_ = ga_.version();
      ver_b_ = gb_.version();
    }
  }

  Result run(Ref a, Ref b) {
    // Phase 2/3: the pairwise walk (candidate ordering and plan
    // extraction happen inside and report through cmp_metrics()).
    obs::Span span("compare.walk");
    Result result;
    result.root = visit(&ga_, a, &gb_, b, 0);
    result.ok = result.root != plan::kNullPlan;
    result.plan = std::move(plan_);
    result.mismatch = best_;
    result.steps = steps_;
    cmp_metrics().steps.add(result.steps);
    if (span.recording()) {
      span.note("steps", static_cast<uint64_t>(result.steps));
      span.note("ok", result.ok ? "true" : "false");
    }
    if (!result.ok && !result.mismatch.valid) {
      result.mismatch.valid = true;
      result.mismatch.reason = "no match found";
    }
    return result;
  }

  /// Session mode: keep the plan graph and the pair memo across calls.
  Session::SessionResult run_shared(Ref a, Ref b) {
    obs::Span span("compare.walk");
    best_ = Mismatch{};
    size_t steps_before = steps_;
    Session::SessionResult result;
    result.root = visit(&ga_, a, &gb_, b, 0);
    result.ok = result.root != plan::kNullPlan;
    result.mismatch = best_;
    result.steps = steps_ - steps_before;
    cmp_metrics().steps.add(result.steps);
    if (span.recording()) {
      span.note("steps", static_cast<uint64_t>(result.steps));
      span.note("ok", result.ok ? "true" : "false");
    }
    if (!result.ok && !result.mismatch.valid) {
      result.mismatch.valid = true;
      result.mismatch.reason = "no match found";
    }
    return result;
  }

  [[nodiscard]] const plan::PlanGraph& shared_plans() const { return plan_; }

 private:
  // A trail/memo key. `left_is_a` distinguishes the two orientations that
  // arise from port contravariance (the same pair of refs can be compared
  // in both directions).
  using Key = std::tuple<bool, Ref, Ref>;

  // Rollback truncates the plan's local layer only: proofs already
  // published to the cache's arena are self-contained and stay valid.
  struct TrailSaver {
    Cmp& c;
    size_t trail_mark;
    size_t plan_mark;
    explicit TrailSaver(Cmp& cmp)
        : c(cmp), trail_mark(cmp.trail_stack_.size()),
          plan_mark(cmp.plan_.checkpoint()) {}
    void rollback() {
      while (c.trail_stack_.size() > trail_mark) {
        c.trail_.erase(c.trail_stack_.back());
        c.trail_stack_.pop_back();
      }
      c.plan_.rollback(plan_mark);
    }
  };

  void note_mismatch(const Graph* gx, Ref x, const Graph* gy, Ref y, int depth,
                     const std::string& reason) {
    if (best_.valid && best_.depth >= depth) return;
    best_.valid = true;
    best_.depth = depth;
    best_.left = mtype::print(*gx, x);
    best_.right = mtype::print(*gy, y);
    best_.reason = reason;
  }

  uint64_t hash_of(const Graph* g, Ref r) const {
    return g == &ga_ ? (*hash_a_)[r] : (*hash_b_)[r];
  }

  // hash_a_/hash_b_ are set iff pruning applies (see ctor).
  bool pruning() const { return hash_a_ != nullptr; }

  // ---- cross-pair cache plumbing -------------------------------------------

  CanonId sid_of(const Graph* g, Ref r) const {
    return g == &ga_ ? (*sid_a_)[r] : (*sid_b_)[r];
  }
  CanonId iso_of(const Graph* g, Ref r) const {
    return g == &ga_ ? (*iso_a_)[r] : (*iso_b_)[r];
  }

  /// Strict-id memo key for the (gx:x, gy:y) pair, or nullopt when the
  /// cache is off or either side is degenerate (kNoCanon identifies
  /// nothing). The key is oriented — port contravariance flips gx/gy, and
  /// subtype verdicts are direction-sensitive.
  std::optional<CrossCache::Key> cross_key(const Graph* gx, Ref x,
                                           const Graph* gy, Ref y) const {
    if (opts_.cross == nullptr) return std::nullopt;
    CanonId cx = sid_of(gx, x);
    CanonId cy = sid_of(gy, y);
    if (cx == mtype::kNoCanon || cy == mtype::kNoCanon) return std::nullopt;
    return CrossCache::Key{cx, cy, fp_};
  }

  // ---- flattening helpers respecting the rule toggles ----------------------

  std::vector<FlatChild> flat_record(const Graph& g, Ref r) const {
    if (opts_.associative) {
      return mtype::flatten_record(g, r, opts_.unit_elimination);
    }
    std::vector<FlatChild> out;
    const auto& n = g.at(r);
    for (uint32_t i = 0; i < n.children.size(); ++i) {
      if (opts_.unit_elimination &&
          g.at(n.children[i]).kind == MKind::Unit) {
        continue;
      }
      out.push_back({n.children[i], Path{i}});
    }
    return out;
  }

  std::vector<FlatChild> flat_choice(const Graph& g, Ref r) const {
    if (opts_.associative) return mtype::flatten_choice(g, r);
    std::vector<FlatChild> out;
    const auto& n = g.at(r);
    for (uint32_t i = 0; i < n.children.size(); ++i) {
      out.push_back({n.children[i], Path{i}});
    }
    return out;
  }

  // Builds the target skeleton whose leaf numbering matches flat_record's
  // traversal order. Nested records expand only under associativity
  // (otherwise they are opaque leaves handled by child plans).
  // Skeleton matching direct_children(): each (non-unit) child is a leaf.
  RecShape build_direct_shape(const Graph& g, Ref r) const {
    RecShape s;
    s.kind = RecShape::Kind::Record;
    uint32_t counter = 0;
    for (Ref c : g.at(r).children) {
      if (opts_.unit_elimination && g.at(c).kind == MKind::Unit) {
        RecShape u;
        u.kind = RecShape::Kind::Unit;
        s.kids.push_back(u);
      } else {
        RecShape leaf;
        leaf.kind = RecShape::Kind::Leaf;
        leaf.leaf_index = counter++;
        s.kids.push_back(leaf);
      }
    }
    return s;
  }

  RecShape build_shape(const Graph& g, Ref r, uint32_t& counter) const {
    RecShape s;
    const auto& n = g.at(r);
    if (n.kind == MKind::Record) {
      s.kind = RecShape::Kind::Record;
      for (Ref c : n.children) {
        const auto& cn = g.at(c);
        if (cn.kind == MKind::Record && opts_.associative) {
          s.kids.push_back(build_shape(g, c, counter));
        } else if (cn.kind == MKind::Unit && opts_.unit_elimination) {
          RecShape u;
          u.kind = RecShape::Kind::Unit;
          s.kids.push_back(u);
        } else {
          RecShape leaf;
          leaf.kind = RecShape::Kind::Leaf;
          leaf.leaf_index = counter++;
          s.kids.push_back(leaf);
        }
      }
      return s;
    }
    s.kind = RecShape::Kind::Leaf;
    s.leaf_index = counter++;
    return s;
  }

  // ---- the core -------------------------------------------------------------

  PlanRef visit(const Graph* gx, Ref x, const Graph* gy, Ref y, int depth) {
    if (++steps_ > opts_.max_steps) {
      budget_hit_ = true;
      note_mismatch(gx, x, gy, y, depth, "comparison budget exceeded");
      return plan::kNullPlan;
    }
    x = mtype::skip_var(*gx, x);
    y = mtype::skip_var(*gy, y);

    Key key{gx == &ga_, x, y};
    // A trail entry may name a local node since published to the arena;
    // forward() hands out the shared node instead.
    if (auto it = trail_.find(key); it != trail_.end()) {
      return plan_.forward(it->second);
    }

    // Cross-pair cache: verdicts persisted by earlier Cmp instances (this
    // batch, other sessions, or this one) keyed on strict canonical ids. A
    // hit is the proof's arena ref — nothing is copied into plan_.
    // Port-bearing proofs embed mtype refs, so their binding is the
    // session's (ga_, gb_) pair — the refs' in_left flags are interpreted
    // relative to the graph pair at consumption time.
    auto ck = cross_key(gx, x, gy, y);
    if (ck) {
      if (auto hit = opts_.cross->find(*ck, &ga_, ver_a_, &gb_, ver_b_)) {
        if (!hit->ok) {
          note_mismatch(gx, x, gy, y, depth, "mismatch (cached verdict)");
          return plan::kNullPlan;
        }
        cmp_metrics().plan_splices.add();
        if (trail_.emplace(key, hit->root).second) trail_stack_.push_back(key);
        return hit->root;
      }
    }

    PlanRef result = visit_uncached(gx, x, gy, y, depth, key);
    if (result != plan::kNullPlan) {
      if (ck && !opts_.cross->has(*ck, &ga_, ver_a_, &gb_, ver_b_)) {
        // extract() refuses plans referencing a mid-descent knot-tying
        // placeholder: those successes lean on an undischarged coinductive
        // assumption and are not self-contained proofs. A published proof
        // moves to the arena, and parents refer to it there.
        if (auto v = CrossCache::extract(plan_, result, &*ck)) {
          cmp_metrics().plan_extracts.add();
          if (v->has_port) {
            v->bind_left = &ga_;
            v->bind_right = &gb_;
            v->ver_left = ver_a_;
            v->ver_right = ver_b_;
          }
          result = v->root;
          opts_.cross->insert(*ck, std::move(v));
        }
      }
      // Memoize successful pairs (rollback-aware via the trail stack):
      // shared sub-structure in DAG-shaped graphs is compared once, not
      // once per occurrence. Recursive pairs self-register in
      // visit_recursive before descending.
      if (trail_.emplace(key, result).second) trail_stack_.push_back(key);
    } else if (ck && !budget_hit_) {
      // Definitive structural failure. Trail assumptions only ever enable
      // successes, so failure under any trail is failure outright — but a
      // budget trip anywhere this run poisons failures (they may reflect
      // exhaustion, not structure), hence the budget_hit_ gate.
      opts_.cross->insert(*ck, std::make_shared<CrossCache::Variant>());
    }
    return result;
  }

  PlanRef visit_uncached(const Graph* gx, Ref x, const Graph* gy, Ref y,
                         int depth, const Key& key) {
    const auto& nx = gx->at(x);
    const auto& ny = gy->at(y);

    if (nx.kind == MKind::Rec || ny.kind == MKind::Rec) {
      return visit_recursive(gx, x, gy, y, depth, key);
    }

    // Unit-elimination bridging: a Record that flattens to exactly one
    // non-unit child matches that child's type.
    if (opts_.unit_elimination && opts_.associative) {
      if (nx.kind == MKind::Record && ny.kind != MKind::Record) {
        return visit_extract(gx, x, gy, y, depth);
      }
      if (ny.kind == MKind::Record && nx.kind != MKind::Record) {
        return visit_wrap(gx, x, gy, y, depth);
      }
    }

    if (nx.kind != ny.kind) {
      note_mismatch(gx, x, gy, y, depth,
                    std::string("kind mismatch: ") + to_string(nx.kind) +
                        " vs " + to_string(ny.kind));
      return plan::kNullPlan;
    }

    switch (nx.kind) {
      case MKind::Unit: {
        PlanNode n;
        n.kind = PKind::UnitMake;
        return plan_.add(std::move(n));
      }
      case MKind::Int: {
        bool ok = opts_.mode == Mode::Equivalence
                      ? (nx.lo == ny.lo && nx.hi == ny.hi)
                      : (nx.lo >= ny.lo && nx.hi <= ny.hi);
        if (!ok) {
          note_mismatch(gx, x, gy, y, depth, "integer range mismatch");
          return plan::kNullPlan;
        }
        PlanNode n;
        n.kind = PKind::IntCopy;
        n.lo = ny.lo;
        n.hi = ny.hi;
        n.note = nx.name.empty() ? ny.name : nx.name;
        return plan_.add(std::move(n));
      }
      case MKind::Char: {
        int rx = repertoire_rank(nx.repertoire);
        int ry = repertoire_rank(ny.repertoire);
        bool ok = opts_.mode == Mode::Equivalence ? rx == ry : rx <= ry;
        if (!ok) {
          note_mismatch(gx, x, gy, y, depth, "character repertoire mismatch");
          return plan::kNullPlan;
        }
        PlanNode n;
        n.kind = PKind::CharCopy;
        return plan_.add(std::move(n));
      }
      case MKind::Real: {
        bool ok = opts_.mode == Mode::Equivalence
                      ? (nx.mantissa_bits == ny.mantissa_bits &&
                         nx.exponent_bits == ny.exponent_bits)
                      : (nx.mantissa_bits <= ny.mantissa_bits &&
                         nx.exponent_bits <= ny.exponent_bits);
        if (!ok) {
          note_mismatch(gx, x, gy, y, depth, "real precision mismatch");
          return plan::kNullPlan;
        }
        PlanNode n;
        n.kind = PKind::RealCopy;
        return plan_.add(std::move(n));
      }
      case MKind::Port: {
        // Contravariant: messages sent to the converted port must convert
        // back to the original message shape, so the inner plan runs y->x.
        TrailSaver saver(*this);
        PlanRef inner = visit(gy, ny.body(), gx, nx.body(), depth + 1);
        if (inner == plan::kNullPlan) {
          saver.rollback();
          note_mismatch(gx, x, gy, y, depth, "port message mismatch");
          return plan::kNullPlan;
        }
        PlanNode n;
        n.kind = PKind::PortMap;
        n.inner = inner;
        n.note = nx.name.empty() ? ny.name : nx.name;
        n.port_dst_msg = ny.body();
        n.port_dst_in_left = gy == &ga_;
        n.port_src_msg = nx.body();
        n.port_src_in_left = gx == &ga_;
        return plan_.add(std::move(n));
      }
      case MKind::Record: return visit_record(gx, x, gy, y, depth);
      case MKind::Choice: return visit_choice(gx, x, gy, y, depth);
      case MKind::Rec:
      case MKind::Var: break;  // handled above
    }
    note_mismatch(gx, x, gy, y, depth, "unhandled node kind");
    return plan::kNullPlan;
  }

  PlanRef visit_recursive(const Graph* gx, Ref x, const Graph* gy, Ref y,
                          int depth, const Key& key) {
    const auto& nx = gx->at(x);
    const auto& ny = gy->at(y);

    // Fast path: both sides are canonical single-element lists.
    auto lx = mtype::match_list_shape(*gx, x);
    auto ly = mtype::match_list_shape(*gy, y);
    if (lx && ly && lx->size() == 1 && ly->size() == 1) {
      PlanNode placeholder;
      placeholder.kind = PKind::ListMap;
      placeholder.note = nx.name.empty() ? ny.name : nx.name;
      PlanRef self = plan_.add(std::move(placeholder));
      trail_.emplace(key, self);
      trail_stack_.push_back(key);

      TrailSaver saver(*this);
      PlanRef elem = visit(gx, (*lx)[0], gy, (*ly)[0], depth + 1);
      if (elem == plan::kNullPlan) {
        saver.rollback();
        trail_.erase(key);
        std::erase(trail_stack_, key);
        note_mismatch(gx, x, gy, y, depth, "list element mismatch");
        return plan::kNullPlan;
      }
      plan_.at_mut(self).inner = elem;
      return self;
    }

    // General unfolding with a knot-tying alias.
    PlanNode alias;
    alias.kind = PKind::Alias;
    alias.note = nx.name.empty() ? ny.name : nx.name;
    PlanRef self = plan_.add(std::move(alias));
    trail_.emplace(key, self);
    trail_stack_.push_back(key);

    Ref ux = nx.kind == MKind::Rec && nx.body() != mtype::kNullRef ? nx.body() : x;
    Ref uy = ny.kind == MKind::Rec && ny.body() != mtype::kNullRef ? ny.body() : y;

    TrailSaver saver(*this);
    PlanRef body = visit(gx, ux, gy, uy, depth + 1);
    if (body == plan::kNullPlan) {
      saver.rollback();
      trail_.erase(key);
      std::erase(trail_stack_, key);
      return plan::kNullPlan;
    }
    plan_.at_mut(self).inner = body;
    return self;
  }

  PlanRef visit_extract(const Graph* gx, Ref x, const Graph* gy, Ref y,
                        int depth) {
    auto flat = flat_record(*gx, x);
    if (flat.size() != 1) {
      note_mismatch(gx, x, gy, y, depth,
                    "record does not reduce to a single component");
      return plan::kNullPlan;
    }
    TrailSaver saver(*this);
    PlanRef inner = visit(gx, flat[0].ref, gy, y, depth + 1);
    if (inner == plan::kNullPlan) {
      saver.rollback();
      return plan::kNullPlan;
    }
    PlanNode n;
    n.kind = PKind::Extract;
    n.fields.push_back(FieldMove{flat[0].path, {}, inner});
    return plan_.add(std::move(n));
  }

  PlanRef visit_wrap(const Graph* gx, Ref x, const Graph* gy, Ref y, int depth) {
    auto flat = flat_record(*gy, y);
    if (flat.size() != 1) {
      note_mismatch(gx, x, gy, y, depth,
                    "record does not reduce to a single component");
      return plan::kNullPlan;
    }
    TrailSaver saver(*this);
    PlanRef inner = visit(gx, x, gy, flat[0].ref, depth + 1);
    if (inner == plan::kNullPlan) {
      saver.rollback();
      return plan::kNullPlan;
    }
    PlanNode n;
    n.kind = PKind::RecordMap;
    n.fields.push_back(FieldMove{{}, flat[0].path, inner});
    uint32_t counter = 0;
    n.dst_shape = build_shape(*gy, y, counter);
    return plan_.add(std::move(n));
  }

  PlanRef visit_record(const Graph* gx, Ref x, const Graph* gy, Ref y,
                       int depth) {
    // Direct-first strategy: when both sides have the same top-level arity,
    // try matching direct children before flattening. Any direct match is a
    // valid plan, and — crucially — it preserves DAG sharing: flattening a
    // graph with shared sub-records expands it into an exponentially larger
    // tree (paper §5's "highly inter-related classes"). The associative
    // rule still applies in full on the fallback path.
    if (opts_.associative) {
      const auto& nx = gx->at(x);
      const auto& ny = gy->at(y);
      bool x_nested = false, y_nested = false;
      for (Ref c : nx.children) {
        x_nested |= gx->at(c).kind == MKind::Record;
      }
      for (Ref c : ny.children) {
        y_nested |= gy->at(c).kind == MKind::Record;
      }
      if ((x_nested || y_nested) && nx.children.size() == ny.children.size()) {
        TrailSaver saver(*this);
        Mismatch saved_best = best_;
        PlanRef direct = match_record_lists(gx, x, gy, y, depth,
                                            direct_children(*gx, x),
                                            direct_children(*gy, y),
                                            /*flattened=*/false);
        if (direct != plan::kNullPlan) return direct;
        saver.rollback();
        best_ = saved_best;  // the fallback may still succeed
      } else if (!x_nested && !y_nested) {
        // No nesting on either side: flattening is the identity.
        return match_record_lists(gx, x, gy, y, depth, direct_children(*gx, x),
                                  direct_children(*gy, y),
                                  /*flattened=*/false);
      }
    }
    return match_record_lists(gx, x, gy, y, depth, flat_record(*gx, x),
                              flat_record(*gy, y), /*flattened=*/true);
  }

  std::vector<FlatChild> direct_children(const Graph& g, Ref r) const {
    std::vector<FlatChild> out;
    const auto& n = g.at(r);
    for (uint32_t i = 0; i < n.children.size(); ++i) {
      if (opts_.unit_elimination && g.at(n.children[i]).kind == MKind::Unit) {
        continue;
      }
      out.push_back({n.children[i], Path{i}});
    }
    return out;
  }

  PlanRef match_record_lists(const Graph* gx, Ref x, const Graph* gy, Ref y,
                             int depth, std::vector<FlatChild> fx,
                             std::vector<FlatChild> fy, bool flattened) {
    if (fx.size() != fy.size()) {
      note_mismatch(gx, x, gy, y, depth,
                    "record arity mismatch: " + std::to_string(fx.size()) +
                        " vs " + std::to_string(fy.size()));
      return plan::kNullPlan;
    }
    const size_t n = fx.size();
    std::vector<FieldMove> moves(n);
    std::vector<bool> used(n, false);

    // Candidate lists per left child, pruned by structure hash.
    std::vector<std::vector<uint32_t>> cand(n);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t j = 0; j < n; ++j) {
        if (!opts_.commutative && j != i) continue;
        if (pruning() &&
            hash_of(gx, fx[i].ref) != hash_of(gy, fy[j].ref)) {
          continue;
        }
        cand[i].push_back(j);
      }
      if (cand[i].empty()) {
        note_mismatch(gx, fx[i].ref, gy, y, depth,
                      "no structural counterpart for record component");
        return plan::kNullPlan;
      }
      order_by_iso_id(gx, fx[i].ref, gy, fy, cand[i]);
    }
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return cand[a].size() < cand[b].size();
    });

    if (!assign(gx, fx, gy, fy, cand, order, used, moves, 0, depth)) {
      note_mismatch(gx, x, gy, y, depth, "no permutation of record components matches");
      return plan::kNullPlan;
    }

    PlanNode node;
    node.kind = PKind::RecordMap;
    node.note = gx->at(x).name.empty() ? gy->at(y).name : gx->at(x).name;
    // Reorder moves so fields[k] is the k-th *target* leaf (flat order),
    // matching the leaf indices assigned by build_shape.
    std::vector<FieldMove> by_target(n);
    for (size_t i = 0; i < n; ++i) {
      // moves[i] holds dst_path fy[j].path; find j by path equality.
      for (size_t j = 0; j < n; ++j) {
        if (fy[j].path == moves[i].dst_path) {
          by_target[j] = moves[i];
          break;
        }
      }
    }
    node.fields = std::move(by_target);
    uint32_t counter = 0;
    node.dst_shape = flattened ? build_shape(*gy, y, counter)
                               : build_direct_shape(*gy, y);
    return plan_.add(std::move(node));
  }

  /// Candidate-order heuristic: iso-id equality guarantees comparer
  /// equivalence under the active rule toggles, so equal-id targets are
  /// tried first — the backtracking search then usually commits to a
  /// correct assignment immediately. Pure reordering: never drops a
  /// candidate (iso inequality does NOT imply comparer mismatch; see
  /// canon.hpp on the direct-first µ-folding caveat).
  void order_by_iso_id(const Graph* gx, Ref xi, const Graph* gy,
                       const std::vector<FlatChild>& fy,
                       std::vector<uint32_t>& cand) const {
    if (!iso_a_ || cand.size() < 2) return;
    CanonId want = iso_of(gx, xi);
    if (want == mtype::kNoCanon) return;
    cmp_metrics().candidates_ordered.add(cand.size());
    std::stable_partition(cand.begin(), cand.end(), [&](uint32_t j) {
      return iso_of(gy, fy[j].ref) == want;
    });
  }

  bool assign(const Graph* gx, const std::vector<FlatChild>& fx, const Graph* gy,
              const std::vector<FlatChild>& fy,
              const std::vector<std::vector<uint32_t>>& cand,
              const std::vector<uint32_t>& order, std::vector<bool>& used,
              std::vector<FieldMove>& moves, size_t k, int depth) {
    if (k == fx.size()) return true;
    uint32_t i = order[k];
    for (uint32_t j : cand[i]) {
      if (used[j]) continue;
      TrailSaver saver(*this);
      PlanRef op = visit(gx, fx[i].ref, gy, fy[j].ref, depth + 1);
      if (op != plan::kNullPlan) {
        moves[i] = FieldMove{fx[i].path, fy[j].path, op};
        used[j] = true;
        if (assign(gx, fx, gy, fy, cand, order, used, moves, k + 1, depth)) {
          return true;
        }
        used[j] = false;
      }
      saver.rollback();
    }
    return false;
  }

  PlanRef visit_choice(const Graph* gx, Ref x, const Graph* gy, Ref y,
                       int depth) {
    auto fx = flat_choice(*gx, x);
    auto fy = flat_choice(*gy, y);
    if (opts_.mode == Mode::Equivalence && fx.size() != fy.size()) {
      note_mismatch(gx, x, gy, y, depth,
                    "choice arity mismatch: " + std::to_string(fx.size()) +
                        " vs " + std::to_string(fy.size()));
      return plan::kNullPlan;
    }
    if (opts_.mode == Mode::Subtype && fx.size() > fy.size()) {
      note_mismatch(gx, x, gy, y, depth,
                    "subtype choice has more alternatives than supertype");
      return plan::kNullPlan;
    }

    const size_t n = fx.size();
    std::vector<ArmMove> arms(n);
    std::vector<bool> used(fy.size(), false);
    std::vector<std::vector<uint32_t>> cand(n);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t j = 0; j < fy.size(); ++j) {
        if (!opts_.commutative && j != i) continue;
        if (pruning() &&
            hash_of(gx, fx[i].ref) != hash_of(gy, fy[j].ref)) {
          continue;
        }
        cand[i].push_back(j);
      }
      if (cand[i].empty()) {
        note_mismatch(gx, fx[i].ref, gy, y, depth,
                      "no counterpart for choice alternative");
        return plan::kNullPlan;
      }
      order_by_iso_id(gx, fx[i].ref, gy, fy, cand[i]);
    }
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return cand[a].size() < cand[b].size();
    });

    // For equivalence arms must be a bijection (used[] enforced); for
    // subtype two source arms may share a target arm.
    bool injective = opts_.mode == Mode::Equivalence;
    if (!assign_arms(gx, fx, gy, fy, cand, order, used, arms, 0, depth,
                     injective)) {
      note_mismatch(gx, x, gy, y, depth, "no matching of choice alternatives");
      return plan::kNullPlan;
    }

    PlanNode node;
    node.kind = PKind::ChoiceMap;
    node.note = gx->at(x).name.empty() ? gy->at(y).name : gx->at(x).name;
    node.arms = std::move(arms);
    return plan_.add(std::move(node));
  }

  bool assign_arms(const Graph* gx, const std::vector<FlatChild>& fx,
                   const Graph* gy, const std::vector<FlatChild>& fy,
                   const std::vector<std::vector<uint32_t>>& cand,
                   const std::vector<uint32_t>& order, std::vector<bool>& used,
                   std::vector<ArmMove>& arms, size_t k, int depth,
                   bool injective) {
    if (k == fx.size()) return true;
    uint32_t i = order[k];
    for (uint32_t j : cand[i]) {
      if (injective && used[j]) continue;
      TrailSaver saver(*this);
      PlanRef op = visit(gx, fx[i].ref, gy, fy[j].ref, depth + 1);
      if (op != plan::kNullPlan) {
        arms[i] = ArmMove{fx[i].path, fy[j].path, op};
        if (injective) used[j] = true;
        if (assign_arms(gx, fx, gy, fy, cand, order, used, arms, k + 1, depth,
                        injective)) {
          return true;
        }
        if (injective) used[j] = false;
      }
      saver.rollback();
    }
    return false;
  }

  const Graph& ga_;
  const Graph& gb_;
  Options opts_;
  plan::PlanGraph plan_;
  std::map<Key, PlanRef> trail_;
  std::vector<Key> trail_stack_;
  // Structure hashes: borrowed from Options when valid, else owned.
  const std::vector<uint64_t>* hash_a_ = nullptr;
  const std::vector<uint64_t>* hash_b_ = nullptr;
  std::vector<uint64_t> owned_hash_a_, owned_hash_b_;
  // Canonical-id snapshots (set iff opts_.cross != nullptr).
  std::shared_ptr<const std::vector<CanonId>> sid_a_, sid_b_;
  std::shared_ptr<const std::vector<CanonId>> iso_a_, iso_b_;
  uint8_t fp_ = 0;
  uint64_t ver_a_ = 0, ver_b_ = 0;
  bool budget_hit_ = false;
  Mismatch best_;
  size_t steps_ = 0;

  friend struct TrailSaver;
};

std::string Mismatch::to_string() const {
  if (!valid) return "(no mismatch recorded)";
  return reason + "\n  left:  " + left + "\n  right: " + right;
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::Equivalent: return "equivalent";
    case Verdict::LeftSubtype: return "left-subtype-of-right";
    case Verdict::RightSubtype: return "right-subtype-of-left";
    case Verdict::Mismatch: return "mismatch";
  }
  return "?";
}

Result compare(const mtype::Graph& ga, mtype::Ref a, const mtype::Graph& gb,
               mtype::Ref b, const Options& options) {
  obs::Span span("compare");
  obs::ScopedTimer timer(cmp_metrics().run_ns);
  cmp_metrics().runs.add();
  Cmp cmp(ga, gb, options);
  return cmp.run(a, b);
}

struct Session::Impl {
  Cmp cmp;
  Impl(const mtype::Graph& ga, const mtype::Graph& gb, const Options& opts)
      : cmp(ga, gb, opts) {}
};

Session::Session(const mtype::Graph& ga, const mtype::Graph& gb, Options options)
    : impl_(std::make_unique<Impl>(ga, gb, options)) {}

Session::~Session() = default;

Session::SessionResult Session::compare(mtype::Ref a, mtype::Ref b) {
  return impl_->cmp.run_shared(a, b);
}

const plan::PlanGraph& Session::plans() const {
  return impl_->cmp.shared_plans();
}

FullResult compare_full(const mtype::Graph& ga, mtype::Ref a,
                        const mtype::Graph& gb, mtype::Ref b, Options options) {
  FullResult out;
  // Reversed-direction compares swap the graphs, so the borrowed hash
  // vectors must swap with them — otherwise, whenever ga and gb happen to
  // have the same node count, the size guard cannot catch the mix-up and
  // the prune would filter on the wrong graph's hashes (a false-mismatch
  // risk, since pruning assumes hash-inequality implies type-inequality).
  Options reversed = options;
  std::swap(reversed.left_hashes, reversed.right_hashes);

  options.mode = Mode::Equivalence;
  Result eq = compare(ga, a, gb, b, options);
  if (eq.ok) {
    out.verdict = Verdict::Equivalent;
    out.to_right = std::move(eq);
    // Equivalence is symmetric: build the reverse plan too.
    reversed.mode = Mode::Equivalence;
    out.to_left = compare(gb, b, ga, a, reversed);
    return out;
  }
  options.mode = Mode::Subtype;
  Result sub_ab = compare(ga, a, gb, b, options);
  if (sub_ab.ok) {
    out.verdict = Verdict::LeftSubtype;
    out.to_right = std::move(sub_ab);
    return out;
  }
  reversed.mode = Mode::Subtype;
  Result sub_ba = compare(gb, b, ga, a, reversed);
  if (sub_ba.ok) {
    out.verdict = Verdict::RightSubtype;
    out.to_left = std::move(sub_ba);
    return out;
  }
  out.verdict = Verdict::Mismatch;
  out.to_right = std::move(eq);  // carries the equivalence mismatch report
  return out;
}

}  // namespace mbird::compare
