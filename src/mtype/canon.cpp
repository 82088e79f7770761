#include "mtype/canon.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace mbird::mtype {

namespace {

struct VecU64Hash {
  size_t operator()(const std::vector<uint64_t>& v) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t x : v) {
      h ^= x;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }
};

void push_int128(std::vector<uint64_t>& key, Int128 v) {
  auto u = static_cast<unsigned __int128>(v);
  key.push_back(static_cast<uint64_t>(u >> 64));
  key.push_back(static_cast<uint64_t>(u));
}

// Budget (in child slots examined) for associative flattening of one
// aggregate. Flattening expands DAG-shared subrecords once per occurrence,
// so densely inter-linked declaration sets make the fully flattened form
// superpolynomially large even though the graph itself is small. Past the
// budget the node falls back to its direct children: the iso indexes only
// lose candidate-ordering strength (their ids are advisory — the Comparer
// proves every match), and the strict index never flattens.
constexpr size_t kFlattenBudget = 256;

bool flatten_bounded(const Graph& g, Ref node, MKind agg, bool drop_units,
                     size_t& budget, const std::vector<uint32_t>& slot,
                     std::vector<uint32_t>& out) {
  for (Ref child : g.at(node).children) {
    if (budget == 0) return false;
    --budget;
    const Node& c = g.at(child);
    if (c.kind == agg) {
      if (!flatten_bounded(g, child, agg, drop_units, budget, slot, out)) {
        return false;
      }
    } else if (drop_units && agg == MKind::Record && c.kind == MKind::Unit) {
      // unit-elimination: Record(tau, Unit) ~ Record(tau)
    } else {
      out.push_back(slot[child]);
    }
  }
  return true;
}

// Iterative Tarjan. run() walks the nodes reachable from `root` through
// succ(v, k), k < degree(v), and hands each strongly connected component to
// on_scc kids first (its members as popped, the component's root last).
// Successors for which done(w) holds were finished earlier and are skipped;
// on_scc returning false stops the walk, and run() then returns false. The
// object only keeps its buffers between runs.
class Tarjan {
 public:
  template <class Degree, class Succ, class Done, class OnScc>
  bool run(uint32_t root, Degree degree, Succ succ, Done done, OnScc on_scc) {
    visit_.clear();
    stack_.clear();
    call_.clear();
    open(root);
    while (!call_.empty()) {
      const uint32_t v = call_.back().first;
      const uint32_t k = call_.back().second;
      if (k < degree(v)) {
        ++call_.back().second;
        const uint32_t w = succ(v, k);
        if (done(w)) continue;
        auto it = visit_.find(w);
        if (it == visit_.end()) {
          open(w);
        } else if (it->second.on_stack) {
          Visit& x = visit_.at(v);
          x.low = std::min(x.low, it->second.index);
        }
        continue;
      }
      call_.pop_back();
      const Visit x = visit_.at(v);
      if (!call_.empty()) {
        Visit& parent = visit_.at(call_.back().first);
        parent.low = std::min(parent.low, x.low);
      }
      if (x.low != x.index) continue;
      members_.clear();
      uint32_t m;
      do {
        m = stack_.back();
        stack_.pop_back();
        visit_.at(m).on_stack = false;
        members_.push_back(m);
      } while (m != v);
      if (!on_scc(members_)) return false;
    }
    return true;
  }

 private:
  struct Visit {
    uint32_t index, low;
    bool on_stack;
  };
  void open(uint32_t v) {
    const auto i = static_cast<uint32_t>(visit_.size());
    visit_.emplace(v, Visit{i, i, true});
    stack_.push_back(v);
    call_.emplace_back(v, 0);
  }
  std::unordered_map<uint32_t, Visit> visit_;
  std::vector<uint32_t> stack_, members_;
  std::vector<std::pair<uint32_t, uint32_t>> call_;  // (node, next kid)
};

}  // namespace

struct CanonIndex::Impl {
  struct ANode {
    MKind kind = MKind::Unit;
    Int128 lo = 0, hi = 0;
    Repertoire rep = Repertoire::Unicode;
    uint16_t mant = 0, expo = 0;
    // Structural child list (flattened / unit-stripped per options), as
    // arena indices. For Rec/Var the single entry is the body / target.
    std::vector<uint32_t> kids;
    // Arena index of the structural representative after transparency
    // resolution (self for structural nodes).
    uint32_t rep_node = 0;
    bool degenerate = false;
    CanonId canon = kNoCanon;
  };

  std::mutex mu;
  std::vector<ANode> arena;
  CanonId next_canon = 0;

  // Per-class representative arena node (the member that minted the class),
  // indexed by CanonId. Backs stable_id()'s digest DFS.
  std::vector<uint32_t> class_rep;
  // stable_id memo + reverse map, guarded by `mu`.
  std::unordered_map<CanonId, StableId> stable_memo;
  std::unordered_map<StableId, CanonId, StableIdHash> by_stable;
  // Strongly connected component of each class in the quotient graph
  // (kNoScc until a stable_id DFS first reaches the class), guarded by `mu`.
  static constexpr uint32_t kNoScc = 0xffffffffu;
  std::vector<uint32_t> scc;
  uint32_t next_scc = 0;

  // Where each graph's nodes sit in the arena, by Graph::uid(), as of the
  // graph's last intern (guarded by `mu`). The next intern of the graph
  // copies only the nodes appended since `version`.
  struct Placement {
    uint64_t version = 0;
    std::vector<uint32_t> slot;  // arena index per Ref
  };
  std::unordered_map<uint64_t, Placement> placed;

  // ids_for memo: the latest snapshot per Graph::uid(), sharded by uid.
  // Steady-state batch traffic (every worker re-fetching ids for the two
  // shared graphs) is a shared-lock lookup on one shard — workers never
  // serialize on the arena mutex unless a graph actually needs interning.
  static constexpr size_t kMemoShards = 8;
  struct Snapshot {
    uint64_t version = 0;
    std::shared_ptr<const std::vector<CanonId>> ids;
  };
  struct MemoShard {
    std::shared_mutex mu;
    std::unordered_map<uint64_t, Snapshot> memo;
  };
  MemoShard memo_shards[kMemoShards];

  MemoShard& memo_shard_for(uint64_t uid) {
    return memo_shards[uid % kMemoShards];
  }

  // Every class by the digest of its signature, guarded by `mu`. Hits are
  // confirmed against class_rep's recomputed signature, so a digest
  // collision costs a probe, never a wrong class.
  std::unordered_multimap<uint64_t, CanonId> by_sig;
  std::vector<uint64_t> sig_a, sig_b;  // scratch signatures
  CanonStats stats;

  /// Steps 2-4 of intern: classify the freshly copied arena nodes
  /// [base, arena.size()) against the already classified prefix. Caller
  /// holds `mu`.
  void classify(uint32_t base, const CanonOptions& opts);

  /// Local key of structural node `i`: kind, arity and exact parameters.
  void local_key(uint32_t i, std::vector<uint64_t>& out) const;
  /// local_key followed by the classes of `i`'s resolved kids, sorted when
  /// the options are commutative. Every kid must be classified.
  void signature(uint32_t i, const CanonOptions& opts,
                 std::vector<uint64_t>& out) const;
  /// The class whose signature is `sig`, or kNoCanon.
  [[nodiscard]] CanonId lookup(const std::vector<uint64_t>& sig,
                               uint64_t digest, const CanonOptions& opts);
  /// Mint a class represented by structural node `i`. The caller registers
  /// its signature in by_sig once `i`'s kids are classified.
  CanonId mint(uint32_t i);
  /// Coarsest stable partition of `nodes` (structural arena nodes) whose
  /// resolved kid lists `kids` index into `nodes`: bisimilarity under the
  /// index's congruence. Returns each node's block; numbering is
  /// deterministic.
  std::vector<uint32_t> refine(const std::vector<uint32_t>& nodes,
                               const std::vector<std::vector<uint32_t>>& kids,
                               const CanonOptions& opts);
  /// Classify every new structural node in [base, arena.size()) that has
  /// no class yet by refining them together with one representative per
  /// existing class. Step 4 calls it at most once per intern, at the first
  /// new cycle.
  void refine_unclassified(uint32_t base, const CanonOptions& opts);

  /// Class of representative `rep`'s k-th child after transparency
  /// resolution. Degenerate kids are impossible here (contagion would have
  /// made the parent degenerate and classless).
  [[nodiscard]] CanonId kid_class(uint32_t rep, uint32_t k) const {
    return arena[arena[arena[rep].kids[k]].rep_node].canon;
  }

  /// Assign `scc` for every class reachable from `root` (Tarjan). Caller
  /// holds `mu`.
  void assign_sccs(CanonId root);
};

CanonIndex::CanonIndex(CanonOptions opts)
    : opts_(opts), impl_(std::make_unique<Impl>()) {}

CanonIndex::~CanonIndex() = default;

size_t CanonIndex::classes() const {
  std::lock_guard lock(impl_->mu);
  return impl_->next_canon;
}

size_t CanonIndex::interned_nodes() const {
  std::lock_guard lock(impl_->mu);
  return impl_->arena.size();
}

CanonStats CanonIndex::stats() const {
  std::lock_guard lock(impl_->mu);
  return impl_->stats;
}

std::shared_ptr<const std::vector<CanonId>> CanonIndex::ids_for(const Graph& g) {
  const uint64_t uid = g.uid();
  const uint64_t version = g.version();
  Impl::MemoShard& shard = impl_->memo_shard_for(uid);
  {
    std::shared_lock lock(shard.mu);
    auto it = shard.memo.find(uid);
    if (it != shard.memo.end() && it->second.version == version) {
      return it->second.ids;
    }
  }
  // Intern outside the memo locks (intern takes the arena lock; racing
  // callers for the same graph both intern — the second finds nothing new
  // to copy and only projects ids — and the first snapshot stored wins).
  auto ids = std::make_shared<const std::vector<CanonId>>(intern(g));
  std::unique_lock lock(shard.mu);
  Impl::Snapshot& snap = shard.memo[uid];
  if (snap.ids == nullptr || snap.version != version) {
    snap = {version, std::move(ids)};
  }
  return snap.ids;
}

std::vector<CanonId> CanonIndex::intern(const Graph& g) {
  std::lock_guard lock(impl_->mu);
  auto& arena = impl_->arena;
  const auto n = static_cast<uint32_t>(g.size());

  // ---- 1. copy new nodes, computing structural child lists ------------------
  // Graphs grow append-only between interns, and an old node only refers to
  // older nodes, so the prefix placed by this graph's last intern is still
  // classified correctly: copy only the suffix, pointing kid refs below the
  // prefix at their existing slots. If seal_rec/at_mut touched a prefix
  // node since then, re-intern the whole graph instead.
  Impl::Placement& placement = impl_->placed[g.uid()];
  std::vector<uint32_t>& slot = placement.slot;
  if (g.edited_below(slot.size(), placement.version)) slot.clear();
  placement.version = g.version();
  const auto n_old = static_cast<uint32_t>(slot.size());
  const auto base = static_cast<uint32_t>(arena.size());
  const uint32_t total = base + (n - n_old);
  for (uint32_t i = base; i < total; ++i) slot.push_back(i);
  arena.resize(total);
  for (uint32_t r = n_old; r < n; ++r) {
    const Node& src = g.at(r);
    Impl::ANode& a = arena[slot[r]];
    a.kind = src.kind;
    a.rep_node = slot[r];
    switch (src.kind) {
      case MKind::Int:
        a.lo = src.lo;
        a.hi = src.hi;
        break;
      case MKind::Char: a.rep = src.repertoire; break;
      case MKind::Real:
        a.mant = src.mantissa_bits;
        a.expo = src.exponent_bits;
        break;
      case MKind::Record: {
        size_t budget = kFlattenBudget;
        if (!opts_.associative ||
            !flatten_bounded(g, r, MKind::Record, opts_.unit_elimination,
                             budget, slot, a.kids)) {
          a.kids.clear();
          for (Ref c : src.children) {
            if (opts_.unit_elimination && g.at(c).kind == MKind::Unit) continue;
            a.kids.push_back(slot[c]);
          }
        }
        break;
      }
      case MKind::Choice: {
        size_t budget = kFlattenBudget;
        if (!opts_.associative ||
            !flatten_bounded(g, r, MKind::Choice, false, budget, slot,
                             a.kids)) {
          a.kids.clear();
          for (Ref c : src.children) a.kids.push_back(slot[c]);
        }
        break;
      }
      case MKind::Port:
        if (src.body() == kNullRef) {
          a.degenerate = true;
        } else {
          a.kids.push_back(slot[src.body()]);
        }
        break;
      case MKind::Rec:
        if (src.body() == kNullRef) {
          a.degenerate = true;  // unsealed
        } else {
          a.kids.push_back(slot[src.body()]);
        }
        break;
      case MKind::Var:
        if (src.var_target == kNullRef) {
          a.degenerate = true;
        } else {
          a.kids.push_back(slot[src.var_target]);
        }
        break;
      case MKind::Unit: break;
    }
  }

  if (total > base) impl_->classify(base, opts_);

  // ---- 5. project ids for the interned graph -------------------------------
  std::vector<CanonId> out(n, kNoCanon);
  for (uint32_t r = 0; r < n; ++r) {
    const Impl::ANode& a = arena[slot[r]];
    if (a.degenerate) continue;
    out[r] = arena[a.rep_node].canon;
  }
  return out;
}

void CanonIndex::Impl::classify(uint32_t base, const CanonOptions& opts) {
  const auto total = static_cast<uint32_t>(arena.size());

  // ---- 2. transparency resolution ------------------------------------------
  // A node is transparent when the Comparer treats it as its (single)
  // successor in every context: Var -> target, sealed Rec -> body, and a
  // Record flattening to exactly one child whose resolution is non-Record
  // (the unit-elimination bridging rule, which requires associativity).
  // Cycles made only of transparent nodes are unproductive (µX.X); members
  // are degenerate. Resolution is iterative with an explicit stack so deep
  // graphs don't overflow.
  const bool bridge =
      opts.unit_elimination && opts.associative && opts.mu_transparent;
  auto successor = [&](uint32_t i) -> int64_t {
    const ANode& a = arena[i];
    if (a.degenerate) return -1;
    if (opts.mu_transparent &&
        (a.kind == MKind::Var || a.kind == MKind::Rec)) {
      return a.kids[0];
    }
    if (bridge && a.kind == MKind::Record && a.kids.size() == 1) {
      return a.kids[0];  // provisionally; confirmed non-Record below
    }
    return -1;
  };

  // New range only: 0 white, 1 grey, 2 done. Old nodes are all done.
  std::vector<uint8_t> color(total - base, 0);
  std::vector<uint32_t> chain;
  for (uint32_t start = base; start < total; ++start) {
    if (color[start - base] == 2) continue;
    chain.clear();
    uint32_t cur = start;
    while (true) {
      // Resolved tail: splice onto it.
      if (cur < base || color[cur - base] == 2) break;
      if (color[cur - base] == 1) {
        // Transparent cycle: everything from `cur` onward is degenerate.
        bool in_cycle = false;
        for (uint32_t c : chain) {
          if (c == cur) in_cycle = true;
          if (in_cycle) arena[c].degenerate = true;
        }
        break;
      }
      color[cur - base] = 1;
      chain.push_back(cur);
      int64_t next = successor(cur);
      if (next < 0) break;  // structural (or already degenerate)
      cur = static_cast<uint32_t>(next);
    }
    // Walk the chain backwards assigning representatives.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      uint32_t i = *it;
      color[i - base] = 2;
      ANode& a = arena[i];
      if (a.degenerate) continue;
      int64_t next = successor(i);
      if (next < 0) {
        a.rep_node = i;
        continue;
      }
      const ANode& tgt = arena[static_cast<uint32_t>(next)];
      if (tgt.degenerate) {
        a.degenerate = true;
        continue;
      }
      uint32_t rep = tgt.rep_node;
      if (a.kind == MKind::Record && arena[rep].kind == MKind::Record) {
        // Bridging does not apply record-to-record: Record([µ-wrapped
        // Record]) is NOT comparer-equivalent to the inner record (flat
        // lists differ), so the node stays structural.
        a.rep_node = i;
      } else if (arena[rep].degenerate) {
        a.degenerate = true;
      } else {
        a.rep_node = rep;
      }
    }
  }

  // ---- 3. degeneracy contagion ---------------------------------------------
  // A structural node with a degenerate (resolved) child cannot be classed
  // reliably; propagate upward to a fixpoint (bounded by the new node
  // count; in practice one or two rounds).
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t i = base; i < total; ++i) {
      ANode& a = arena[i];
      if (a.degenerate) continue;
      if (a.rep_node != i) {
        if (arena[a.rep_node].degenerate) {
          a.degenerate = true;
          changed = true;
        }
        continue;
      }
      for (uint32_t k : a.kids) {
        const ANode& kn = arena[arena[k].rep_node];
        if (kn.degenerate || arena[k].degenerate) {
          a.degenerate = true;
          changed = true;
          break;
        }
      }
    }
  }

  // ---- 4. classify the new structural nodes, kids first --------------------
  // Tarjan over the new structural nodes, following resolved kids; old kids
  // are fixed classes. SCCs complete kids-first, so every kid outside the
  // current SCC is classified by the time it is reached, and an acyclic node
  // is classified by one signature lookup. The first new cycle stops the
  // walk: everything still unclassified is then refined in one pass, so an
  // intern refines at most once. Transparent nodes inherit their
  // representative's class at projection.
  auto done = [&](uint32_t w) {
    return w < base || arena[w].canon != kNoCanon;
  };
  auto look_up = [&](const std::vector<uint32_t>& scc) {
    const uint32_t v = scc[0];
    const auto& kids = arena[v].kids;
    if (scc.size() > 1 ||
        std::any_of(kids.begin(), kids.end(),
                    [&](uint32_t c) { return arena[c].rep_node == v; })) {
      return false;  // a new cycle
    }
    signature(v, opts, sig_a);
    const uint64_t digest = VecU64Hash{}(sig_a);
    CanonId id = lookup(sig_a, digest, opts);
    if (id == kNoCanon) {
      id = mint(v);
      by_sig.emplace(digest, id);
    }
    arena[v].canon = id;
    ++stats.looked_up;
    return true;
  };
  Tarjan tarjan;
  for (uint32_t start = base; start < total; ++start) {
    if (arena[start].degenerate || arena[start].rep_node != start ||
        arena[start].canon != kNoCanon) {
      continue;
    }
    const bool acyclic = tarjan.run(
        start, [&](uint32_t v) { return arena[v].kids.size(); },
        [&](uint32_t v, uint32_t k) { return arena[arena[v].kids[k]].rep_node; },
        done, look_up);
    if (!acyclic) {
      refine_unclassified(base, opts);
      return;
    }
  }
}

void CanonIndex::Impl::local_key(uint32_t i, std::vector<uint64_t>& out) const {
  const ANode& a = arena[i];
  out.clear();
  out.push_back(static_cast<uint64_t>(a.kind));
  out.push_back(a.kids.size());
  switch (a.kind) {
    case MKind::Int:
      push_int128(out, a.lo);
      push_int128(out, a.hi);
      break;
    case MKind::Char: out.push_back(static_cast<uint64_t>(a.rep)); break;
    case MKind::Real:
      out.push_back(a.mant);
      out.push_back(a.expo);
      break;
    default: break;
  }
}

void CanonIndex::Impl::signature(uint32_t i, const CanonOptions& opts,
                                 std::vector<uint64_t>& out) const {
  local_key(i, out);
  const size_t head = out.size();
  for (uint32_t k = 0; k < arena[i].kids.size(); ++k) {
    out.push_back(kid_class(i, k));
  }
  if (opts.commutative &&
      (arena[i].kind == MKind::Record || arena[i].kind == MKind::Choice)) {
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(head), out.end());
  }
}

CanonId CanonIndex::Impl::lookup(const std::vector<uint64_t>& sig,
                                 uint64_t digest, const CanonOptions& opts) {
  auto [it, end] = by_sig.equal_range(digest);
  for (; it != end; ++it) {
    signature(class_rep[it->second], opts, sig_b);
    if (sig_b == sig) return it->second;
  }
  return kNoCanon;
}

CanonId CanonIndex::Impl::mint(uint32_t i) {
  const CanonId id = next_canon++;
  class_rep.push_back(i);
  return id;
}

std::vector<uint32_t> CanonIndex::Impl::refine(
    const std::vector<uint32_t>& nodes,
    const std::vector<std::vector<uint32_t>>& kids, const CanonOptions& opts) {
  // Refinement is predecessor-driven (Moore-style worklist): a node's
  // signature is its kid class list, a signature only changes when some kid
  // is reassigned to a fresh block, and only the blocks holding such nodes
  // are regrouped, so total work is proportional to the splits that
  // actually happen.
  const auto n = static_cast<uint32_t>(nodes.size());
  std::vector<std::vector<uint32_t>> preds(n);
  for (uint32_t ai = 0; ai < n; ++ai) {
    for (uint32_t k : kids[ai]) preds[k].push_back(ai);
  }
  std::vector<uint32_t> cls(n, 0);
  uint32_t next_id = 0;
  // Round 0: local keys (kind + exact parameters + arity).
  {
    std::unordered_map<std::vector<uint64_t>, uint32_t, VecU64Hash> table;
    std::vector<uint64_t> key;
    for (uint32_t ai = 0; ai < n; ++ai) {
      local_key(nodes[ai], key);
      auto [it, inserted] =
          table.emplace(key, static_cast<uint32_t>(table.size()));
      cls[ai] = it->second;
    }
    next_id = static_cast<uint32_t>(table.size());
  }
  // Block membership and per-node cached signatures. A signature omits the
  // node's own class: grouping happens within one block, where it is a
  // shared constant.
  std::vector<std::vector<uint32_t>> members(next_id);
  for (uint32_t ai = 0; ai < n; ++ai) members[cls[ai]].push_back(ai);
  std::vector<std::vector<uint64_t>> sig(n);
  auto build_sig = [&](uint32_t ai) {
    const ANode& a = arena[nodes[ai]];
    std::vector<uint64_t>& s = sig[ai];
    s.clear();
    for (uint32_t k : kids[ai]) s.push_back(cls[k]);
    if (opts.commutative &&
        (a.kind == MKind::Record || a.kind == MKind::Choice)) {
      std::sort(s.begin(), s.end());
    }
  };
  std::vector<uint32_t> dirty(n);
  for (uint32_t ai = 0; ai < n; ++ai) dirty[ai] = ai;
  std::vector<char> in_dirty(n, 1);
  while (!dirty.empty()) {
    for (uint32_t ai : dirty) build_sig(ai);
    // Blocks holding a re-keyed node, in deterministic order.
    std::vector<uint32_t> blocks;
    blocks.reserve(dirty.size());
    for (uint32_t ai : dirty) blocks.push_back(cls[ai]);
    std::sort(blocks.begin(), blocks.end());
    blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());

    std::vector<uint32_t> next_dirty;
    std::fill(in_dirty.begin(), in_dirty.end(), 0);
    for (uint32_t b : blocks) {
      if (members[b].size() <= 1) continue;
      // Group members by signature, preserving first-seen order so block
      // numbering (and thus canonical-id assignment) is deterministic.
      std::unordered_map<std::vector<uint64_t>, uint32_t, VecU64Hash> index;
      std::vector<std::vector<uint32_t>> groups;
      for (uint32_t ai : members[b]) {
        auto [it, inserted] =
            index.emplace(sig[ai], static_cast<uint32_t>(groups.size()));
        if (inserted) groups.emplace_back();
        groups[it->second].push_back(ai);
      }
      if (groups.size() == 1) continue;
      // The first group keeps the block id; the rest get fresh ids, and
      // their predecessors' signatures go stale.
      members[b] = std::move(groups[0]);
      for (size_t gi = 1; gi < groups.size(); ++gi) {
        uint32_t id = next_id++;
        for (uint32_t ai : groups[gi]) {
          cls[ai] = id;
          for (uint32_t p : preds[ai]) {
            if (in_dirty[p] == 0) {
              in_dirty[p] = 1;
              next_dirty.push_back(p);
            }
          }
        }
        members.push_back(std::move(groups[gi]));
      }
    }
    dirty.swap(next_dirty);
  }
  return cls;
}

void CanonIndex::Impl::refine_unclassified(uint32_t base,
                                           const CanonOptions& opts) {
  // The existing classes form the quotient of a minimal partition, which is
  // itself minimal: refinement keeps every representative in its own block,
  // and a new node shares a block with a representative iff it is bisimilar
  // to that class.
  ++stats.refinements;
  const CanonId n_classes = next_canon;
  const auto total = static_cast<uint32_t>(arena.size());
  std::vector<uint32_t> nodes(class_rep.begin(), class_rep.end());
  std::vector<uint32_t> pos(total - base);  // new node -> index in nodes
  for (uint32_t i = base; i < total; ++i) {
    const ANode& a = arena[i];
    if (a.degenerate || a.rep_node != i || a.canon != kNoCanon) continue;
    pos[i - base] = static_cast<uint32_t>(nodes.size());
    nodes.push_back(i);
  }
  std::vector<std::vector<uint32_t>> kids(nodes.size());
  for (uint32_t ai = 0; ai < nodes.size(); ++ai) {
    const uint32_t i = nodes[ai];
    kids[ai].reserve(arena[i].kids.size());
    for (uint32_t k : arena[i].kids) {
      const uint32_t rk = arena[k].rep_node;
      kids[ai].push_back(arena[rk].canon != kNoCanon ? arena[rk].canon
                                                     : pos[rk - base]);
    }
  }
  const std::vector<uint32_t> block = refine(nodes, kids, opts);
  std::unordered_map<uint32_t, CanonId> class_of_block;
  for (CanonId c = 0; c < n_classes; ++c) class_of_block.emplace(block[c], c);
  assert(class_of_block.size() == n_classes);
  std::vector<CanonId> fresh;
  for (uint32_t ai = n_classes; ai < nodes.size(); ++ai) {
    auto [it, unseen] = class_of_block.try_emplace(block[ai]);
    if (unseen) {
      it->second = mint(nodes[ai]);
      fresh.push_back(it->second);
    }
    arena[nodes[ai]].canon = it->second;
  }
  // Register the fresh classes once every node is classified (on a cycle
  // their signatures name each other).
  for (CanonId id : fresh) {
    signature(class_rep[id], opts, sig_a);
    by_sig.emplace(VecU64Hash{}(sig_a), id);
  }
}

// ---- stable content digests ------------------------------------------------
//
// A class's StableId is a 128-bit hash of a canonical token stream over its
// quotient subgraph: local tokens (kind, exact parameters, arity) followed
// by one token per child — either the child's own digest, or, for a
// back-edge into the current DFS stack, a marker carrying the RELATIVE
// stack depth (parent depth minus target depth). Relative depths are
// context-independent, so a digest that contains only fully-resolved
// children and self-contained cycles is the same no matter where the DFS
// started; such digests are memoized. A digest whose subtree has a
// back-edge escaping ABOVE the node is only valid within the enclosing
// traversal and is NOT memoized (it is still correct as a component of the
// ancestors' digests). Rooted DFS always memoizes its root.
//
// A memoized digest stands in for a child only when the child lies in a
// different strongly connected component: inside a cycle, a member's
// digest encodes the cycle as unfolded from that member, so reusing it for
// a DFS that entered the cycle elsewhere would make digests depend on the
// order stable_id was queried in — and differ between processes.
void CanonIndex::Impl::assign_sccs(CanonId root) {
  if (scc.size() < next_canon) scc.resize(next_canon, kNoScc);
  if (scc[root] != kNoScc) return;
  // Classes assigned by an earlier call are finished: kid lists never
  // change, so nothing they reach can be unassigned.
  Tarjan().run(
      root, [&](CanonId c) { return arena[class_rep[c]].kids.size(); },
      [&](CanonId c, uint32_t k) { return kid_class(class_rep[c], k); },
      [&](CanonId c) { return scc[c] != kNoScc; },
      [&](const std::vector<CanonId>& members) {
        const uint32_t id = next_scc++;
        for (CanonId m : members) scc[m] = id;
        return true;
      });
}

namespace {

struct Digest128 {
  uint64_t a = 0x6a09e667f3bcc909ULL;  // lane seeds (sqrt(2), sqrt(3) frac)
  uint64_t b = 0xbb67ae8584caa73bULL;
  void mix(uint64_t x) {
    a = (a ^ x) * 0x100000001b3ULL;
    a ^= a >> 29;
    b = (b ^ x) * 0xc6a4a7935bd1e995ULL;
    b ^= b >> 31;
  }
};

}  // namespace

StableId CanonIndex::stable_id(CanonId id) {
  if (id == kNoCanon) return {};
  std::lock_guard lock(impl_->mu);
  auto& arena = impl_->arena;
  auto& memo = impl_->stable_memo;
  if (auto it = memo.find(id); it != memo.end()) return it->second;
  if (id >= impl_->class_rep.size()) return {};
  impl_->assign_sccs(id);

  constexpr uint32_t kNoBack = 0xffffffffu;
  struct Frame {
    CanonId cls;
    uint32_t depth;
    uint32_t kid_idx = 0;
    uint32_t min_back = kNoBack;  // shallowest back-edge target in subtree
    Digest128 h;
  };
  std::vector<Frame> stack;
  std::unordered_map<CanonId, uint32_t> on_stack;  // class -> stack depth
  auto push = [&](CanonId c) {
    Frame f{c, static_cast<uint32_t>(stack.size()), 0, kNoBack, {}};
    const Impl::ANode& a = arena[impl_->class_rep[c]];
    f.h.mix(0x10u + static_cast<uint64_t>(a.kind));
    f.h.mix(a.kids.size());
    switch (a.kind) {
      case MKind::Int: {
        auto lo = static_cast<unsigned __int128>(a.lo);
        auto hi = static_cast<unsigned __int128>(a.hi);
        f.h.mix(static_cast<uint64_t>(lo >> 64));
        f.h.mix(static_cast<uint64_t>(lo));
        f.h.mix(static_cast<uint64_t>(hi >> 64));
        f.h.mix(static_cast<uint64_t>(hi));
        break;
      }
      case MKind::Char: f.h.mix(static_cast<uint64_t>(a.rep)); break;
      case MKind::Real:
        f.h.mix(a.mant);
        f.h.mix(a.expo);
        break;
      default: break;
    }
    on_stack.emplace(c, f.depth);
    stack.push_back(std::move(f));
  };

  push(id);
  StableId result{};
  while (!stack.empty()) {
    Frame& f = stack.back();
    const Impl::ANode& a = arena[impl_->class_rep[f.cls]];
    if (f.kid_idx < a.kids.size()) {
      CanonId kc = impl_->kid_class(impl_->class_rep[f.cls], f.kid_idx);
      ++f.kid_idx;
      if (auto it = memo.find(kc);
          it != memo.end() && impl_->scc[kc] != impl_->scc[f.cls]) {
        f.h.mix(0x01);
        f.h.mix(it->second.hi);
        f.h.mix(it->second.lo);
        continue;
      }
      if (auto it = on_stack.find(kc); it != on_stack.end()) {
        f.h.mix(0x02);
        f.h.mix(f.depth - it->second);
        f.min_back = std::min(f.min_back, it->second);
        continue;
      }
      push(kc);
      continue;
    }
    // Frame complete: finalize, maybe memoize, fold into parent.
    StableId sid{f.h.a, f.h.b};
    if (sid.is_null()) sid.lo = 1;  // keep {0,0} reserved for "absent"
    const uint32_t mb = f.min_back;
    // Context-free iff no back-edge in the subtree targets an ancestor
    // strictly above this frame (at depth 0 that is always true).
    const bool context_free = mb == kNoBack || mb >= f.depth;
    if (context_free) {
      memo.emplace(f.cls, sid);
      impl_->by_stable.emplace(sid, f.cls);
    }
    on_stack.erase(f.cls);
    stack.pop_back();
    if (stack.empty()) {
      result = sid;
      break;
    }
    Frame& parent = stack.back();
    parent.h.mix(0x01);
    parent.h.mix(sid.hi);
    parent.h.mix(sid.lo);
    if (!context_free) {
      parent.min_back = std::min(parent.min_back, mb);
    }
  }
  return result;
}

CanonId CanonIndex::canon_of(const StableId& sid) const {
  if (sid.is_null()) return kNoCanon;
  std::lock_guard lock(impl_->mu);
  auto it = impl_->by_stable.find(sid);
  return it == impl_->by_stable.end() ? kNoCanon : it->second;
}

}  // namespace mbird::mtype
