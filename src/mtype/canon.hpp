// Hash-consed canonical Mtype index (compile-side speedup layer 1).
//
// A CanonIndex interns Mtype graph nodes into a global arena and assigns
// every node a canonical id such that two nodes — possibly from different
// Graphs — receive the SAME id iff they are coinductively equivalent under
// the index's isomorphism options (commutativity / associativity /
// unit-elimination, mirroring compare::Options). Equal subtrees then
// compare by id equality instead of coinductive traversal, the same
// canonicalize-before-compare move session-type-isomorphism checkers make.
//
// The classes are the bisimulation classes of the interned nodes:
//   1. copy the graph's nodes into the arena, precomputing each node's
//      structural child list (flattened under associativity, units dropped
//      under unit-elimination — exactly what the Comparer matches on).
//      Only the nodes appended since the graph's last intern are copied
//      (see "Suffix interning" below);
//   2. resolve "transparent" nodes (Var -> target, Rec -> body, and — when
//      unit-elimination + associativity are both on — a Record whose
//      flattened form is a single child whose resolution is a non-Record);
//      fully-transparent cycles (unsealed or unproductive µX.X recs) get
//      kNoCanon and never participate in fast paths;
//   3. propagate degeneracy upward: a structural node with a degenerate
//      child gets kNoCanon too;
//   4. give each new structural node a class, kids first (Tarjan over the
//      new nodes). A class's signature is its local key (kind, exact
//      params, arity) plus its resolved kid-class list, sorted when the
//      options are commutative. An acyclic node looks its signature up in
//      a table holding every class: a hit joins that class, a miss mints a
//      fresh id. The first new cycle (non-trivial SCC or self-loop) stops
//      the lookups: every new node still unclassified is refined in one
//      pass together with one representative per existing class, and each
//      block maps to the class it contains or to a fresh id. The result is
//      bisimilarity, i.e. exactly the Comparer's equivalence relation for
//      the same options.
//
// Canonical ids are STABLE: interning more graphs later never changes an
// id already handed out (bisimilarity of a node depends only on the
// subgraph reachable from it). That makes ids usable as persistent cache
// keys (see compare::CrossCache).
//
// Suffix interning: graphs grow append-only between interns (lowering
// allocates and seals each Rec within one call), and a node only refers to
// older nodes, so the classes of a graph's already interned prefix cannot
// change. The index remembers, per Graph::uid(), each node's arena slot and
// the graph version at its last intern; the next intern copies only the
// nodes appended since, pointing kid refs below the prefix at their
// existing slots. The arena therefore grows by the new nodes, not by
// g.size(), and a lower-one-pair-then-compile loop stays linear. If
// seal_rec or at_mut touched a prefix node since that intern
// (Graph::edited_below), the whole graph is copied afresh instead. Either
// way the ids equal those a full re-intern would assign.
//
// Classification (step 4) touches only the new nodes too. Old classes never
// change, and the partition of the arena is minimal (bisimilarity), so no
// two classes share a signature: a node whose kids are classified belongs
// to the class with its signature if there is one, else to a new class. The
// signature table is keyed on a 64-bit digest and every hit is confirmed
// against the class representative's recomputed signature. Once a new
// cycle appears, the nodes left are refined against the quotient of the old
// partition, which is itself minimal, so the blocks they share with old
// classes are exactly the bisimilar ones. Acyclic growth touches only the
// new nodes; an intern with a new cycle refines once, over the classes plus
// its unclassified nodes, which is never more than the arena. stats()
// counts the work.
//
// Two standard configurations:
//   * iso ids    — CanonOptions matching the comparison's rule toggles;
//     id equality GUARANTEES comparer equivalence (sound positive
//     evidence), so the Comparer orders equal-id candidates first and
//     skips backtracking churn. Inequality does NOT always imply a
//     comparer mismatch (the direct-first record strategy can match
//     across µ-foldings the flatten congruence distinguishes), so iso ids
//     are never used to reject candidates — the structure-hash prune
//     keeps that role.
//   * strict ids — CanonOptions::strict(): ordered children, no
//     flattening, no unit dropping, µ-binders structural. Strict-equal
//     nodes have identical concrete layout, so coercion-plan fragments
//     built for one node are valid verbatim for the other, and the
//     Comparer's verdict (success AND failure) transfers between them.
//     CrossCache keys its memo on strict id pairs for this reason — iso
//     ids would be unsound there (Record(Int,Real) and Record(Real,Int)
//     share an iso class but need different field moves).
//
// Thread safety: interning is serialized by the arena mutex (per-graph
// and rare), but ids_for's memo is sharded by Graph::uid() with
// reader/writer locks — the steady-state path (every batch worker
// re-fetching ids for an already-interned graph) is a shared-lock map
// hit that never serializes workers. The returned id vectors are
// immutable snapshots safe to share across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mtype/mtype.hpp"

namespace mbird::mtype {

using CanonId = uint32_t;
/// Assigned to degenerate nodes (unsealed Recs, unproductive µX.X-style
/// cycles): such nodes never equal anything by id, and callers must fall
/// back to full comparison for pairs involving them.
inline constexpr CanonId kNoCanon = 0xffffffffu;

/// Content digest of a canonical class, stable ACROSS processes.
///
/// CanonIds are stable within one process but are assigned by interning
/// order, so they cannot key an on-disk cache: a restarted process that
/// interns graphs in a different order hands out different ids for the
/// same layouts. A StableId is a 128-bit structural digest of the class's
/// quotient subgraph (kinds, exact parameters, child order, cycles encoded
/// as relative back-edge depths), so two processes that intern layout-equal
/// types compute the same StableId. 128 bits make accidental collisions
/// negligible; a collision could at worst replay a verdict/fragment for a
/// different layout, which is why the store only ever sees strict ids
/// (layout-exact classes) where the digest covers every byte of layout.
struct StableId {
  uint64_t hi = 0;
  uint64_t lo = 0;
  [[nodiscard]] bool operator==(const StableId&) const = default;
  /// The all-zero id is reserved as "absent" (degenerate / never computed).
  [[nodiscard]] bool is_null() const { return hi == 0 && lo == 0; }
};

struct StableIdHash {
  size_t operator()(const StableId& s) const {
    return static_cast<size_t>(s.hi ^ (s.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Work counters of the classification step (CanonIndex::stats()).
struct CanonStats {
  /// New structural nodes classified by a signature-table lookup.
  uint64_t looked_up = 0;
  /// Refinement passes: at most one per intern, run when the intern meets
  /// its first new cycle. Zero while growth is acyclic.
  uint64_t refinements = 0;
};

struct CanonOptions {
  bool commutative = true;
  bool associative = true;
  bool unit_elimination = false;
  /// When set, Var resolves to its Rec and a sealed Rec to its body, so a
  /// µ-type and its unfolding share a class (the Comparer's coinductive
  /// view). Strict ids keep µ-binders structural instead: the Comparer's
  /// direct-first record strategy makes its relation sensitive to µ-knot
  /// placement (it is not even transitive across folding variants), so a
  /// cache that must reproduce comparer *failures* exactly needs ids that
  /// distinguish foldings.
  bool mu_transparent = true;

  /// Layout-exact configuration (see header comment).
  [[nodiscard]] static CanonOptions strict() {
    return {false, false, false, false};
  }

  [[nodiscard]] bool operator==(const CanonOptions&) const = default;
};

class CanonIndex {
 public:
  explicit CanonIndex(CanonOptions opts = {});
  ~CanonIndex();
  CanonIndex(const CanonIndex&) = delete;
  CanonIndex& operator=(const CanonIndex&) = delete;

  /// Intern every node of `g` not yet interned; returns the per-Ref
  /// canonical ids (result.size() == g.size()). Thread-safe.
  [[nodiscard]] std::vector<CanonId> intern(const Graph& g);

  /// Memoized intern keyed on (g.uid(), g.version()): repeated calls for
  /// an unchanged graph return the same shared snapshot without re-running
  /// classification. Only the latest snapshot per graph is kept.
  /// Thread-safe.
  [[nodiscard]] std::shared_ptr<const std::vector<CanonId>> ids_for(const Graph& g);

  /// Cross-process content digest of class `id` (see StableId). Memoized;
  /// also registers the reverse mapping for canon_of. Returns the null id
  /// for kNoCanon. Thread-safe.
  [[nodiscard]] StableId stable_id(CanonId id);

  /// Reverse lookup: the CanonId whose stable_id() previously returned
  /// `sid` in THIS process, or kNoCanon if no such digest has been
  /// computed yet. Used to re-key on-disk cache records back into the
  /// process-local id space. Thread-safe.
  [[nodiscard]] CanonId canon_of(const StableId& sid) const;

  [[nodiscard]] const CanonOptions& options() const { return opts_; }
  /// Number of distinct canonical classes assigned so far.
  [[nodiscard]] size_t classes() const;
  /// Total nodes copied into the arena (across all interned graphs). With
  /// suffix interning this is the sum of the interned graphs' sizes, plus
  /// one full copy per re-intern forced by an edit below the prefix.
  [[nodiscard]] size_t interned_nodes() const;
  /// Classification work done so far (see CanonStats).
  [[nodiscard]] CanonStats stats() const;

 private:
  struct Impl;
  CanonOptions opts_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mbird::mtype
