// The Mtype system (paper §3, Table 1): Mockingbird's abstract type model.
//
// Mtypes form a graph (possibly cyclic, for recursive types). A `Graph`
// arena owns the nodes; `Ref` indices refer to them. Cycles are expressed
// with an explicit Rec node placed in the cycle and Var nodes whose
// back-pointers reference the Rec (paper §3.2, Fig. 8).
//
//   Integer   — parameterized by range [lo, hi]
//   Character — parameterized by glyph repertoire
//   Real      — parameterized by precision (mantissa bits, exponent bits)
//   Unit      — void / null
//   Record    — ordered aggregate of heterogeneous children
//   Choice    — disjoint union of alternatives
//   Rec / Var — recursive types
//   Port      — addresses to which values of the child Mtype may be sent
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stype/stype.hpp"  // Repertoire
#include "support/wide_int.hpp"

namespace mbird::mtype {

using Ref = uint32_t;
inline constexpr Ref kNullRef = 0xffffffffu;

using stype::Repertoire;

enum class MKind : uint8_t { Int, Char, Real, Unit, Record, Choice, Rec, Var, Port };
[[nodiscard]] const char* to_string(MKind k);

/// A path of child indices descending through nested Record (or Choice)
/// structure; produced by flattening, consumed by coercion plans.
using Path = std::vector<uint32_t>;
[[nodiscard]] std::string path_to_string(const Path& p);

struct Node {
  MKind kind = MKind::Unit;

  // MKind::Int — inclusive range.
  Int128 lo = 0;
  Int128 hi = 0;

  // MKind::Char
  Repertoire repertoire = Repertoire::Unicode;

  // MKind::Real
  uint16_t mantissa_bits = 24;
  uint16_t exponent_bits = 8;

  // MKind::Record / MKind::Choice: all children.
  // MKind::Rec / MKind::Port: children[0] is the body / message type.
  std::vector<Ref> children;
  // Optional labels parallel to children (field / case / parameter names);
  // purely diagnostic — the comparer never consults them.
  std::vector<std::string> labels;

  // MKind::Var — the Rec node this back-pointer refers to.
  Ref var_target = kNullRef;

  // Diagnostic name (the source declaration this node came from), if any.
  std::string name;

  [[nodiscard]] Ref body() const { return children.empty() ? kNullRef : children[0]; }
};

class Graph {
 public:
  Graph();
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  /// The moved-to graph takes over the source's nodes, version and uid();
  /// the source is left empty under a fresh uid(), so caches keyed on the
  /// uid never mistake its regrown contents for the old ones.
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  [[nodiscard]] const Node& at(Ref r) const { return nodes_[r]; }
  /// Mutable access counts as a structural edit: it bumps version() so
  /// hash/canonical caches keyed on it recompute (see compare::HashCache).
  [[nodiscard]] Node& at_mut(Ref r) {
    touched_[r] = ++version_;
    return nodes_[r];
  }
  [[nodiscard]] size_t size() const { return nodes_.size(); }

  /// Monotone generation counter: incremented by every node addition,
  /// seal_rec, and at_mut access. Caches that derive data from the graph
  /// key on it: structure hashes on (this, size(), version()), canonical
  /// ids on (uid(), version()).
  [[nodiscard]] uint64_t version() const { return version_; }

  /// Process-unique identity, never reused (not even at the same address
  /// after destruction). Together with version() it names one graph state.
  [[nodiscard]] uint64_t uid() const { return uid_; }

  /// True if seal_rec or at_mut touched any of the first `prefix` nodes
  /// after version `since`. Graphs otherwise only grow, so a cache built
  /// over a prefix at version `since` stays valid for that prefix unless
  /// this returns true (see CanonIndex's suffix interning).
  [[nodiscard]] bool edited_below(size_t prefix, uint64_t since) const;

  Ref integer(Int128 lo, Int128 hi, std::string name = {});
  Ref character(Repertoire rep, std::string name = {});
  Ref real(uint16_t mantissa_bits, uint16_t exponent_bits, std::string name = {});
  Ref unit();
  Ref record(std::vector<Ref> children, std::vector<std::string> labels = {},
             std::string name = {});
  Ref choice(std::vector<Ref> children, std::vector<std::string> labels = {},
             std::string name = {});
  Ref port(Ref message, std::string name = {});

  /// Recursive types are built in two steps: allocate the Rec, build the
  /// body (using var(rec) for back-references), then seal it.
  Ref rec_placeholder(std::string name = {});
  void seal_rec(Ref rec, Ref body);
  Ref var(Ref rec_target);

  /// The canonical indefinite ordered collection (paper §3.2):
  ///   rec L. Choice(Unit, Record(elem, L))
  Ref list_of(Ref elem, std::string name = {});

  /// Convenience integer ranges.
  Ref boolean() { return integer(0, 1, "boolean"); }
  Ref int_bits(int bits, bool is_signed, std::string name = {});

  /// Append a fully-formed node (deserialization; see wire::decode_type).
  Ref add_node(Node n) { return add(std::move(n)); }

 private:
  Ref add(Node n);
  std::vector<Node> nodes_;
  // version() at each node's last change: its creation, seal_rec or at_mut.
  std::vector<uint64_t> touched_;
  uint64_t version_ = 0;
  uint64_t uid_ = 0;
};

/// If `r` is a Var, return the Rec it refers to; otherwise `r` itself.
[[nodiscard]] Ref skip_var(const Graph& g, Ref r);

/// Resolve through Var and Rec indirections to the first structural node.
/// Safe on cyclic graphs (µX.X resolves to the Rec itself after one lap and
/// is reported as Unit-like degenerate by callers).
[[nodiscard]] Ref resolve(const Graph& g, Ref r);

/// Detect the canonical list shape: Rec whose body is
/// Choice(Unit, Record(e1..ek, Var(self))) (in any child order for the
/// Choice; the Var must be the last Record child). Returns the element refs
/// (e1..ek — usually one) if matched.
[[nodiscard]] std::optional<std::vector<Ref>> match_list_shape(const Graph& g, Ref r);

/// Flattening (associativity): the transitive children of a Record,
/// descending through directly nested Records. Each entry carries the path
/// of child indices from the root record. Rec/Var boundaries stop descent.
/// When `drop_units` is set, Unit children are omitted (unit-elimination
/// isomorphism).
struct FlatChild {
  Ref ref;
  Path path;
};
[[nodiscard]] std::vector<FlatChild> flatten_record(const Graph& g, Ref record,
                                                    bool drop_units);
/// Same for Choice nests.
[[nodiscard]] std::vector<FlatChild> flatten_choice(const Graph& g, Ref choice);

/// Structure hashes, invariant under child permutation and nested
/// flattening of Records/Choices (so the comparer can bucket candidate
/// matches). Computed by Weisfeiler–Lehman style iteration to a fixpoint.
[[nodiscard]] std::vector<uint64_t> structure_hashes(const Graph& g,
                                                     bool drop_units);

/// µ-notation printer: "port(Record(L:rec X0. Choice(unit, ...), ...))".
[[nodiscard]] std::string print(const Graph& g, Ref r);

/// ASCII diagram of an Mtype (the textual stand-in for the GUI's Mtype
/// panel, paper Fig. 7).
[[nodiscard]] std::string diagram(const Graph& g, Ref r);

}  // namespace mbird::mtype
