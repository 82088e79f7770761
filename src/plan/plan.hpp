// Coercion plans (paper §4): "an internal data structure that incorporates
// discovered structural correspondences between the two Mtypes".
//
// A plan is a graph of conversion ops; cycles mirror cycles in the Mtypes
// (recursive types). A plan node converts a value shaped like the source
// Mtype node into a value shaped like the target Mtype node:
//
//   IntCopy / RealCopy / CharCopy / UnitMake — primitive moves
//   RecordMap — reshapes records: each target leaf is fetched from a source
//               path (associativity may map one source child to a nested
//               target position and vice versa; commutativity permutes)
//   ChoiceMap — maps each (flattened) source arm to a target arm
//   ListMap   — converts canonical lists elementwise
//   PortMap   — wraps a port; the inner plan converts messages *sent to*
//               the converted port back to the original message shape
//               (contravariance)
//   Alias     — indirection used to tie recursive plan knots
//
// Plans are built by the Comparer and consumed by both the interpreter
// (src/runtime) and the stub code generator (src/codegen).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mtype/mtype.hpp"
#include "support/wide_int.hpp"

namespace mbird::plan {

using PlanRef = uint32_t;
inline constexpr PlanRef kNullPlan = 0xffffffffu;

enum class PKind : uint8_t {
  UnitMake,
  IntCopy,
  RealCopy,
  CharCopy,
  RecordMap,
  ChoiceMap,
  ListMap,
  PortMap,
  Alias,
  Extract,  // unit-elimination: take the single component out of a record
  Custom,   // a named hand-written conversion (paper §6: semantic
            // conversions composed with the structural ones); `note`
            // holds the converter name resolved at runtime/codegen
};
[[nodiscard]] const char* to_string(PKind k);

/// How one target leaf of a RecordMap is produced.
struct FieldMove {
  mtype::Path src_path;  // child indices into the (nested) source record
  mtype::Path dst_path;  // child indices into the (nested) target record
  PlanRef op = kNullPlan;
};

/// How one (flattened) source arm of a ChoiceMap converts.
struct ArmMove {
  mtype::Path src_path;  // arm indices into the nested source choice
  mtype::Path dst_path;  // arm indices into the nested target choice
  PlanRef op = kNullPlan;
};

/// Skeleton of the target record: tells the interpreter how to rebuild the
/// nested structure (including Unit positions elided by unit-elimination).
struct RecShape {
  enum class Kind : uint8_t { Leaf, Record, Unit };
  Kind kind = Kind::Leaf;
  uint32_t leaf_index = 0;  // into PlanNode::fields when kind == Leaf
  std::vector<RecShape> kids;
};

struct PlanNode {
  PKind kind = PKind::UnitMake;

  // IntCopy: target range (useful to code generators emitting checks for
  // data arriving from unannotated native representations).
  Int128 lo = 0;
  Int128 hi = 0;

  // RecordMap
  std::vector<FieldMove> fields;
  RecShape dst_shape;

  // ChoiceMap
  std::vector<ArmMove> arms;

  // ListMap (element plan) / PortMap (message plan) / Alias (target)
  PlanRef inner = kNullPlan;

  // PortMap only: the Mtypes involved, so the rpc layer can type proxy
  // ports. `dst_msg` is what the converted port accepts (the plan's inner
  // converts dst-shaped messages back to src-shaped ones, contravariantly);
  // `src_msg` is what the original port accepts. The *_in_left flags say
  // which of the two compared graphs each ref points into (left = the
  // comparison's first graph).
  mtype::Ref port_dst_msg = mtype::kNullRef;
  bool port_dst_in_left = false;
  mtype::Ref port_src_msg = mtype::kNullRef;
  bool port_src_in_left = false;

  // Diagnostic note: source/target Mtype names.
  std::string note;
};

/// Calls `f(PlanRef&)` on every child ref of `n` (Alias/ListMap/PortMap
/// inner, RecordMap/Extract field ops, ChoiceMap arm ops), in the order
/// planir, the store codec and the cache walk them.
template <class Node, class F>
void for_each_child(Node& n, F&& f) {
  switch (n.kind) {
    case PKind::ListMap:
    case PKind::PortMap:
    case PKind::Alias: f(n.inner); break;
    case PKind::RecordMap:
    case PKind::Extract:
      for (auto& m : n.fields) f(m.op);
      break;
    case PKind::ChoiceMap:
      for (auto& a : n.arms) f(a.op);
      break;
    default: break;
  }
}

/// Refs with this bit set name nodes of a PlanGraph's shared arena; the
/// rest index its local layer. kNullPlan has the bit set too, so test
/// with is_shared().
inline constexpr PlanRef kSharedBit = 0x80000000u;
[[nodiscard]] constexpr bool is_shared(PlanRef r) {
  return r != kNullPlan && (r & kSharedBit) != 0;
}
[[nodiscard]] constexpr PlanRef shared_ref(uint32_t index) {
  return kSharedBit | index;
}
[[nodiscard]] constexpr uint32_t shared_index(PlanRef r) {
  return r & ~kSharedBit;
}

/// The memo key a plan node is a complete proof of, for the cache that
/// publishes it: strict canonical ids of the two compared Mtype classes
/// and the comparison's options fingerprint (compare::CrossCache::Key).
/// `left == kNoProof` marks interior steps that prove no pair on their own.
struct ProofKey {
  static constexpr uint32_t kNoProof = 0xffffffffu;
  uint32_t left = kNoProof;
  uint32_t right = kNoProof;
  uint8_t fp = 0;
  [[nodiscard]] bool operator==(const ProofKey&) const = default;
};

/// Append-only plan-node store shared by many PlanGraphs (one per
/// compare::CrossCache): a proved sub-plan lives here once and every plan
/// that uses it refers to it. Nodes never move (chunks of doubling size)
/// and never change once a ref to them has been handed to another
/// thread, so readers take no lock. Writers reserve a contiguous range
/// under one lock, fill it, and only then publish refs to it (the cache
/// does that under its shard lock).
class PlanArena {
 public:
  struct Slot {
    PlanNode node;
    ProofKey proves;            // published proofs carry their memo key
    bool reaches_port = false;  // the node or a descendant is a PortMap
  };

  PlanArena() = default;
  ~PlanArena();
  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;

  [[nodiscard]] size_t size() const {
    return size_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const Slot& slot(uint32_t i) const { return *locate(i); }
  /// Writer access to slots this thread reserved and has not yet published.
  [[nodiscard]] Slot& slot_mut(uint32_t i) { return *locate(i); }
  /// Reserve `n` contiguous default slots; returns the first index.
  uint32_t reserve(uint32_t n);

 private:
  static constexpr unsigned kFirstLog = 6;  // chunk k holds 64 << k slots
  static constexpr unsigned kChunks = 32 - kFirstLog;
  static constexpr size_t chunk_len(unsigned k) {
    return size_t{1} << (kFirstLog + k);
  }
  static constexpr unsigned chunk_of(uint32_t i) {
    return static_cast<unsigned>(63 - __builtin_clzll(i + chunk_len(0))) -
           kFirstLog;
  }
  [[nodiscard]] Slot* locate(uint32_t i) const {
    const unsigned k = chunk_of(i);
    return chunks_[k].load(std::memory_order_acquire) +
           (i + chunk_len(0) - chunk_len(k));
  }

  std::mutex mu_;  // serializes reserve()
  std::atomic<size_t> size_{0};
  std::array<std::atomic<Slot*>, kChunks> chunks_{};
};

/// A plan: a local layer of nodes this plan built, above an optional
/// shared arena of proofs it refers to. at() resolves both; add(),
/// at_mut() and checkpoint()/rollback() touch only the local layer. The
/// graph holds shared ownership of the arena, so a plan outlives the
/// comparison and the cache that built it.
class PlanGraph {
 public:
  PlanGraph() = default;
  /// `local` seeds the local layer (a decoded fragment, say).
  explicit PlanGraph(std::shared_ptr<PlanArena> shared,
                     std::vector<PlanNode> local = {})
      : shared_(std::move(shared)), nodes_(std::move(local)) {}

  [[nodiscard]] const PlanNode& at(PlanRef r) const {
    return (r & kSharedBit) != 0 ? shared_->slot(shared_index(r)).node
                                 : nodes_[r];
  }
  /// Local nodes only: an arena node may be part of other plans, so
  /// editing one through a shared ref throws std::logic_error.
  [[nodiscard]] PlanNode& at_mut(PlanRef r);
  [[nodiscard]] bool contains(PlanRef r) const {
    return is_shared(r) ? shared_ != nullptr && shared_index(r) < shared_->size()
                        : r < nodes_.size();
  }
  /// Addressable nodes: local layer plus arena.
  [[nodiscard]] size_t size() const {
    return nodes_.size() + (shared_ ? shared_->size() : 0);
  }
  [[nodiscard]] size_t local_size() const { return nodes_.size(); }
  [[nodiscard]] const std::shared_ptr<PlanArena>& shared() const { return shared_; }

  PlanRef add(PlanNode n) {
    nodes_.push_back(std::move(n));
    return static_cast<PlanRef>(nodes_.size() - 1);
  }

  /// Backtracking support for the Comparer: truncate the local layer to a
  /// checkpoint taken before a speculative match. The arena is untouched.
  [[nodiscard]] size_t checkpoint() const { return nodes_.size(); }
  void rollback(size_t checkpoint) {
    nodes_.resize(checkpoint);
    if (moved_.size() > checkpoint) moved_.resize(checkpoint);
  }

  /// The arena ref a published local node moved to, else `r` itself.
  [[nodiscard]] PlanRef forward(PlanRef r) const {
    return r < moved_.size() && moved_[r] != kNullPlan ? moved_[r] : r;
  }

  struct Published {
    PlanRef root = kNullPlan;  // shared ref, or kNullPlan when refused
    bool has_port = false;     // the published plan contains a PortMap
    uint32_t minted = 0;       // arena nodes this call appended
  };
  /// Move the local nodes reachable from `root` into the arena (one
  /// reserve), rewriting their refs; the walk stops at shared and
  /// already-published nodes. Each moved local slot becomes an Alias to
  /// its arena copy, so local parents stay valid. Refused (nothing moves)
  /// when there is no arena or the subgraph has a null ref — a knot whose
  /// body is still being built is not a self-contained proof.
  Published publish(PlanRef root, const ProofKey& proves = {});

 private:
  std::shared_ptr<PlanArena> shared_;
  std::vector<PlanNode> nodes_;
  std::vector<PlanRef> moved_;  // local index -> arena ref (kNullPlan: not moved)
};

/// Create a Custom node invoking the named hand-written converter.
[[nodiscard]] PlanRef make_custom(PlanGraph& g, const std::string& converter_name);

/// Splice `replacement` in place of the existing op for the RecordMap
/// field of `record_node` whose destination path is `dst` (composing
/// hand-written conversions with structural plans, paper §6). Returns
/// false if no such field exists.
bool replace_field_op(PlanGraph& g, PlanRef record_node, const mtype::Path& dst,
                      PlanRef replacement);

/// Human-readable plan dump (tests, `mbird plan` CLI output).
[[nodiscard]] std::string print(const PlanGraph& g, PlanRef root);

/// Structural validation: every referenced PlanRef is in range, every
/// RecordMap leaf index is covered by its shape, every ChoiceMap has
/// distinct source paths. Returns problems as strings (empty = valid).
[[nodiscard]] std::vector<std::string> validate(const PlanGraph& g, PlanRef root);

}  // namespace mbird::plan
