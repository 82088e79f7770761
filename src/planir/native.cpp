// Native-marshal compilation: pair a coercion plan with an ImageLayout and
// lower to a program whose loads read scalar fields straight out of native
// image bytes. Two phases:
//
//   lower      — walk (plan node, dst Mtype, layout node) triples into an
//                NOp tree with absolute offsets baked in. Anything that
//                cannot be paired statically on all three sides becomes
//                LoadOpaque (materialize the subtree Value via read_image,
//                run the embedded convert program, wire::encode) — the same
//                oracle-fallback construction compile_marshal uses, so the
//                fused bytes cannot diverge from read→convert→encode.
//   specialize — within each record, merge maximal runs of contiguous
//                identity loads (native bytes == wire bytes for every
//                representable value, and no runtime check can fail) into
//                single BlockCopy ops. A fully-identity record propagates
//                its span upward, so nested records fuse too.
//
// The identity ("BlockCopy legality") rule per scalar:
//   * integers: unsigned native field, wire width == native width, wire
//     range exactly [0, 2^8w-1], plan range covering it, no annotated
//     range that could fail — and width 1 or a big-endian host (the wire
//     is big-endian; multi-byte loads on little-endian hosts reorder).
//   * chars: 1-byte native char against a narrow (1-byte) wire repertoire
//     (the cp > 0xff check cannot fail). Wide chars only with matching
//     4-byte width on a big-endian host.
//   * reals: identical width, big-endian host only.
//   * bools never fuse: the reader normalizes any nonzero byte to 1, so a
//     raw byte 2 would diverge from the two-phase output.
//   * enums never fuse (ordinal remapping), units join any run (0 bytes).
#include <bit>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "planir/planir.hpp"
#include "runtime/layout.hpp"
#include "wire/wire.hpp"

namespace mbird::planir {

using mtype::MKind;
using plan::PKind;
using plan::PlanNode;
using plan::PlanRef;
using plan::RecShape;
using runtime::ImageLayout;

namespace {

constexpr bool kBigEndianHost = std::endian::native == std::endian::big;

/// Largest value representable in `width` native bytes (width <= 8).
Int128 unsigned_max(uint32_t width) {
  return static_cast<Int128>(
      ((static_cast<unsigned __int128>(1) << (8 * width)) - 1));
}

struct NOp {
  OpCode op = OpCode::EmitNothing;
  uint32_t a = 0, b = 0;
  Int128 lo = 0, hi = 0;
  PlanRef origin = 0;
  std::vector<NOp> kids;  // NativeSeq only
  // Specializer metadata: identity means "the bytes this op emits are
  // exactly image[off, off+len)". Units are zero-length identity spans.
  bool identity = false;
  uint32_t off = 0, len = 0;
};

class NativeCompiler {
 public:
  NativeCompiler(const plan::PlanGraph& plan, Program& prog,
                 const mtype::Graph& dstg,
                 std::shared_ptr<const ImageLayout> layout)
      : plan_(plan), prog_(prog), dstg_(dstg), layout_(std::move(layout)) {}

  void run(PlanRef root, mtype::Ref dst_type) {
    if (!layout_ || layout_->nodes.empty()) {
      throw IrError(IrFault::NativeBounds, "native-marshal needs a layout");
    }
    prog_.mode = Program::Mode::NativeMarshal;
    prog_.dst_graph = &dstg_;
    prog_.src_layout = layout_;
    auto fb = std::make_shared<Program>(compile(plan_, root));
    for (uint32_t i = 0; i < fb->origin.size(); ++i) {
      fallback_index_[fb->origin[i]] = i;
    }
    prog_.fallback = std::move(fb);
    NOp tree = lower(root, dst_type, 0, 0);
    prog_.entry = emit(tree);
  }

 private:
  PlanRef resolve(PlanRef r) const {
    for (size_t steps = 0;; ++steps) {
      if (r == plan::kNullPlan) {
        throw IrError(IrFault::NullPlan, "null plan reference");
      }
      if (!plan_.contains(r)) {
        throw IrError(IrFault::OperandRange,
                      "plan reference " + std::to_string(r) + " out of range");
      }
      const PlanNode& n = plan_.at(r);
      if (n.kind != PKind::Alias) return r;
      if (steps > plan_.size()) {
        throw IrError(IrFault::AliasCycle,
                      "alias cycle through plan node " + std::to_string(r));
      }
      r = n.inner;
    }
  }

  uint32_t add_slot(Program::NativeSlot s) {
    prog_.natives.push_back(s);
    return static_cast<uint32_t>(prog_.natives.size() - 1);
  }

  uint32_t dst_idx(mtype::Ref d) {
    auto [it, fresh] =
        dst_index_.try_emplace(d, static_cast<uint32_t>(prog_.dst_types.size()));
    if (fresh) prog_.dst_types.push_back(d);
    return it->second;
  }

  NOp opaque(PlanRef p, mtype::Ref d, uint32_t lnode) {
    NOp o;
    o.op = OpCode::LoadOpaque;
    o.origin = p;
    o.a = add_slot({.src_off = 0,
                    .width = 0,
                    .layout_node = lnode,
                    .flags = 0,
                    .aux = fallback_index_.at(p)});
    o.b = dst_idx(d);
    return o;
  }

  /// Follow a plan source path through layout Record nodes. Returns false
  /// when the path cannot apply — and since the image shape is fully static,
  /// "cannot apply here" means "throws on every input", which LoadOpaque
  /// reproduces through the fallback interpreter.
  bool follow_layout(const mtype::Path& path, uint32_t& lnode) const {
    for (uint32_t step : path) {
      const ImageLayout::Node& ln = layout_->nodes[lnode];
      if (ln.kind != ImageLayout::K::Record || step >= ln.kids_len) {
        return false;
      }
      lnode = layout_->kids[ln.kids_off + step];
    }
    return true;
  }

  NOp lower(PlanRef p, mtype::Ref d, uint32_t lnode, int depth) {
    p = resolve(p);
    d = mtype::skip_var(dstg_, d);
    auto key = std::make_tuple(p, d, lnode);
    if (depth > 256 || !in_flight_.insert(key).second) {
      // A plan cycle that re-enters the same (plan, dst, layout) context
      // would never terminate here; the fallback interpreter handles it
      // (its own cycle checks ran when the convert program was verified).
      return opaque(p, d, lnode);
    }
    NOp out = lower_inner(p, d, lnode, depth);
    in_flight_.erase(key);
    return out;
  }

  NOp lower_inner(PlanRef p, mtype::Ref d, uint32_t lnode, int depth) {
    const PlanNode& n = plan_.at(p);
    const ImageLayout::Node& ln = layout_->nodes[lnode];

    // The image reader never produces List values, so ListMap either dies
    // at runtime or the plan was built for a different shape — both are the
    // fallback's business. PortMap and Custom need real Values.
    if (n.kind == PKind::ListMap || n.kind == PKind::PortMap ||
        n.kind == PKind::Custom) {
      return opaque(p, d, lnode);
    }
    if (n.kind == PKind::Extract) {
      if (n.fields.size() != 1) {
        throw IrError(IrFault::OperandRange,
                      "Extract node " + std::to_string(p) + " has " +
                          std::to_string(n.fields.size()) + " fields, wants 1");
      }
      // Extraction is free at compile time: the path is baked into the
      // child's offsets, so no instruction is emitted at all.
      uint32_t child = lnode;
      if (!follow_layout(n.fields[0].src_path, child)) {
        return opaque(p, d, lnode);
      }
      return lower(n.fields[0].op, d, child, depth + 1);
    }

    // Unfold non-list Rec wrappers exactly as compile_marshal does.
    mtype::Ref dd = d;
    std::set<mtype::Ref> seen;
    while (dstg_.at(dd).kind == MKind::Rec) {
      auto elems = mtype::match_list_shape(dstg_, dd);
      if ((elems && elems->size() == 1) || !seen.insert(dd).second) {
        return opaque(p, d, lnode);
      }
      dd = mtype::skip_var(dstg_, dstg_.at(dd).body());
    }
    const mtype::Node& dn = dstg_.at(dd);

    switch (n.kind) {
      case PKind::UnitMake: {
        if (dn.kind != MKind::Unit) return opaque(p, d, lnode);
        NOp o;
        o.op = OpCode::EmitNothing;
        o.origin = p;
        o.identity = true;  // zero bytes: joins any copy run
        return o;
      }
      case PKind::IntCopy: return lower_int(n, p, d, dd, dn, lnode, ln);
      case PKind::RealCopy: {
        if (dn.kind != MKind::Real ||
            (ln.kind != ImageLayout::K::F32 && ln.kind != ImageLayout::K::F64)) {
          return opaque(p, d, lnode);
        }
        NOp o;
        o.op = dn.mantissa_bits <= 24 ? OpCode::LoadReal32 : OpCode::LoadReal64;
        o.origin = p;
        o.a = add_slot({.src_off = ln.offset,
                        .width = ln.width,
                        .layout_node = lnode,
                        .flags = 0,
                        .aux = 0});
        uint32_t wire_w = o.op == OpCode::LoadReal32 ? 4 : 8;
        if (kBigEndianHost && ln.width == wire_w) {
          o.identity = true;
          o.off = ln.offset;
          o.len = ln.width;
        }
        return o;
      }
      case PKind::CharCopy: {
        if (dn.kind != MKind::Char || ln.kind != ImageLayout::K::Char) {
          return opaque(p, d, lnode);
        }
        bool narrow = dn.repertoire == stype::Repertoire::Ascii ||
                      dn.repertoire == stype::Repertoire::Latin1;
        NOp o;
        o.op = narrow ? OpCode::LoadChar1 : OpCode::LoadChar4;
        o.origin = p;
        o.a = add_slot({.src_off = ln.offset,
                        .width = ln.width,
                        .layout_node = lnode,
                        .flags = 0,
                        .aux = 0});
        if (narrow && ln.width == 1) {
          // One native byte, one wire byte, and the repertoire check cannot
          // fire (a byte is always <= 0xff).
          o.identity = true;
          o.off = ln.offset;
          o.len = 1;
        } else if (!narrow && ln.width == 4 && kBigEndianHost) {
          o.identity = true;
          o.off = ln.offset;
          o.len = 4;
        }
        return o;
      }
      case PKind::RecordMap: return lower_record(n, p, d, dd, lnode, depth);
      case PKind::ChoiceMap: {
        if (n.arms.empty()) {
          throw IrError(IrFault::EmptyChoice,
                        "choice node " + std::to_string(p) + " has no arms");
        }
        return lower_choice(n, p, d, dd, lnode, depth);
      }
      case PKind::ListMap:
      case PKind::PortMap:
      case PKind::Custom:
      case PKind::Extract:
      case PKind::Alias: break;  // handled above / resolved away
    }
    return opaque(p, d, lnode);
  }

  NOp lower_int(const PlanNode& n, PlanRef p, mtype::Ref d, mtype::Ref dd,
                const mtype::Node& dn, uint32_t lnode,
                const ImageLayout::Node& ln) {
    bool int_like = ln.kind == ImageLayout::K::UInt ||
                    ln.kind == ImageLayout::K::SInt ||
                    ln.kind == ImageLayout::K::Bool;
    if (dn.kind != MKind::Int || (!int_like && ln.kind != ImageLayout::K::Enum)) {
      return opaque(p, d, lnode);
    }
    uint32_t wire_w = wire::int_width(dn.lo, dn.hi);
    NOp o;
    o.origin = p;
    o.b = dst_idx(dd);
    o.lo = n.lo;
    o.hi = n.hi;
    if (ln.kind == ImageLayout::K::Enum) {
      o.op = OpCode::LoadEnum;
      o.a = add_slot({.src_off = ln.offset,
                      .width = ln.width,
                      .layout_node = lnode,
                      .flags = 0,
                      .aux = wire_w});
      return o;  // ordinal remapping: never an identity span
    }
    uint32_t flags = 0;
    if (ln.kind == ImageLayout::K::SInt) flags |= Program::NativeSlot::kSigned;
    if (ln.kind == ImageLayout::K::Bool) flags |= Program::NativeSlot::kBool;
    o.op = OpCode::LoadInt;
    o.a = add_slot({.src_off = ln.offset,
                    .width = ln.width,
                    .layout_node = lnode,
                    .flags = flags,
                    .aux = wire_w});
    // BlockCopy legality: every representable byte pattern must encode to
    // exactly its own bytes, and no check along the way may fail.
    Int128 max = unsigned_max(ln.width);
    bool no_read_check = !(ln.has_lo && ln.lo > 0) && !(ln.has_hi && ln.hi < max);
    bool plan_covers = n.lo <= 0 && n.hi >= max;
    bool wire_identity = dn.lo == 0 && dn.hi >= max && wire_w == ln.width;
    bool order_ok = ln.width == 1 || kBigEndianHost;
    if (ln.kind == ImageLayout::K::UInt && no_read_check && plan_covers &&
        wire_identity && order_ok) {
      o.identity = true;
      o.off = ln.offset;
      o.len = ln.width;
    }
    return o;
  }

  NOp lower_record(const PlanNode& n, PlanRef p, mtype::Ref d, mtype::Ref dd,
                   uint32_t lnode, int depth) {
    // Pair the skeleton against the destination exactly as compile_marshal's
    // pair_record does, collecting (field, dst) leaves in traversal (= wire)
    // order. Native programs do not rebuild structure, so the leaves are all
    // we keep: record nesting and unit tokens emit nothing.
    struct Frame {
      const RecShape* s;
      mtype::Ref d;
    };
    std::vector<Frame> stack{{&n.dst_shape, dd}};
    std::vector<std::pair<uint32_t, mtype::Ref>> leaves;
    std::vector<bool> used(n.fields.size(), false);
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      const mtype::Node& node = dstg_.at(f.d);
      switch (f.s->kind) {
        case RecShape::Kind::Unit:
          if (node.kind != MKind::Unit) return opaque(p, d, lnode);
          break;
        case RecShape::Kind::Leaf: {
          uint32_t orig = f.s->leaf_index;
          if (orig >= n.fields.size() || used[orig]) {
            throw IrError(IrFault::MalformedShape,
                          "record skeleton does not cover its fields");
          }
          used[orig] = true;
          leaves.push_back({orig, f.d});
          break;
        }
        case RecShape::Kind::Record: {
          if (node.kind != MKind::Record ||
              node.children.size() != f.s->kids.size()) {
            return opaque(p, d, lnode);
          }
          for (size_t i = f.s->kids.size(); i-- > 0;) {
            stack.push_back({&f.s->kids[i], node.children[i]});
          }
          break;
        }
      }
    }
    if (leaves.size() != n.fields.size()) {
      throw IrError(IrFault::MalformedShape,
                    "record skeleton does not cover its fields");
    }
    std::vector<NOp> kids;
    kids.reserve(leaves.size());
    for (const auto& [orig, leaf_d] : leaves) {
      const plan::FieldMove& mv = n.fields[orig];
      uint32_t child = lnode;
      if (!follow_layout(mv.src_path, child)) return opaque(p, d, lnode);
      kids.push_back(lower(mv.op, leaf_d, child, depth + 1));
    }
    return seal_seq(std::move(kids), p, lnode);
  }

  NOp lower_choice(const PlanNode& n, PlanRef p, mtype::Ref d, mtype::Ref dd,
                   uint32_t lnode, int depth) {
    // The image reader never produces Choice or List values, so the trie
    // dispatch can only ever take the empty-source-path arm (the trie root's
    // terminal, which dispatch_choice matches before looking at the value).
    // If such an arm exists the whole choice is statically resolved:
    // precomputed discriminant prefix bytes plus the arm's op. Otherwise
    // dispatch always throws, which the fallback reproduces.
    const plan::ArmMove* hit = nullptr;
    for (const auto& mv : n.arms) {
      if (mv.src_path.empty()) {
        hit = &mv;
        break;
      }
    }
    if (hit == nullptr) return opaque(p, d, lnode);
    // Walk the destination path to build the prefix, as pair_choice does.
    mtype::Ref cur = dd;
    std::vector<uint8_t> prefix;
    for (uint32_t arm_idx : hit->dst_path) {
      const mtype::Node& node = dstg_.at(cur);
      if (node.kind != MKind::Choice || arm_idx >= node.children.size()) {
        return opaque(p, d, lnode);
      }
      for (int shift = 24; shift >= 0; shift -= 8) {
        prefix.push_back(
            static_cast<uint8_t>(arm_idx >> static_cast<unsigned>(shift)));
      }
      cur = node.children[arm_idx];
    }
    NOp payload = lower(hit->op, cur, lnode, depth + 1);
    if (prefix.empty()) return payload;
    NOp pre;
    pre.op = OpCode::ConstBytes;
    pre.origin = p;
    pre.a = static_cast<uint32_t>(prog_.byte_pool.size());
    pre.b = static_cast<uint32_t>(prefix.size());
    prog_.byte_pool.insert(prog_.byte_pool.end(), prefix.begin(), prefix.end());
    std::vector<NOp> kids;
    kids.push_back(std::move(pre));
    kids.push_back(std::move(payload));
    return seal_seq(std::move(kids), p, lnode);
  }

  /// Specialize a sequence's children (BlockCopy merging), then collapse
  /// trivial sequences so identity spans propagate upward.
  NOp seal_seq(std::vector<NOp> kids, PlanRef p, uint32_t lnode) {
    specialize(kids, lnode);
    if (kids.empty()) {
      NOp o;
      o.op = OpCode::EmitNothing;
      o.origin = p;
      o.identity = true;
      return o;
    }
    if (kids.size() == 1) return std::move(kids[0]);
    NOp seq;
    seq.op = OpCode::NativeSeq;
    seq.origin = p;
    // The sequence itself is an identity span when its children form one
    // contiguous identity run (possible without a merge when only one child
    // has a nonzero span) — the parent record may then fuse across it.
    bool identity = true;
    bool have = false;
    uint32_t off = 0, end = 0;
    for (const NOp& k : kids) {
      if (!k.identity) {
        identity = false;
        break;
      }
      if (k.len == 0) continue;
      if (!have) {
        have = true;
        off = k.off;
        end = k.off + k.len;
      } else if (k.off == end) {
        end += k.len;
      } else {
        identity = false;
        break;
      }
    }
    if (identity) {
      seq.identity = true;
      seq.off = have ? off : 0;
      seq.len = have ? end - off : 0;
    }
    seq.kids = std::move(kids);
    return seq;
  }

  /// Replace every maximal run of >= 2 contiguous nonzero identity spans
  /// (zero-length identities join any run) with a single BlockCopy.
  void specialize(std::vector<NOp>& kids, uint32_t lnode) {
    std::vector<NOp> out;
    out.reserve(kids.size());
    size_t i = 0;
    while (i < kids.size()) {
      if (!kids[i].identity) {
        out.push_back(std::move(kids[i++]));
        continue;
      }
      // Extend the run while spans stay contiguous.
      size_t j = i;
      size_t nonzero = 0;
      bool have = false;
      uint32_t off = 0, end = 0;
      while (j < kids.size() && kids[j].identity) {
        if (kids[j].len != 0) {
          if (!have) {
            have = true;
            off = kids[j].off;
            end = kids[j].off + kids[j].len;
          } else if (kids[j].off == end) {
            end += kids[j].len;
          } else {
            break;  // padding gap or reordering: the run stops here
          }
          ++nonzero;
        }
        ++j;
      }
      if (nonzero >= 2) {
        NOp bc;
        bc.op = OpCode::BlockCopy;
        bc.origin = kids[i].origin;
        bc.a = add_slot({.src_off = off,
                         .width = end - off,
                         .layout_node = lnode,
                         .flags = 0,
                         .aux = 0});
        bc.identity = true;
        bc.off = off;
        bc.len = end - off;
        out.push_back(std::move(bc));
      } else {
        for (size_t k = i; k < j; ++k) out.push_back(std::move(kids[k]));
      }
      i = j;
    }
    kids = std::move(out);
  }

  /// Post-order emission of the NOp tree into the flat program.
  uint32_t emit(NOp& t) {
    Instr ins;
    ins.op = t.op;
    ins.a = t.a;
    ins.b = t.b;
    ins.lo = t.lo;
    ins.hi = t.hi;
    if (t.op == OpCode::NativeSeq) {
      std::vector<uint32_t> kid_idx;
      kid_idx.reserve(t.kids.size());
      for (NOp& k : t.kids) kid_idx.push_back(emit(k));
      Program::RecordTab rt;
      rt.fields_off = static_cast<uint32_t>(prog_.fields.size());
      rt.fields_len = static_cast<uint32_t>(kid_idx.size());
      for (uint32_t op : kid_idx) {
        Program::Field f;
        f.op = op;
        prog_.fields.push_back(f);
      }
      ins.a = static_cast<uint32_t>(prog_.records.size());
      prog_.records.push_back(rt);
    }
    prog_.code.push_back(ins);
    prog_.origin.push_back(t.origin);
    return static_cast<uint32_t>(prog_.code.size() - 1);
  }

  const plan::PlanGraph& plan_;
  Program& prog_;
  const mtype::Graph& dstg_;
  std::shared_ptr<const ImageLayout> layout_;
  std::map<mtype::Ref, uint32_t> dst_index_;
  std::map<PlanRef, uint32_t> fallback_index_;
  std::set<std::tuple<PlanRef, mtype::Ref, uint32_t>> in_flight_;
};

}  // namespace

Program compile_native_marshal(const plan::PlanGraph& plan, plan::PlanRef root,
                               const mtype::Graph& dst_graph,
                               mtype::Ref dst_type,
                               std::shared_ptr<const ImageLayout> layout) {
  Program prog;
  NativeCompiler(plan, prog, dst_graph, std::move(layout)).run(root, dst_type);
  return prog;
}

}  // namespace mbird::planir
