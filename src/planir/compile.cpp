#include <deque>
#include <map>
#include <set>
#include <utility>

#include "planir/planir.hpp"
#include "wire/wire.hpp"

namespace mbird::planir {

using mtype::MKind;
using plan::PKind;
using plan::PlanNode;
using plan::PlanRef;
using plan::RecShape;

const char* to_string(OpCode op) {
  switch (op) {
    case OpCode::MakeUnit: return "make_unit";
    case OpCode::CopyInt: return "copy_int";
    case OpCode::CopyReal: return "copy_real";
    case OpCode::CopyChar: return "copy_char";
    case OpCode::CopyPort: return "copy_port";
    case OpCode::BuildRecord: return "build_record";
    case OpCode::MatchChoice: return "match_choice";
    case OpCode::MapList: return "map_list";
    case OpCode::ExtractField: return "extract_field";
    case OpCode::CallCustom: return "call_custom";
    case OpCode::EmitNothing: return "emit_nothing";
    case OpCode::EmitInt: return "emit_int";
    case OpCode::EmitReal32: return "emit_real32";
    case OpCode::EmitReal64: return "emit_real64";
    case OpCode::EmitChar1: return "emit_char1";
    case OpCode::EmitChar4: return "emit_char4";
    case OpCode::EmitPort: return "emit_port";
    case OpCode::EmitRecord: return "emit_record";
    case OpCode::EmitChoice: return "emit_choice";
    case OpCode::EmitList: return "emit_list";
    case OpCode::EmitExtract: return "emit_extract";
    case OpCode::EmitCustom: return "emit_custom";
    case OpCode::EmitOpaque: return "emit_opaque";
    case OpCode::LoadInt: return "load_int";
    case OpCode::LoadReal32: return "load_real32";
    case OpCode::LoadReal64: return "load_real64";
    case OpCode::LoadChar1: return "load_char1";
    case OpCode::LoadChar4: return "load_char4";
    case OpCode::LoadEnum: return "load_enum";
    case OpCode::NativeSeq: return "native_seq";
    case OpCode::BlockCopy: return "block_copy";
    case OpCode::ConstBytes: return "const_bytes";
    case OpCode::LoadOpaque: return "load_opaque";
  }
  return "?";
}

namespace {

/// State shared by both compilation modes: table builders over one Program.
class Builder {
 public:
  Builder(const plan::PlanGraph& plan, Program& prog) : plan_(plan), prog_(prog) {}

  /// Chase Alias chains to the first real op. Rejects null refs, refs past
  /// the plan graph, and alias cycles (a cycle of pure indirections can
  /// never produce a value).
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

  uint32_t put_path(const mtype::Path& p) {
    uint32_t off = static_cast<uint32_t>(prog_.path_pool.size());
    prog_.path_pool.insert(prog_.path_pool.end(), p.begin(), p.end());
    return off;
  }

  uint32_t intern_custom(const std::string& name) {
    for (uint32_t i = 0; i < prog_.custom_names.size(); ++i) {
      if (prog_.custom_names[i] == name) return i;
    }
    prog_.custom_names.push_back(name);
    return static_cast<uint32_t>(prog_.custom_names.size() - 1);
  }

  /// Serialize a RecShape as postfix tokens (iterative post-order) while
  /// collecting the leaves in traversal order. Leaf token args are
  /// renumbered to traversal position; `leaf_order[k]` is the original
  /// PlanNode::fields index the k-th leaf referred to.
  void put_shape(const RecShape& shape, size_t field_count,
                 Program::RecordTab& rt, std::vector<uint32_t>& leaf_order) {
    rt.shape_off = static_cast<uint32_t>(prog_.shape_pool.size());
    struct Frame {
      const RecShape* s;
      size_t next_kid = 0;
    };
    std::vector<Frame> stack{{&shape}};
    std::vector<bool> used(field_count, false);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.s->kind == RecShape::Kind::Record && f.next_kid < f.s->kids.size()) {
        stack.push_back({&f.s->kids[f.next_kid++]});
        continue;
      }
      Program::ShapeTok tok;
      switch (f.s->kind) {
        case RecShape::Kind::Unit:
          tok.kind = Program::ShapeTok::K::Unit;
          break;
        case RecShape::Kind::Leaf: {
          uint32_t orig = f.s->leaf_index;
          if (orig >= field_count) {
            throw IrError(IrFault::OperandRange,
                          "shape leaf " + std::to_string(orig) +
                              " has no field (record has " +
                              std::to_string(field_count) + ")");
          }
          if (used[orig]) {
            throw IrError(IrFault::MalformedShape,
                          "field " + std::to_string(orig) +
                              " referenced twice by record skeleton");
          }
          used[orig] = true;
          tok.kind = Program::ShapeTok::K::Leaf;
          tok.arg = static_cast<uint32_t>(leaf_order.size());
          leaf_order.push_back(orig);
          break;
        }
        case RecShape::Kind::Record:
          tok.kind = Program::ShapeTok::K::Rec;
          tok.arg = static_cast<uint32_t>(f.s->kids.size());
          break;
      }
      prog_.shape_pool.push_back(tok);
      stack.pop_back();
    }
    if (leaf_order.size() != field_count) {
      throw IrError(IrFault::MalformedShape,
                    "record skeleton covers " + std::to_string(leaf_order.size()) +
                        " of " + std::to_string(field_count) + " fields");
    }
    rt.shape_len = static_cast<uint32_t>(prog_.shape_pool.size()) - rt.shape_off;
  }

  /// Build the arm-dispatch trie for one choice. Arms were already appended
  /// to prog_.arms at [arms_off, arms_off+count). Children end up at larger
  /// node indices than their parents (BFS numbering), which is the
  /// acyclicity invariant the verifier re-checks.
  void put_trie(Program::ChoiceTab& ct, uint32_t arms_off, uint32_t count) {
    struct Tmp {
      int32_t terminal = -1;
      std::map<uint32_t, size_t> kids;
    };
    std::vector<Tmp> tmp(1);
    for (uint32_t i = 0; i < count; ++i) {
      const Program::Arm& arm = prog_.arms[arms_off + i];
      size_t cur = 0;
      for (uint32_t k = 0; k < arm.src_len; ++k) {
        uint32_t label = prog_.path_pool[arm.src_off + k];
        auto [it, fresh] = tmp[cur].kids.try_emplace(label, tmp.size());
        if (fresh) tmp.emplace_back();
        cur = it->second;
      }
      if (tmp[cur].terminal >= 0) {
        throw IrError(IrFault::DuplicateArm,
                      "choice arms " + std::to_string(tmp[cur].terminal) +
                          " and " + std::to_string(i) +
                          " share a source path");
      }
      tmp[cur].terminal = static_cast<int32_t>(i);
    }
    // BFS renumber into the global pool.
    std::vector<uint32_t> global(tmp.size());
    std::deque<size_t> order{0};
    std::vector<size_t> bfs;
    while (!order.empty()) {
      size_t t = order.front();
      order.pop_front();
      global[t] = static_cast<uint32_t>(prog_.trie.size() + bfs.size());
      bfs.push_back(t);
      for (const auto& [label, kid] : tmp[t].kids) order.push_back(kid);
    }
    ct.trie_root = global[0];
    for (size_t t : bfs) {
      Program::TrieNode tn;
      tn.terminal = tmp[t].terminal;
      if (!tmp[t].kids.empty()) {
        uint32_t max_label = tmp[t].kids.rbegin()->first;
        tn.kids_off = static_cast<uint32_t>(prog_.trie_kids.size());
        tn.kids_len = max_label + 1;
        prog_.trie_kids.insert(prog_.trie_kids.end(), tn.kids_len, -1);
        for (const auto& [label, kid] : tmp[t].kids) {
          prog_.trie_kids[tn.kids_off + label] =
              static_cast<int32_t>(global[kid]);
        }
      }
      prog_.trie.push_back(tn);
    }
  }

  const PlanNode& check_extract(PlanRef r) const {
    const PlanNode& n = plan_.at(r);
    if (n.fields.size() != 1) {
      throw IrError(IrFault::OperandRange,
                    "Extract node " + std::to_string(r) + " has " +
                        std::to_string(n.fields.size()) + " fields, wants 1");
    }
    return n;
  }

 protected:
  const plan::PlanGraph& plan_;
  Program& prog_;
};

// ---- convert mode -----------------------------------------------------------

class ConvertCompiler : Builder {
 public:
  ConvertCompiler(const plan::PlanGraph& plan, Program& prog)
      : Builder(plan, prog) {}

  void run(PlanRef root) {
    prog_.mode = Program::Mode::Convert;
    prog_.entry = instr_of(root);
    while (!todo_.empty()) {
      auto [r, idx] = todo_.front();
      todo_.pop_front();
      translate(r, idx);
    }
  }

 private:
  uint32_t instr_of(PlanRef r) {
    r = resolve(r);
    auto [it, fresh] =
        index_.try_emplace(r, static_cast<uint32_t>(prog_.code.size()));
    if (fresh) {
      prog_.code.emplace_back();
      prog_.origin.push_back(r);
      todo_.push_back({r, it->second});
    }
    return it->second;
  }

  uint32_t add_field(const plan::FieldMove& mv) {
    Program::Field f;
    f.src_off = put_path(mv.src_path);
    f.src_len = static_cast<uint32_t>(mv.src_path.size());
    f.dst_off = put_path(mv.dst_path);
    f.dst_len = static_cast<uint32_t>(mv.dst_path.size());
    f.op = instr_of(mv.op);
    prog_.fields.push_back(f);
    return static_cast<uint32_t>(prog_.fields.size() - 1);
  }

  void translate(PlanRef r, uint32_t idx) {
    const PlanNode& n = plan_.at(r);
    Instr ins;
    switch (n.kind) {
      case PKind::UnitMake: ins.op = OpCode::MakeUnit; break;
      case PKind::IntCopy:
        ins.op = OpCode::CopyInt;
        ins.lo = n.lo;
        ins.hi = n.hi;
        break;
      case PKind::RealCopy: ins.op = OpCode::CopyReal; break;
      case PKind::CharCopy: ins.op = OpCode::CopyChar; break;
      case PKind::PortMap:
        ins.op = OpCode::CopyPort;
        ins.a = r;
        break;
      case PKind::ListMap:
        ins.op = OpCode::MapList;
        ins.a = instr_of(n.inner);
        break;
      case PKind::Extract:
        ins.op = OpCode::ExtractField;
        ins.a = add_field(check_extract(r).fields[0]);
        break;
      case PKind::Custom:
        ins.op = OpCode::CallCustom;
        ins.a = intern_custom(n.note);
        break;
      case PKind::RecordMap: {
        ins.op = OpCode::BuildRecord;
        Program::RecordTab rt;
        std::vector<uint32_t> leaf_order;
        put_shape(n.dst_shape, n.fields.size(), rt, leaf_order);
        rt.fields_off = static_cast<uint32_t>(prog_.fields.size());
        rt.fields_len = static_cast<uint32_t>(n.fields.size());
        // Traversal order: field k of the table is the k-th skeleton leaf.
        for (uint32_t orig : leaf_order) add_field(n.fields[orig]);
        ins.a = static_cast<uint32_t>(prog_.records.size());
        prog_.records.push_back(rt);
        break;
      }
      case PKind::ChoiceMap: {
        ins.op = OpCode::MatchChoice;
        if (n.arms.empty()) {
          throw IrError(IrFault::EmptyChoice,
                        "choice node " + std::to_string(r) + " has no arms");
        }
        Program::ChoiceTab ct;
        ct.arms_off = static_cast<uint32_t>(prog_.arms.size());
        ct.arms_len = static_cast<uint32_t>(n.arms.size());
        for (const auto& mv : n.arms) {
          Program::Arm arm;
          arm.src_off = put_path(mv.src_path);
          arm.src_len = static_cast<uint32_t>(mv.src_path.size());
          arm.dst_off = put_path(mv.dst_path);
          arm.dst_len = static_cast<uint32_t>(mv.dst_path.size());
          arm.op = instr_of(mv.op);
          prog_.arms.push_back(arm);
        }
        put_trie(ct, ct.arms_off, ct.arms_len);
        ins.a = static_cast<uint32_t>(prog_.choices.size());
        prog_.choices.push_back(ct);
        break;
      }
      case PKind::Alias: break;  // unreachable: resolve() chased these away
    }
    prog_.code[idx] = ins;
  }

  std::map<PlanRef, uint32_t> index_;
  std::deque<std::pair<PlanRef, uint32_t>> todo_;
};

// ---- marshal (fused convert+encode) mode ------------------------------------

class MarshalCompiler : Builder {
 public:
  MarshalCompiler(const plan::PlanGraph& plan, Program& prog,
                  const mtype::Graph& dstg)
      : Builder(plan, prog), dstg_(dstg) {}

  void run(PlanRef root, mtype::Ref dst_type) {
    prog_.mode = Program::Mode::Marshal;
    prog_.dst_graph = &dstg_;
    // The fallback convert program doubles as the plan-reachability map:
    // every plan node a marshal instruction can originate from is reachable
    // from root, so its fallback entry point exists.
    auto fb = std::make_shared<Program>(compile(plan_, root));
    for (uint32_t i = 0; i < fb->origin.size(); ++i) {
      fallback_index_[fb->origin[i]] = i;
    }
    prog_.fallback = std::move(fb);
    prog_.entry = instr_of(root, dst_type);
    while (!todo_.empty()) {
      auto [key, idx] = todo_.front();
      todo_.pop_front();
      translate(key.first, key.second, idx);
    }
  }

 private:
  using Key = std::pair<PlanRef, mtype::Ref>;

  uint32_t instr_of(PlanRef p, mtype::Ref d) {
    p = resolve(p);
    d = mtype::skip_var(dstg_, d);
    Key key{p, d};
    auto [it, fresh] =
        index_.try_emplace(key, static_cast<uint32_t>(prog_.code.size()));
    if (fresh) {
      prog_.code.emplace_back();
      prog_.origin.push_back(p);
      todo_.push_back({key, it->second});
    }
    return it->second;
  }

  uint32_t dst_idx(mtype::Ref d) {
    auto [it, fresh] =
        dst_index_.try_emplace(d, static_cast<uint32_t>(prog_.dst_types.size()));
    if (fresh) prog_.dst_types.push_back(d);
    return it->second;
  }

  /// The universal fallback: convert this subtree with the embedded convert
  /// program, then wire::encode the result against `d`.
  void opaque(Instr& ins, PlanRef p, mtype::Ref d) {
    ins.op = OpCode::EmitOpaque;
    ins.a = fallback_index_.at(p);
    ins.b = dst_idx(d);
  }

  void translate(PlanRef p, mtype::Ref d, uint32_t idx) {
    const PlanNode& n = plan_.at(p);
    Instr ins;
    // List-shaped destinations are wire-special: the encoder writes a u32
    // length + elements whenever the Rec matches the canonical list and the
    // value is list-shaped. Pair that only with ListMap (whose output is
    // always a List); any other op converging on a list-shaped Rec goes
    // through the oracle fallback so bytes can't diverge.
    if (n.kind == PKind::ListMap) {
      auto elems = mtype::match_list_shape(dstg_, d);
      if (elems && elems->size() == 1) {
        ins.op = OpCode::EmitList;
        ins.a = instr_of(n.inner, (*elems)[0]);
      } else {
        opaque(ins, p, d);
      }
      prog_.code[idx] = ins;
      return;
    }
    // Unfold non-list Rec wrappers the way the encoder does (transparent
    // body), bailing to the fallback on list-shaped or degenerate ones.
    mtype::Ref dd = d;
    std::set<mtype::Ref> seen;
    bool bail = false;
    while (dstg_.at(dd).kind == MKind::Rec) {
      auto elems = mtype::match_list_shape(dstg_, dd);
      if ((elems && elems->size() == 1) || !seen.insert(dd).second) {
        bail = true;
        break;
      }
      dd = mtype::skip_var(dstg_, dstg_.at(dd).body());
    }
    if (bail) {
      opaque(ins, p, d);
      prog_.code[idx] = ins;
      return;
    }
    const mtype::Node& dn = dstg_.at(dd);
    switch (n.kind) {
      case PKind::UnitMake:
        if (dn.kind == MKind::Unit) {
          ins.op = OpCode::EmitNothing;
        } else {
          opaque(ins, p, d);
        }
        break;
      case PKind::IntCopy:
        if (dn.kind == MKind::Int) {
          ins.op = OpCode::EmitInt;
          ins.a = wire::int_width(dn.lo, dn.hi);
          ins.b = dst_idx(dd);
          ins.lo = n.lo;
          ins.hi = n.hi;
        } else {
          opaque(ins, p, d);
        }
        break;
      case PKind::RealCopy:
        if (dn.kind == MKind::Real) {
          ins.op = dn.mantissa_bits <= 24 ? OpCode::EmitReal32
                                          : OpCode::EmitReal64;
        } else {
          opaque(ins, p, d);
        }
        break;
      case PKind::CharCopy:
        if (dn.kind == MKind::Char) {
          bool narrow = dn.repertoire == stype::Repertoire::Ascii ||
                        dn.repertoire == stype::Repertoire::Latin1;
          ins.op = narrow ? OpCode::EmitChar1 : OpCode::EmitChar4;
        } else {
          opaque(ins, p, d);
        }
        break;
      case PKind::PortMap:
        if (dn.kind == MKind::Port) {
          ins.op = OpCode::EmitPort;
          ins.a = p;
        } else {
          opaque(ins, p, d);
        }
        break;
      case PKind::Extract:
        ins.op = OpCode::EmitExtract;
        ins.a = add_field(check_extract(p).fields[0], d);
        break;
      case PKind::Custom:
        ins.op = OpCode::EmitCustom;
        ins.a = intern_custom(n.note);
        ins.b = dst_idx(d);
        break;
      case PKind::RecordMap:
        if (!pair_record(n, dd, ins)) opaque(ins, p, d);
        break;
      case PKind::ChoiceMap:
        if (dn.kind != MKind::Choice || n.arms.empty() ||
            !pair_choice(n, dd, ins)) {
          if (n.arms.empty()) {
            throw IrError(IrFault::EmptyChoice,
                          "choice node " + std::to_string(p) + " has no arms");
          }
          opaque(ins, p, d);
        }
        break;
      case PKind::ListMap:
      case PKind::Alias: break;  // handled above / resolved away
    }
    prog_.code[idx] = ins;
  }

  uint32_t add_field(const plan::FieldMove& mv, mtype::Ref d) {
    Program::Field f;
    f.src_off = put_path(mv.src_path);
    f.src_len = static_cast<uint32_t>(mv.src_path.size());
    f.dst_off = put_path(mv.dst_path);
    f.dst_len = static_cast<uint32_t>(mv.dst_path.size());
    f.op = instr_of(mv.op, d);
    prog_.fields.push_back(f);
    return static_cast<uint32_t>(prog_.fields.size() - 1);
  }

  /// Pair a RecordMap skeleton with the destination Record: each skeleton
  /// Record token must meet a directly-nested Record child of matching
  /// arity, Unit tokens must meet Unit children (they encode zero bytes),
  /// and each leaf picks up the child Mtype its converted value is encoded
  /// against. Returns false (caller emits EmitOpaque) on any mismatch.
  bool pair_record(const PlanNode& n, mtype::Ref dd, Instr& ins) {
    struct Frame {
      const RecShape* s;
      mtype::Ref d;
    };
    std::vector<Frame> stack{{&n.dst_shape, dd}};
    std::vector<std::pair<uint32_t, mtype::Ref>> leaves;  // field idx, dst
    std::vector<bool> used(n.fields.size(), false);
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      const mtype::Node& node = dstg_.at(f.d);
      switch (f.s->kind) {
        case RecShape::Kind::Unit:
          if (node.kind != MKind::Unit) return false;
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
            return false;
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
    Program::RecordTab rt;
    // Shape tokens (for the verifier + disassembler); leaf numbering is
    // traversal order, which matches the leaves vector by construction.
    std::vector<uint32_t> leaf_order;
    put_shape(n.dst_shape, n.fields.size(), rt, leaf_order);
    rt.fields_off = static_cast<uint32_t>(prog_.fields.size());
    rt.fields_len = static_cast<uint32_t>(n.fields.size());
    for (const auto& [orig, d] : leaves) add_field(n.fields[orig], d);
    ins.op = OpCode::EmitRecord;
    ins.a = static_cast<uint32_t>(prog_.records.size());
    prog_.records.push_back(rt);
    return true;
  }

  /// Pair a ChoiceMap with the destination Choice: each arm's destination
  /// path becomes precomputed 4-byte-per-level discriminant prefix bytes,
  /// and the arm payload is compiled against the Mtype the path lands on.
  bool pair_choice(const PlanNode& n, mtype::Ref dd, Instr& ins) {
    struct Pending {
      uint32_t prefix_off, prefix_len;
      mtype::Ref payload;
    };
    std::vector<Pending> pend;
    pend.reserve(n.arms.size());
    uint32_t pool_mark = static_cast<uint32_t>(prog_.byte_pool.size());
    for (const auto& mv : n.arms) {
      mtype::Ref cur = dd;
      Pending pd;
      pd.prefix_off = static_cast<uint32_t>(prog_.byte_pool.size());
      for (uint32_t arm_idx : mv.dst_path) {
        const mtype::Node& node = dstg_.at(cur);
        if (node.kind != MKind::Choice || arm_idx >= node.children.size()) {
          prog_.byte_pool.resize(pool_mark);  // undo partial prefixes
          return false;
        }
        for (int shift = 24; shift >= 0; shift -= 8) {
          prog_.byte_pool.push_back(
              static_cast<uint8_t>(arm_idx >> static_cast<unsigned>(shift)));
        }
        cur = node.children[arm_idx];
      }
      pd.prefix_len =
          static_cast<uint32_t>(prog_.byte_pool.size()) - pd.prefix_off;
      pd.payload = cur;
      pend.push_back(pd);
    }
    Program::ChoiceTab ct;
    ct.arms_off = static_cast<uint32_t>(prog_.arms.size());
    ct.arms_len = static_cast<uint32_t>(n.arms.size());
    for (size_t i = 0; i < n.arms.size(); ++i) {
      const auto& mv = n.arms[i];
      Program::Arm arm;
      arm.src_off = put_path(mv.src_path);
      arm.src_len = static_cast<uint32_t>(mv.src_path.size());
      arm.dst_off = put_path(mv.dst_path);
      arm.dst_len = static_cast<uint32_t>(mv.dst_path.size());
      arm.op = instr_of(mv.op, pend[i].payload);
      arm.prefix_off = pend[i].prefix_off;
      arm.prefix_len = pend[i].prefix_len;
      prog_.arms.push_back(arm);
    }
    put_trie(ct, ct.arms_off, ct.arms_len);
    ins.op = OpCode::EmitChoice;
    ins.a = static_cast<uint32_t>(prog_.choices.size());
    prog_.choices.push_back(ct);
    return true;
  }

  const mtype::Graph& dstg_;
  std::map<Key, uint32_t> index_;
  std::map<mtype::Ref, uint32_t> dst_index_;
  std::map<PlanRef, uint32_t> fallback_index_;
  std::deque<std::pair<Key, uint32_t>> todo_;
};

}  // namespace

Program compile(const plan::PlanGraph& plan, plan::PlanRef root) {
  Program prog;
  ConvertCompiler(plan, prog).run(root);
  return prog;
}

Program compile_marshal(const plan::PlanGraph& plan, plan::PlanRef root,
                        const mtype::Graph& dst_graph, mtype::Ref dst_type) {
  Program prog;
  MarshalCompiler(plan, prog, dst_graph).run(root, dst_type);
  return prog;
}

}  // namespace mbird::planir
