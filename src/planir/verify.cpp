#include <set>
#include <utility>
#include <vector>

#include "planir/planir.hpp"
#include "runtime/layout.hpp"

namespace mbird::planir {

using mtype::MKind;

const char* to_string(IrFault f) {
  switch (f) {
    case IrFault::NullPlan: return "null-plan";
    case IrFault::AliasCycle: return "alias-cycle";
    case IrFault::BadOpcode: return "bad-opcode";
    case IrFault::OperandRange: return "operand-range";
    case IrFault::BadPath: return "bad-path";
    case IrFault::UnguardedCycle: return "unguarded-cycle";
    case IrFault::MalformedShape: return "malformed-shape";
    case IrFault::EmptyChoice: return "empty-choice";
    case IrFault::DuplicateArm: return "duplicate-arm";
    case IrFault::BadIntRange: return "bad-int-range";
    case IrFault::ModeMismatch: return "mode-mismatch";
    case IrFault::BadEntry: return "bad-entry";
    case IrFault::NativeBounds: return "native-bounds";
  }
  return "?";
}

std::string VerifyIssue::to_string() const {
  return std::string(planir::to_string(fault)) + " at i" + std::to_string(instr) +
         ": " + detail;
}

namespace {

class Checker {
 public:
  explicit Checker(const Program& p) : p_(p) {}

  std::vector<VerifyIssue> run() {
    if (p_.code.empty() || p_.entry >= p_.code.size()) {
      fail(IrFault::BadEntry, 0,
           "entry " + std::to_string(p_.entry) + " of " +
               std::to_string(p_.code.size()) + " instructions");
      return std::move(issues_);
    }
    if (p_.origin.size() != p_.code.size()) {
      fail(IrFault::OperandRange, 0, "origin table does not match code size");
    }
    if (p_.mode != Program::Mode::Convert && p_.dst_graph == nullptr) {
      fail(IrFault::ModeMismatch, 0, "marshal program has no destination graph");
    }
    if (p_.mode == Program::Mode::NativeMarshal) {
      if (!p_.src_layout || p_.src_layout->nodes.empty()) {
        fail(IrFault::ModeMismatch, 0,
             "native-marshal program has no source layout");
      }
      if (!p_.fallback) {
        fail(IrFault::ModeMismatch, 0,
             "native-marshal program has no fallback program");
      }
    }
    for (uint32_t i = 0; i < p_.code.size(); ++i) check_instr(i);
    if (issues_.empty()) check_unguarded_cycles();
    if (p_.fallback) {
      if (p_.fallback->mode != Program::Mode::Convert) {
        fail(IrFault::ModeMismatch, 0, "fallback program is not convert-mode");
      } else {
        for (VerifyIssue issue : verify(*p_.fallback)) {
          issue.detail = "(fallback) " + issue.detail;
          issues_.push_back(std::move(issue));
        }
      }
    }
    return std::move(issues_);
  }

 private:
  void fail(IrFault f, uint32_t instr, std::string detail) {
    issues_.push_back({f, instr, std::move(detail)});
  }

  bool check_field(uint32_t i, uint32_t fidx) {
    if (fidx >= p_.fields.size()) {
      fail(IrFault::OperandRange, i, "field " + std::to_string(fidx));
      return false;
    }
    const Program::Field& f = p_.fields[fidx];
    bool ok = true;
    if (static_cast<size_t>(f.src_off) + f.src_len > p_.path_pool.size() ||
        static_cast<size_t>(f.dst_off) + f.dst_len > p_.path_pool.size()) {
      fail(IrFault::OperandRange, i,
           "field " + std::to_string(fidx) + " path slice");
      ok = false;
    }
    if (f.op >= p_.code.size()) {
      fail(IrFault::OperandRange, i,
           "field " + std::to_string(fidx) + " op " + std::to_string(f.op));
      ok = false;
    }
    return ok;
  }

  void check_record(uint32_t i, uint32_t ridx) {
    if (ridx >= p_.records.size()) {
      fail(IrFault::OperandRange, i, "record " + std::to_string(ridx));
      return;
    }
    const Program::RecordTab& rt = p_.records[ridx];
    if (static_cast<size_t>(rt.fields_off) + rt.fields_len > p_.fields.size()) {
      fail(IrFault::OperandRange, i, "record field slice");
      return;
    }
    for (uint32_t k = 0; k < rt.fields_len; ++k) check_field(i, rt.fields_off + k);
    if (static_cast<size_t>(rt.shape_off) + rt.shape_len > p_.shape_pool.size()) {
      fail(IrFault::OperandRange, i, "record shape slice");
      return;
    }
    // Postfix simulation. The interpreter moves field results straight from
    // the value stack, which is only sound if the k-th Leaf token names
    // field k — enforce exactly that, plus single-value well-formedness.
    size_t stack = 0;
    uint32_t next_leaf = 0;
    for (uint32_t k = 0; k < rt.shape_len; ++k) {
      const Program::ShapeTok& tok = p_.shape_pool[rt.shape_off + k];
      switch (tok.kind) {
        case Program::ShapeTok::K::Leaf:
          if (tok.arg != next_leaf || tok.arg >= rt.fields_len) {
            fail(IrFault::MalformedShape, i,
                 "leaf token " + std::to_string(tok.arg) + " out of sequence");
            return;
          }
          ++next_leaf;
          ++stack;
          break;
        case Program::ShapeTok::K::Unit: ++stack; break;
        case Program::ShapeTok::K::Rec:
          if (tok.arg > stack) {
            fail(IrFault::MalformedShape, i, "record token underflows skeleton");
            return;
          }
          stack -= tok.arg;
          ++stack;
          break;
      }
    }
    if (stack != 1 || next_leaf != rt.fields_len) {
      fail(IrFault::MalformedShape, i,
           "skeleton yields " + std::to_string(stack) + " values covering " +
               std::to_string(next_leaf) + " of " +
               std::to_string(rt.fields_len) + " fields");
    }
  }

  void check_choice(uint32_t i, uint32_t cidx) {
    if (cidx >= p_.choices.size()) {
      fail(IrFault::OperandRange, i, "choice " + std::to_string(cidx));
      return;
    }
    const Program::ChoiceTab& ct = p_.choices[cidx];
    if (ct.arms_len == 0) {
      fail(IrFault::EmptyChoice, i, "choice has no arms");
      return;
    }
    if (static_cast<size_t>(ct.arms_off) + ct.arms_len > p_.arms.size()) {
      fail(IrFault::OperandRange, i, "choice arm slice");
      return;
    }
    for (uint32_t k = 0; k < ct.arms_len; ++k) {
      const Program::Arm& arm = p_.arms[ct.arms_off + k];
      if (static_cast<size_t>(arm.src_off) + arm.src_len > p_.path_pool.size() ||
          static_cast<size_t>(arm.dst_off) + arm.dst_len > p_.path_pool.size()) {
        fail(IrFault::OperandRange, i, "arm " + std::to_string(k) + " path slice");
      }
      if (arm.op >= p_.code.size()) {
        fail(IrFault::OperandRange, i,
             "arm " + std::to_string(k) + " op " + std::to_string(arm.op));
      }
      if (static_cast<size_t>(arm.prefix_off) + arm.prefix_len >
          p_.byte_pool.size()) {
        fail(IrFault::OperandRange, i, "arm " + std::to_string(k) + " prefix");
      }
    }
    // Trie: every reachable node in range, children strictly increasing
    // (acyclicity), terminals valid, and each arm reached exactly once.
    if (ct.trie_root >= p_.trie.size()) {
      fail(IrFault::OperandRange, i, "trie root " + std::to_string(ct.trie_root));
      return;
    }
    std::vector<uint32_t> seen_arm(ct.arms_len, 0);
    std::vector<uint32_t> work{ct.trie_root};
    std::set<uint32_t> visited;
    while (!work.empty()) {
      uint32_t t = work.back();
      work.pop_back();
      if (!visited.insert(t).second) {
        fail(IrFault::UnguardedCycle, i,
             "trie node " + std::to_string(t) + " reached twice");
        return;
      }
      const Program::TrieNode& tn = p_.trie[t];
      if (tn.terminal >= 0) {
        if (static_cast<uint32_t>(tn.terminal) >= ct.arms_len) {
          fail(IrFault::OperandRange, i,
               "trie terminal " + std::to_string(tn.terminal));
          return;
        }
        if (++seen_arm[static_cast<uint32_t>(tn.terminal)] > 1) {
          fail(IrFault::DuplicateArm, i,
               "arm " + std::to_string(tn.terminal) + " has two trie entries");
          return;
        }
      }
      if (static_cast<size_t>(tn.kids_off) + tn.kids_len >
          p_.trie_kids.size()) {
        fail(IrFault::OperandRange, i, "trie kid slice of node " + std::to_string(t));
        return;
      }
      for (uint32_t k = 0; k < tn.kids_len; ++k) {
        int32_t kid = p_.trie_kids[tn.kids_off + k];
        if (kid < 0) continue;
        if (static_cast<uint32_t>(kid) >= p_.trie.size() ||
            static_cast<uint32_t>(kid) <= t) {
          fail(IrFault::UnguardedCycle, i,
               "trie edge " + std::to_string(t) + "->" + std::to_string(kid) +
                   " does not increase");
          return;
        }
        work.push_back(static_cast<uint32_t>(kid));
      }
    }
    for (uint32_t k = 0; k < ct.arms_len; ++k) {
      if (seen_arm[k] == 0) {
        fail(IrFault::OperandRange, i,
             "arm " + std::to_string(k) + " unreachable in trie");
      }
    }
  }

  void check_dst(uint32_t i, uint32_t didx) {
    if (p_.mode == Program::Mode::Convert || p_.dst_graph == nullptr) return;
    if (didx >= p_.dst_types.size()) {
      fail(IrFault::OperandRange, i, "dst type " + std::to_string(didx));
      return;
    }
    if (p_.dst_types[didx] >= p_.dst_graph->size()) {
      fail(IrFault::OperandRange, i,
           "dst type ref " + std::to_string(p_.dst_types[didx]));
    }
  }

  /// Bounds-check a natives[] slot against the declared layout. When
  /// `need_span` the slot's [src_off, src_off+width) must be a nonempty
  /// range inside the image (scalar loads and BlockCopy); LoadOpaque slots
  /// carry no span. Returns nullptr when the slot is unusable.
  const Program::NativeSlot* check_slot(uint32_t i, uint32_t sidx,
                                        bool need_span) {
    if (sidx >= p_.natives.size()) {
      fail(IrFault::OperandRange, i, "native slot " + std::to_string(sidx));
      return nullptr;
    }
    const Program::NativeSlot& s = p_.natives[sidx];
    if (!p_.src_layout) return nullptr;  // already a program-level failure
    if (s.layout_node >= p_.src_layout->nodes.size()) {
      fail(IrFault::NativeBounds, i,
           "layout node " + std::to_string(s.layout_node) + " of " +
               std::to_string(p_.src_layout->nodes.size()));
      return nullptr;
    }
    if (need_span &&
        (s.width == 0 ||
         static_cast<uint64_t>(s.src_off) + s.width > p_.src_layout->size)) {
      fail(IrFault::NativeBounds, i,
           "image span [" + std::to_string(s.src_off) + ", " +
               std::to_string(s.src_off) + "+" + std::to_string(s.width) +
               ") outside layout of " + std::to_string(p_.src_layout->size) +
               " bytes");
      return nullptr;
    }
    return &s;
  }

  /// Scalar loads must agree with the layout node they claim to read: same
  /// offset and width, and a kind the opcode can interpret. This keeps the
  /// engine's unchecked heap access honest.
  void check_slot_node(uint32_t i, const Program::NativeSlot& s,
                       std::initializer_list<runtime::ImageLayout::K> kinds) {
    const runtime::ImageLayout::Node& n = p_.src_layout->nodes[s.layout_node];
    bool kind_ok = false;
    for (auto k : kinds) kind_ok = kind_ok || n.kind == k;
    if (!kind_ok || n.offset != s.src_off || n.width != s.width) {
      fail(IrFault::NativeBounds, i,
           "slot disagrees with layout node " + std::to_string(s.layout_node));
    }
  }

  void check_native_seq(uint32_t i, uint32_t ridx) {
    if (ridx >= p_.records.size()) {
      fail(IrFault::OperandRange, i, "record " + std::to_string(ridx));
      return;
    }
    const Program::RecordTab& rt = p_.records[ridx];
    if (rt.shape_len != 0) {
      fail(IrFault::ModeMismatch, i, "native sequence carries a skeleton");
    }
    if (static_cast<size_t>(rt.fields_off) + rt.fields_len > p_.fields.size()) {
      fail(IrFault::OperandRange, i, "record field slice");
      return;
    }
    for (uint32_t k = 0; k < rt.fields_len; ++k) {
      if (!check_field(i, rt.fields_off + k)) continue;
      const Program::Field& f = p_.fields[rt.fields_off + k];
      if (f.src_len != 0 || f.dst_len != 0) {
        fail(IrFault::ModeMismatch, i,
             "native sequence field " + std::to_string(k) + " carries paths");
      }
    }
  }

  static bool op_fits_mode(OpCode op, Program::Mode m) {
    if (op >= OpCode::LoadInt) return m == Program::Mode::NativeMarshal;
    if (op >= OpCode::EmitNothing) {
      // EmitNothing is shared: units emit zero bytes in both fused modes.
      return m == Program::Mode::Marshal ||
             (m == Program::Mode::NativeMarshal && op == OpCode::EmitNothing);
    }
    return m == Program::Mode::Convert;
  }

  void check_instr(uint32_t i) {
    const Instr& ins = p_.code[i];
    if (!op_fits_mode(ins.op, p_.mode)) {
      const char* mode_name = p_.mode == Program::Mode::Convert ? "convert"
                              : p_.mode == Program::Mode::Marshal
                                  ? "marshal"
                                  : "native-marshal";
      fail(IrFault::BadOpcode, i,
           std::string(planir::to_string(ins.op)) + " in a " + mode_name +
               " program");
      return;
    }
    switch (ins.op) {
      case OpCode::MakeUnit:
      case OpCode::EmitNothing:
      case OpCode::CopyReal:
      case OpCode::EmitReal32:
      case OpCode::EmitReal64:
      case OpCode::CopyChar:
      case OpCode::EmitChar1:
      case OpCode::EmitChar4:
      case OpCode::CopyPort:
      case OpCode::EmitPort:
        break;
      case OpCode::CopyInt:
        if (ins.lo > ins.hi) fail(IrFault::BadIntRange, i, "lo > hi");
        break;
      case OpCode::EmitInt:
        if (ins.lo > ins.hi) fail(IrFault::BadIntRange, i, "lo > hi");
        if (ins.a != 1 && ins.a != 2 && ins.a != 4 && ins.a != 8 && ins.a != 16) {
          fail(IrFault::OperandRange, i, "wire width " + std::to_string(ins.a));
        }
        check_dst(i, ins.b);
        break;
      case OpCode::BuildRecord:
      case OpCode::EmitRecord:
        check_record(i, ins.a);
        break;
      case OpCode::MatchChoice:
      case OpCode::EmitChoice:
        check_choice(i, ins.a);
        break;
      case OpCode::MapList:
      case OpCode::EmitList:
        if (ins.a >= p_.code.size()) {
          fail(IrFault::OperandRange, i, "element op " + std::to_string(ins.a));
        }
        break;
      case OpCode::ExtractField:
      case OpCode::EmitExtract:
        check_field(i, ins.a);
        break;
      case OpCode::CallCustom:
        if (ins.a >= p_.custom_names.size()) {
          fail(IrFault::OperandRange, i, "custom name " + std::to_string(ins.a));
        }
        break;
      case OpCode::EmitCustom:
        if (ins.a >= p_.custom_names.size()) {
          fail(IrFault::OperandRange, i, "custom name " + std::to_string(ins.a));
        }
        check_dst(i, ins.b);
        break;
      case OpCode::EmitOpaque:
        if (!p_.fallback) {
          fail(IrFault::ModeMismatch, i, "opaque op without fallback program");
        } else if (ins.a >= p_.fallback->code.size()) {
          fail(IrFault::OperandRange, i,
               "fallback entry " + std::to_string(ins.a));
        }
        check_dst(i, ins.b);
        break;
      case OpCode::LoadInt:
        if (ins.lo > ins.hi) fail(IrFault::BadIntRange, i, "lo > hi");
        if (const auto* s = check_slot(i, ins.a, /*need_span=*/true)) {
          if (s->width != 1 && s->width != 2 && s->width != 4 && s->width != 8) {
            fail(IrFault::NativeBounds, i,
                 "native int width " + std::to_string(s->width));
          }
          if (s->aux != 1 && s->aux != 2 && s->aux != 4 && s->aux != 8 &&
              s->aux != 16) {
            fail(IrFault::OperandRange, i, "wire width " + std::to_string(s->aux));
          }
          check_slot_node(i, *s,
                          {runtime::ImageLayout::K::UInt,
                           runtime::ImageLayout::K::SInt,
                           runtime::ImageLayout::K::Bool});
        }
        check_dst(i, ins.b);
        break;
      case OpCode::LoadEnum:
        if (ins.lo > ins.hi) fail(IrFault::BadIntRange, i, "lo > hi");
        if (const auto* s = check_slot(i, ins.a, /*need_span=*/true)) {
          if (s->aux != 1 && s->aux != 2 && s->aux != 4 && s->aux != 8 &&
              s->aux != 16) {
            fail(IrFault::OperandRange, i, "wire width " + std::to_string(s->aux));
          }
          check_slot_node(i, *s, {runtime::ImageLayout::K::Enum});
          const auto& n = p_.src_layout->nodes[s->layout_node];
          if (static_cast<size_t>(n.enum_off) + n.enum_len >
              p_.src_layout->enum_pool.size()) {
            fail(IrFault::NativeBounds, i, "enum slice outside pool");
          }
        }
        check_dst(i, ins.b);
        break;
      case OpCode::LoadReal32:
      case OpCode::LoadReal64:
        if (const auto* s = check_slot(i, ins.a, /*need_span=*/true)) {
          if (s->width != 4 && s->width != 8) {
            fail(IrFault::NativeBounds, i,
                 "native real width " + std::to_string(s->width));
          }
          check_slot_node(i, *s,
                          {runtime::ImageLayout::K::F32,
                           runtime::ImageLayout::K::F64});
        }
        break;
      case OpCode::LoadChar1:
      case OpCode::LoadChar4:
        if (const auto* s = check_slot(i, ins.a, /*need_span=*/true)) {
          if (s->width != 1 && s->width != 2 && s->width != 4) {
            fail(IrFault::NativeBounds, i,
                 "native char width " + std::to_string(s->width));
          }
          check_slot_node(i, *s, {runtime::ImageLayout::K::Char});
        }
        break;
      case OpCode::BlockCopy:
        check_slot(i, ins.a, /*need_span=*/true);
        break;
      case OpCode::ConstBytes:
        if (static_cast<size_t>(ins.a) + ins.b > p_.byte_pool.size()) {
          fail(IrFault::OperandRange, i, "const byte slice");
        }
        break;
      case OpCode::NativeSeq:
        check_native_seq(i, ins.a);
        break;
      case OpCode::LoadOpaque:
        if (const auto* s = check_slot(i, ins.a, /*need_span=*/false)) {
          if (!p_.fallback) {
            fail(IrFault::ModeMismatch, i, "opaque op without fallback program");
          } else if (s->aux >= p_.fallback->code.size()) {
            fail(IrFault::OperandRange, i,
                 "fallback entry " + std::to_string(s->aux));
          }
        }
        check_dst(i, ins.b);
        break;
    }
  }

  /// An instruction cycle is "guarded" when some edge on it consumes input:
  /// a non-empty source path (descends into a strictly smaller sub-value) or
  /// a list element. A cycle of only empty-path edges would convert the same
  /// value forever — the tree walker dies at its depth limit; the verifier rejects
  /// the program up front instead.
  void check_unguarded_cycles() {
    std::vector<std::vector<uint32_t>> lazy_edges(p_.code.size());
    for (uint32_t i = 0; i < p_.code.size(); ++i) {
      const Instr& ins = p_.code[i];
      auto add_field_edges = [&](uint32_t off, uint32_t len) {
        for (uint32_t k = 0; k < len; ++k) {
          const Program::Field& f = p_.fields[off + k];
          if (f.src_len == 0) lazy_edges[i].push_back(f.op);
        }
      };
      switch (ins.op) {
        case OpCode::BuildRecord:
        case OpCode::EmitRecord:
        // Native sequences never consume input (the heap image is not a
        // descending structure), so all their edges are lazy.
        case OpCode::NativeSeq: {
          const Program::RecordTab& rt = p_.records[ins.a];
          add_field_edges(rt.fields_off, rt.fields_len);
          break;
        }
        case OpCode::ExtractField:
        case OpCode::EmitExtract:
          add_field_edges(ins.a, 1);
          break;
        case OpCode::MatchChoice:
        case OpCode::EmitChoice: {
          const Program::ChoiceTab& ct = p_.choices[ins.a];
          for (uint32_t k = 0; k < ct.arms_len; ++k) {
            const Program::Arm& arm = p_.arms[ct.arms_off + k];
            if (arm.src_len == 0) lazy_edges[i].push_back(arm.op);
          }
          break;
        }
        default: break;  // MapList/EmitList element edges always progress
      }
    }
    // Iterative three-color DFS over the lazy-edge subgraph.
    enum : uint8_t { White, Grey, Black };
    std::vector<uint8_t> color(p_.code.size(), White);
    for (uint32_t start = 0; start < p_.code.size(); ++start) {
      if (color[start] != White) continue;
      std::vector<std::pair<uint32_t, size_t>> stack{{start, 0}};
      color[start] = Grey;
      while (!stack.empty()) {
        auto& [node, next] = stack.back();
        if (next < lazy_edges[node].size()) {
          uint32_t to = lazy_edges[node][next++];
          if (color[to] == Grey) {
            fail(IrFault::UnguardedCycle, to,
                 "cycle of input-preserving edges through i" +
                     std::to_string(to));
            return;
          }
          if (color[to] == White) {
            color[to] = Grey;
            stack.push_back({to, 0});
          }
        } else {
          color[node] = Black;
          stack.pop_back();
        }
      }
    }
  }

  const Program& p_;
  std::vector<VerifyIssue> issues_;
};

/// Unfold Var and transparent Rec wrappers (bounded laps for µX.X).
mtype::Ref deref(const mtype::Graph& g, mtype::Ref r) {
  for (size_t lap = 0; lap <= g.size(); ++lap) {
    r = mtype::skip_var(g, r);
    if (g.at(r).kind != MKind::Rec) return r;
    r = g.at(r).body();
  }
  return r;
}

class PathChecker {
 public:
  PathChecker(const Program& p, const mtype::Graph& g) : p_(p), g_(g) {}

  std::vector<VerifyIssue> run(mtype::Ref root) {
    push(p_.entry, root);
    while (!work_.empty()) {
      auto [i, src] = work_.back();
      work_.pop_back();
      check(i, src);
    }
    return std::move(issues_);
  }

 private:
  void push(uint32_t i, mtype::Ref src) {
    if (visited_.insert({i, src}).second) work_.push_back({i, src});
  }

  void fail(IrFault f, uint32_t i, std::string detail) {
    issues_.push_back({f, i, std::move(detail)});
  }

  /// Follow a record field path from `src` the way flatten_record built it.
  bool follow_record(uint32_t i, mtype::Ref& src, uint32_t off, uint32_t len) {
    for (uint32_t k = 0; k < len; ++k) {
      src = deref(g_, src);
      const mtype::Node& n = g_.at(src);
      uint32_t idx = p_.path_pool[off + k];
      if (n.kind != MKind::Record || idx >= n.children.size()) {
        fail(IrFault::BadPath, i,
             "path step " + std::to_string(idx) + " into " +
                 mtype::to_string(n.kind));
        return false;
      }
      src = n.children[idx];
    }
    return true;
  }

  void expect(uint32_t i, mtype::Ref src, MKind want) {
    mtype::Ref r = deref(g_, src);
    if (g_.at(r).kind != want) {
      fail(IrFault::BadPath, i,
           std::string(planir::to_string(p_.code[i].op)) + " from " +
               mtype::to_string(g_.at(r).kind));
    }
  }

  void check(uint32_t i, mtype::Ref src) {
    const Instr& ins = p_.code[i];
    switch (ins.op) {
      case OpCode::CopyInt:
      case OpCode::EmitInt: expect(i, src, MKind::Int); break;
      case OpCode::CopyReal:
      case OpCode::EmitReal32:
      case OpCode::EmitReal64: expect(i, src, MKind::Real); break;
      case OpCode::CopyChar:
      case OpCode::EmitChar1:
      case OpCode::EmitChar4: expect(i, src, MKind::Char); break;
      case OpCode::CopyPort:
      case OpCode::EmitPort: expect(i, src, MKind::Port); break;
      case OpCode::BuildRecord:
      case OpCode::EmitRecord: {
        const Program::RecordTab& rt = p_.records[ins.a];
        for (uint32_t k = 0; k < rt.fields_len; ++k) {
          const Program::Field& f = p_.fields[rt.fields_off + k];
          mtype::Ref leaf = src;
          if (follow_record(i, leaf, f.src_off, f.src_len)) push(f.op, leaf);
        }
        break;
      }
      case OpCode::ExtractField:
      case OpCode::EmitExtract: {
        const Program::Field& f = p_.fields[ins.a];
        mtype::Ref leaf = src;
        if (follow_record(i, leaf, f.src_off, f.src_len)) push(f.op, leaf);
        break;
      }
      case OpCode::MatchChoice:
      case OpCode::EmitChoice: {
        const Program::ChoiceTab& ct = p_.choices[ins.a];
        for (uint32_t k = 0; k < ct.arms_len; ++k) {
          const Program::Arm& arm = p_.arms[ct.arms_off + k];
          mtype::Ref cur = src;
          bool ok = true;
          for (uint32_t s = 0; s < arm.src_len; ++s) {
            cur = deref(g_, cur);
            const mtype::Node& n = g_.at(cur);
            uint32_t idx = p_.path_pool[arm.src_off + s];
            if (n.kind != MKind::Choice || idx >= n.children.size()) {
              fail(IrFault::BadPath, i,
                   "arm step " + std::to_string(idx) + " into " +
                       mtype::to_string(n.kind));
              ok = false;
              break;
            }
            cur = n.children[idx];
          }
          if (ok) push(arm.op, cur);
        }
        break;
      }
      case OpCode::MapList:
      case OpCode::EmitList: {
        mtype::Ref r = mtype::skip_var(g_, src);
        auto elems = mtype::match_list_shape(g_, r);
        if (!elems || elems->size() != 1) {
          fail(IrFault::BadPath, i, "list op from a non-list source");
        } else {
          push(ins.a, (*elems)[0]);
        }
        break;
      }
      default: break;  // customs / opaque / unit: source shape unconstrained
    }
  }

  const Program& p_;
  const mtype::Graph& g_;
  std::set<std::pair<uint32_t, mtype::Ref>> visited_;
  std::vector<std::pair<uint32_t, mtype::Ref>> work_;
  std::vector<VerifyIssue> issues_;
};

}  // namespace

std::vector<VerifyIssue> verify(const Program& p) { return Checker(p).run(); }

std::vector<VerifyIssue> verify_paths(const Program& p,
                                      const mtype::Graph& src_graph,
                                      mtype::Ref src_type) {
  std::vector<VerifyIssue> issues = verify(p);
  if (!issues.empty()) return issues;
  return PathChecker(p, src_graph).run(src_type);
}

void require_valid(const Program& p) {
  auto issues = verify(p);
  if (!issues.empty()) {
    throw IrError(issues.front().fault, issues.front().to_string());
  }
}

}  // namespace mbird::planir
