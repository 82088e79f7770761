#include "codegen/cgen.hpp"

#include <map>
#include <set>

#include "planir/planir.hpp"
#include "runtime/layout.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/writer.hpp"
#include "wire/wire.hpp"

namespace mbird::codegen {

using mtype::Graph;
using mtype::MKind;
using mtype::Path;
using mtype::Ref;

std::string c_int_type(Int128 lo, Int128 hi) {
  if (lo >= 0) {
    if (hi <= 0xff) return "uint8_t";
    if (hi <= 0xffff) return "uint16_t";
    if (hi <= 0xffffffffLL) return "uint32_t";
    return "uint64_t";
  }
  if (lo >= -128 && hi <= 127) return "int8_t";
  if (lo >= -32768 && hi <= 32767) return "int16_t";
  if (lo >= -pow2(31) && hi <= pow2(31) - 1) return "int32_t";
  return "int64_t";
}

namespace {

/// Follow a Record path (for RecordMap moves) or Choice path (arm moves).
Ref follow_record_path(const Graph& g, Ref r, const Path& path) {
  for (uint32_t idx : path) {
    r = mtype::skip_var(g, r);
    r = g.at(r).children.at(idx);
  }
  return mtype::skip_var(g, r);
}

/// Emits C type declarations for the reachable part of a graph.
class TypeEmitter {
 public:
  TypeEmitter(const Graph& g, std::string prefix, CodeWriter& out)
      : g_(g), prefix_(std::move(prefix)), out_(out) {}

  /// The C type name for a node (emitting its declaration on first use).
  /// Var nodes yield "<rec name>*" — member declarations handle the star.
  std::string type_of(Ref r) {
    const auto& n = g_.at(r);
    if (n.kind == MKind::Var) return type_of(n.var_target) + "*";
    auto it = names_.find(r);
    if (it != names_.end()) return it->second;
    return emit(r);
  }

  [[nodiscard]] bool is_pointer_member(Ref r) const {
    return g_.at(r).kind == MKind::Var;
  }

 private:
  std::string fresh_name(Ref r, const char* stem) {
    std::string base = prefix_ + "_" + stem;
    const auto& n = g_.at(r);
    if (!n.name.empty()) base += "_" + sanitize_identifier(n.name);
    base += "_" + std::to_string(r);
    return base;
  }

  std::string emit(Ref r) {
    const auto& n = g_.at(r);
    switch (n.kind) {
      case MKind::Unit: {
        std::string name = fresh_name(r, "unit");
        names_[r] = name;
        out_.line("typedef uint8_t " + name + "; /* unit */");
        return name;
      }
      case MKind::Int: {
        std::string name = fresh_name(r, "int");
        names_[r] = name;
        out_.line("typedef " + c_int_type(n.lo, n.hi) + " " + name + "; /* [" +
                  to_string(n.lo) + ".." + to_string(n.hi) + "] */");
        return name;
      }
      case MKind::Real: {
        std::string name = fresh_name(r, "real");
        names_[r] = name;
        out_.line(std::string("typedef ") +
                  (n.mantissa_bits <= 24 ? "float " : "double ") + name + ";");
        return name;
      }
      case MKind::Char: {
        std::string name = fresh_name(r, "char");
        names_[r] = name;
        bool narrow = n.repertoire == stype::Repertoire::Ascii ||
                      n.repertoire == stype::Repertoire::Latin1;
        out_.line(std::string("typedef ") + (narrow ? "uint8_t " : "uint32_t ") +
                  name + "; /* " + stype::to_string(n.repertoire) + " */");
        return name;
      }
      case MKind::Port: {
        std::string name = fresh_name(r, "port");
        names_[r] = name;
        out_.line("typedef uint64_t " + name + "; /* endpoint id */");
        return name;
      }
      case MKind::Record: {
        std::string name = fresh_name(r, "rec");
        names_[r] = name;  // register early: records cannot self-reference
                           // except through Rec, but be safe
        std::vector<std::string> member_types;
        member_types.reserve(n.children.size());
        for (Ref c : n.children) member_types.push_back(type_of(c));
        out_.open("typedef struct " + name + " {");
        if (n.children.empty()) out_.line("uint8_t _empty;");
        for (size_t i = 0; i < n.children.size(); ++i) {
          std::string label =
              i < n.labels.size() && !n.labels[i].empty() ? n.labels[i] : "";
          out_.line(member_types[i] + " m" + std::to_string(i) + ";" +
                    (label.empty() ? "" : " /* " + label + " */"));
        }
        out_.close("} " + name + ";");
        return name;
      }
      case MKind::Choice: {
        std::string name = fresh_name(r, "ch");
        names_[r] = name;
        std::vector<std::string> member_types;
        std::vector<bool> is_unit;
        for (Ref c : n.children) {
          is_unit.push_back(g_.at(mtype::skip_var(g_, c)).kind == MKind::Unit);
          member_types.push_back(is_unit.back() ? "" : type_of(c));
        }
        out_.open("typedef struct " + name + " {");
        out_.line("uint32_t tag;");
        bool any_payload = false;
        for (bool u : is_unit) any_payload |= !u;
        if (any_payload) {
          out_.open("union {");
          for (size_t i = 0; i < n.children.size(); ++i) {
            if (is_unit[i]) continue;
            std::string label =
                i < n.labels.size() && !n.labels[i].empty() ? n.labels[i] : "";
            out_.line(member_types[i] + " a" + std::to_string(i) + ";" +
                      (label.empty() ? "" : " /* " + label + " */"));
          }
          out_.close("} u;");
        }
        out_.close("} " + name + ";");
        return name;
      }
      case MKind::Rec: {
        // Canonical single-element lists get the {len, data} representation.
        auto elems = mtype::match_list_shape(g_, r);
        if (elems && elems->size() == 1) {
          std::string name = fresh_name(r, "list");
          names_[r] = name;
          std::string elem_type = type_of((*elems)[0]);
          out_.open("typedef struct " + name + " {");
          out_.line("uint32_t len;");
          out_.line(elem_type + " *data;");
          out_.close("} " + name + ";");
          return name;
        }
        // General recursion: the Rec struct IS its body; back-references
        // (Var) become pointers to it.
        std::string name = fresh_name(r, "mu");
        names_[r] = name;
        out_.line("struct " + name + "_s;");
        out_.line("typedef struct " + name + "_s " + name + ";");
        // Emit the body with the Rec's own struct tag.
        Ref body = n.body();
        const auto& bn = g_.at(body);
        if (bn.kind == MKind::Choice) {
          std::vector<std::string> member_types;
          std::vector<bool> is_unit;
          for (Ref c : bn.children) {
            is_unit.push_back(g_.at(mtype::skip_var(g_, c)).kind == MKind::Unit);
            member_types.push_back(is_unit.back() ? "" : type_of(c));
          }
          out_.open("struct " + name + "_s {");
          out_.line("uint32_t tag;");
          bool any_payload = false;
          for (bool u : is_unit) any_payload |= !u;
          if (any_payload) {
            out_.open("union {");
            for (size_t i = 0; i < bn.children.size(); ++i) {
              if (is_unit[i]) continue;
              out_.line(member_types[i] + " a" + std::to_string(i) + ";");
            }
            out_.close("} u;");
          }
          out_.close("};");
        } else if (bn.kind == MKind::Record) {
          std::vector<std::string> member_types;
          for (Ref c : bn.children) member_types.push_back(type_of(c));
          out_.open("struct " + name + "_s {");
          if (bn.children.empty()) out_.line("uint8_t _empty;");
          for (size_t i = 0; i < bn.children.size(); ++i) {
            out_.line(member_types[i] + " m" + std::to_string(i) + ";");
          }
          out_.close("};");
        } else {
          throw MbError("codegen: unsupported recursive body shape");
        }
        names_[body] = name;  // the body shares the Rec's type
        return name;
      }
      case MKind::Var: return type_of(n.var_target) + "*";
    }
    throw MbError("codegen: unhandled mtype kind");
  }

  const Graph& g_;
  std::string prefix_;
  CodeWriter& out_;
  std::map<Ref, std::string> names_;
};

/// Emits converter functions, one per (PlanIR instruction, src ref, dst ref)
/// triple. Consuming the verified flat program (rather than the plan tree)
/// means Alias indirections are already resolved and record/choice layouts
/// come from the IR's side tables — the same arrays the engine executes.
class ConvEmitter {
 public:
  ConvEmitter(const Graph& ga, const Graph& gb, const planir::Program& prog,
              TypeEmitter& src_types, TypeEmitter& dst_types,
              const std::string& prefix, CodeWriter& protos, CodeWriter& bodies)
      : ga_(ga), gb_(gb), prog_(prog), src_types_(src_types),
        dst_types_(dst_types), prefix_(prefix), protos_(protos), bodies_(bodies) {}

  /// Returns the function name converting (a -> b) per instruction `idx`.
  std::string emit(Ref a, Ref b, uint32_t idx) {
    a = mtype::skip_var(ga_, a);
    b = mtype::skip_var(gb_, b);
    auto key = std::make_tuple(a, b, idx);
    auto it = emitted_.find(key);
    if (it != emitted_.end()) return it->second;

    std::string fn = prefix_ + "_i" + std::to_string(idx) + "_" +
                     std::to_string(a) + "_" + std::to_string(b);
    emitted_[key] = fn;

    std::string src_t = src_types_.type_of(a);
    std::string dst_t = dst_types_.type_of(b);
    std::string sig = "static void " + fn + "(const " + src_t + " *in, " +
                      dst_t + " *out)";
    protos_.line(sig + ";");

    CodeWriter body;
    body.open(sig + " {");
    emit_body(a, b, idx, body);
    body.close("}");
    body.blank();
    pending_.push_back(body.take());
    return fn;
  }

  void flush_all() {
    for (auto& s : pending_) bodies_.raw(s);
    pending_.clear();
  }

 private:
  [[nodiscard]] Path path_of(uint32_t off, uint32_t len) const {
    return Path(prog_.path_pool.begin() + off, prog_.path_pool.begin() + off + len);
  }

  void emit_body(Ref a, Ref b, uint32_t idx, CodeWriter& w) {
    const planir::Instr& ins = prog_.code.at(idx);
    // The IR has no Alias ops (resolved at compile time), but recursive
    // types still reach here wrapped in their Rec node: unfold both sides
    // and forward. The casts are sound — a Rec's typedef IS its body's
    // struct. Memoization on the Rec refs breaks the recursion. MapList is
    // exempt: it consumes the (list-shaped) Rec itself, like the engine.
    if ((is_rec(ga_, a) || is_rec(gb_, b)) &&
        ins.op != planir::OpCode::MapList) {
      std::string inner = emit(unfold(ga_, a), unfold(gb_, b), idx);
      w.line(inner + "((const void *)in, (void *)out);");
      return;
    }
    switch (ins.op) {
      case planir::OpCode::MakeUnit:
        w.line("(void)in;");
        w.line("*out = 0;");
        return;
      case planir::OpCode::CopyInt:
      case planir::OpCode::CopyReal:
      case planir::OpCode::CopyChar: {
        std::string dst_t = dst_types_.type_of(b);
        w.line("*out = (" + dst_t + ")(*in);");
        return;
      }
      case planir::OpCode::CopyPort:
        w.line("*out = *in; /* endpoint ids convert at the rpc layer */");
        return;
      case planir::OpCode::MapList: {
        auto ea = mtype::match_list_shape(ga_, a);
        auto eb = mtype::match_list_shape(gb_, b);
        if (!ea || !eb) throw MbError("codegen: ListMap on non-list types");
        std::string elem_fn = emit((*ea)[0], (*eb)[0], ins.a);
        std::string dst_elem = dst_types_.type_of((*eb)[0]);
        w.line("out->len = in->len;");
        w.line("out->data = (" + dst_elem + " *)malloc(in->len * sizeof(" +
               dst_elem + "));");
        w.open("for (uint32_t i = 0; i < in->len; ++i) {");
        w.line(elem_fn + "(&in->data[i], &out->data[i]);");
        w.close("}");
        return;
      }
      case planir::OpCode::ExtractField: {
        const auto& f = prog_.fields.at(ins.a);
        Path src_path = path_of(f.src_off, f.src_len);
        Ref src_child = follow_record_path(ga_, a, src_path);
        std::string inner = emit(src_child, b, f.op);
        w.line(inner + "(&in" + record_expr(src_path) + ", out);");
        return;
      }
      case planir::OpCode::BuildRecord: {
        const auto& rt = prog_.records.at(ins.a);
        for (uint32_t i = 0; i < rt.fields_len; ++i) {
          const auto& f = prog_.fields.at(rt.fields_off + i);
          Path src_path = path_of(f.src_off, f.src_len);
          Path dst_path = path_of(f.dst_off, f.dst_len);
          Ref src_child = follow_record_path(ga_, a, src_path);
          Ref dst_child = follow_record_path(gb_, b, dst_path);
          bool src_ptr = raw_child_is_var(ga_, a, src_path);
          bool dst_ptr = raw_child_is_var(gb_, b, dst_path);
          std::string fn = emit(src_child, dst_child, f.op);
          std::string src_expr = src_ptr ? "in" + record_expr(src_path)
                                         : "&in" + record_expr(src_path);
          std::string dst_lv = "out" + record_expr(dst_path);
          if (dst_ptr) {
            std::string dst_t = dst_types_.type_of(dst_child);
            w.line(dst_lv + " = (" + dst_t + " *)malloc(sizeof(" + dst_t + "));");
            w.line(fn + "(" + src_expr + ", " + dst_lv + ");");
          } else {
            w.line(fn + "(" + src_expr + ", &" + dst_lv + ");");
          }
        }
        if (rt.fields_len == 0) {
          w.line("(void)in;");
          w.line("(void)out;");
        }
        return;
      }
      case planir::OpCode::MatchChoice: {
        emit_choice(a, b, prog_.choices.at(ins.a), w);
        return;
      }
      case planir::OpCode::CallCustom: {
        // Hand-written conversions are linked in by the user: emit an
        // extern prototype and the call (paper §6 composition).
        std::string fn = sanitize_identifier(prog_.custom_names.at(ins.a));
        std::string src_t = src_types_.type_of(a);
        std::string dst_t = dst_types_.type_of(b);
        protos_.line("extern void " + fn + "(const " + src_t + " *in, " +
                     dst_t + " *out); /* hand-written */");
        w.line(fn + "(in, out);");
        return;
      }
      default:
        throw MbError("codegen: marshal opcode in convert program");
    }
  }

  /// A member-access expression descending a choice-arm path, tracking
  /// pointer-ness: the base ("in"/"out") is a pointer; union payloads are
  /// values, except Var payloads (pointers to the Rec struct).
  struct Access {
    std::string expr;
    bool is_ptr;
    [[nodiscard]] std::string sep() const { return is_ptr ? "->" : "."; }
  };

  /// Step into arm `idx`'s payload.
  Access descend_arm(const Graph& g, Access acc, Ref choice_ref, uint32_t idx,
                     Ref* next_out) const {
    Ref raw_child = g.at(mtype::skip_var(g, choice_ref)).children.at(idx);
    bool child_is_var = g.at(raw_child).kind == MKind::Var;
    Access next;
    next.expr = acc.expr + acc.sep() + "u.a" + std::to_string(idx);
    next.is_ptr = child_is_var;
    *next_out = mtype::skip_var(g, raw_child);
    return next;
  }

  void emit_choice(Ref a, Ref b, const planir::Program::ChoiceTab& ct,
                   CodeWriter& w) {
    // Each flattened source arm becomes one branch of an if-else chain
    // testing the (possibly nested) tag path. Arm order in the IR is the
    // plan's arm order, so the chain tries arms in the same order the
    // interpreter's linear scan would.
    bool first = true;
    for (uint32_t ai = 0; ai < ct.arms_len; ++ai) {
      const auto& arm = prog_.arms.at(ct.arms_off + ai);
      Path src_path = path_of(arm.src_off, arm.src_len);
      Path dst_path = path_of(arm.dst_off, arm.dst_len);
      std::string cond;
      Access in{"in", true};
      Ref cur = a;
      for (size_t d = 0; d < src_path.size(); ++d) {
        uint32_t idx = src_path[d];
        if (!cond.empty()) cond += " && ";
        cond += in.expr + in.sep() + "tag == " + std::to_string(idx) + "u";
        in = descend_arm(ga_, in, cur, idx, &cur);
      }
      bool src_unit = ga_.at(cur).kind == MKind::Unit;

      w.open((first ? "if (" : "else if (") + cond + ") {");
      first = false;

      // Set target tags along the destination path.
      Access out{"out", true};
      Ref dst_cur = b;
      for (size_t d = 0; d < dst_path.size(); ++d) {
        uint32_t idx = dst_path[d];
        w.line(out.expr + out.sep() + "tag = " + std::to_string(idx) + "u;");
        Access next = descend_arm(gb_, out, dst_cur, idx, &dst_cur);
        if (next.is_ptr && d + 1 < dst_path.size()) {
          // A Var payload on the way down: allocate the next cell.
          std::string t = dst_types_.type_of(dst_cur);
          w.line(next.expr + " = (" + t + " *)malloc(sizeof(" + t + "));");
        }
        out = next;
      }
      bool dst_unit = gb_.at(dst_cur).kind == MKind::Unit;

      if (!dst_unit && !src_unit) {
        std::string fn = emit(cur, dst_cur, arm.op);
        std::string src_ref = in.is_ptr ? in.expr : "&" + in.expr;
        if (out.is_ptr) {
          std::string t = dst_types_.type_of(dst_cur);
          w.line(out.expr + " = (" + t + " *)malloc(sizeof(" + t + "));");
          w.line(fn + "(" + src_ref + ", " + out.expr + ");");
        } else {
          w.line(fn + "(" + src_ref + ", &" + out.expr + ");");
        }
      }
      w.close("}");
    }
    w.open("else {");
    w.line("/* no matching arm: leave target zeroed */");
    w.close("}");
  }

  static bool is_rec(const Graph& g, Ref r) {
    const auto& n = g.at(r);
    return n.kind == MKind::Rec && n.body() != mtype::kNullRef;
  }

  static Ref unfold(const Graph& g, Ref r) {
    r = mtype::skip_var(g, r);
    const auto& n = g.at(r);
    return n.kind == MKind::Rec && n.body() != mtype::kNullRef ? n.body() : r;
  }

  static Ref follow_choice_path(const Graph& g, Ref r, const Path& path) {
    for (uint32_t idx : path) {
      r = mtype::skip_var(g, r);
      r = g.at(r).children.at(idx);
    }
    return mtype::skip_var(g, r);
  }

  static Ref raw_choice_child(const Graph& g, Ref r, const Path& path) {
    for (size_t i = 0; i < path.size(); ++i) {
      r = mtype::skip_var(g, r);
      r = g.at(r).children.at(path[i]);
      if (i + 1 < path.size()) r = mtype::skip_var(g, r);
    }
    return r;
  }

  /// Whether the child at `path` (without skipping the final Var) is a Var
  /// — i.e. a pointer member in the C representation.
  static bool raw_child_is_var(const Graph& g, Ref r, const Path& path) {
    if (path.empty()) return false;
    for (size_t i = 0; i < path.size(); ++i) {
      r = mtype::skip_var(g, r);
      r = g.at(r).children.at(path[i]);
    }
    return g.at(r).kind == MKind::Var;
  }

  static std::string record_expr(const Path& path) {
    std::string expr;
    for (size_t i = 0; i < path.size(); ++i) {
      expr += (i == 0 ? "->m" : ".m") + std::to_string(path[i]);
    }
    return expr;
  }

  const Graph& ga_;
  const Graph& gb_;
  const planir::Program& prog_;
  TypeEmitter& src_types_;
  TypeEmitter& dst_types_;
  std::string prefix_;
  CodeWriter& protos_;
  CodeWriter& bodies_;
  std::map<std::tuple<Ref, Ref, uint32_t>, std::string> emitted_;
  std::vector<std::string> pending_;
};

// ---- wire marshaler -----------------------------------------------------------

class MarshalEmitter {
 public:
  MarshalEmitter(const Graph& g, TypeEmitter& types, std::string prefix,
                 CodeWriter& protos, CodeWriter& bodies)
      : g_(g), types_(types), prefix_(std::move(prefix)), protos_(protos),
        bodies_(bodies) {}

  std::string emit_decoder(Ref r) {
    r = mtype::skip_var(g_, r);
    auto it = decoders_.find(r);
    if (it != decoders_.end()) return it->second;
    std::string fn = prefix_ + "_dec_" + std::to_string(r);
    decoders_[r] = fn;
    std::string t = types_.type_of(r);
    std::string sig = "static size_t " + fn + "(" + t + " *v, const uint8_t *buf)";
    protos_.line(sig + ";");

    CodeWriter w;
    w.open(sig + " {");
    w.line("size_t n = 0;");
    emit_decode_body(r, w);
    w.line("return n;");
    w.close("}");
    w.blank();
    pending_.push_back(w.take());
    return fn;
  }

  std::string emit_encoder(Ref r) {
    r = mtype::skip_var(g_, r);
    auto it = encoders_.find(r);
    if (it != encoders_.end()) return it->second;
    std::string fn = prefix_ + "_enc_" + std::to_string(r);
    encoders_[r] = fn;
    std::string t = types_.type_of(r);
    std::string sig =
        "static size_t " + fn + "(const " + t + " *v, uint8_t *buf)";
    protos_.line(sig + ";");

    CodeWriter w;
    w.open(sig + " {");
    w.line("size_t n = 0;");
    emit_encode_body(r, w);
    w.line("return n;");
    w.close("}");
    w.blank();
    pending_.push_back(w.take());
    return fn;
  }

  void flush_all() {
    for (auto& s : pending_) bodies_.raw(s);
    pending_.clear();
  }

 private:
  void put_big(CodeWriter& w, const std::string& value_expr, unsigned bytes) {
    w.line("{ uint64_t x = (uint64_t)(" + value_expr + "); for (int k = " +
           std::to_string(bytes - 1) +
           "; k >= 0; --k) buf[n++] = (uint8_t)(x >> (8 * k)); }");
  }

  void emit_encode_body(Ref r, CodeWriter& w) {
    const auto& node = g_.at(r);
    switch (node.kind) {
      case MKind::Unit:
        w.line("(void)v;");
        return;
      case MKind::Int: {
        unsigned width = wire::int_width(node.lo, node.hi);
        if (width > 8) throw MbError("codegen marshaler: >64-bit range");
        put_big(w, "*v - (" + c_int_type(node.lo, node.hi) + ")" +
                       to_string(node.lo) + "LL",
                width);
        return;
      }
      case MKind::Char: {
        bool narrow = node.repertoire == stype::Repertoire::Ascii ||
                      node.repertoire == stype::Repertoire::Latin1;
        put_big(w, "*v", narrow ? 1 : 4);
        return;
      }
      case MKind::Real:
        if (node.mantissa_bits <= 24) {
          w.line("{ uint32_t bits; float f = (float)*v; memcpy(&bits, &f, 4);");
          w.line("  for (int k = 3; k >= 0; --k) buf[n++] = (uint8_t)(bits >> (8 * k)); }");
        } else {
          w.line("{ uint64_t bits; double d = (double)*v; memcpy(&bits, &d, 8);");
          w.line("  for (int k = 7; k >= 0; --k) buf[n++] = (uint8_t)(bits >> (8 * k)); }");
        }
        return;
      case MKind::Port: put_big(w, "*v", 8); return;
      case MKind::Record: {
        for (size_t i = 0; i < node.children.size(); ++i) {
          std::string fn = emit_encoder(node.children[i]);
          bool ptr = types_.is_pointer_member(node.children[i]);
          w.line("n += " + fn + "(" + (ptr ? "" : "&") + "v->m" +
                 std::to_string(i) + ", buf + n);");
        }
        if (node.children.empty()) w.line("(void)v;");
        return;
      }
      case MKind::Choice: {
        put_big(w, "v->tag", 4);
        w.open("switch (v->tag) {");
        for (size_t i = 0; i < node.children.size(); ++i) {
          Ref child = mtype::skip_var(g_, node.children[i]);
          w.open("case " + std::to_string(i) + "u: {");
          if (g_.at(child).kind != MKind::Unit) {
            std::string fn = emit_encoder(node.children[i]);
            bool ptr = types_.is_pointer_member(node.children[i]);
            w.line("n += " + fn + "(" + (ptr ? "" : "&") + "v->u.a" +
                   std::to_string(i) + ", buf + n);");
          }
          w.line("break;");
          w.close("}");
        }
        w.close("}");
        return;
      }
      case MKind::Rec: {
        auto elems = mtype::match_list_shape(g_, r);
        if (elems && elems->size() == 1) {
          put_big(w, "v->len", 4);
          std::string fn = emit_encoder((*elems)[0]);
          w.open("for (uint32_t i = 0; i < v->len; ++i) {");
          w.line("n += " + fn + "(&v->data[i], buf + n);");
          w.close("}");
          return;
        }
        // General recursion: the struct shares the body's layout.
        emit_encode_body(g_.at(r).body(), w);
        return;
      }
      case MKind::Var: {
        emit_encode_body(g_.at(r).var_target, w);
        return;
      }
    }
  }

  void get_big(CodeWriter& w, const std::string& lvalue, unsigned bytes,
               const std::string& cast) {
    w.line("{ uint64_t x = 0; for (int k = 0; k < " + std::to_string(bytes) +
           "; ++k) x = (x << 8) | buf[n++]; " + lvalue + " = (" + cast +
           ")x; }");
  }

  void emit_decode_body(Ref r, CodeWriter& w) {
    const auto& node = g_.at(r);
    switch (node.kind) {
      case MKind::Unit:
        w.line("*v = 0;");
        return;
      case MKind::Int: {
        unsigned width = wire::int_width(node.lo, node.hi);
        if (width > 8) throw MbError("codegen marshaler: >64-bit range");
        std::string t = c_int_type(node.lo, node.hi);
        w.line("{ uint64_t x = 0; for (int k = 0; k < " + std::to_string(width) +
               "; ++k) x = (x << 8) | buf[n++]; *v = (" + t + ")(x + (" + t +
               ")" + to_string(node.lo) + "LL); }");
        return;
      }
      case MKind::Char: {
        bool narrow = node.repertoire == stype::Repertoire::Ascii ||
                      node.repertoire == stype::Repertoire::Latin1;
        get_big(w, "*v", narrow ? 1 : 4, narrow ? "uint8_t" : "uint32_t");
        return;
      }
      case MKind::Real:
        if (node.mantissa_bits <= 24) {
          w.line("{ uint32_t bits = 0; for (int k = 0; k < 4; ++k) bits = (bits << 8) | buf[n++];");
          w.line("  float f; memcpy(&f, &bits, 4); *v = f; }");
        } else {
          w.line("{ uint64_t bits = 0; for (int k = 0; k < 8; ++k) bits = (bits << 8) | buf[n++];");
          w.line("  double d; memcpy(&d, &bits, 8); *v = d; }");
        }
        return;
      case MKind::Port: get_big(w, "*v", 8, "uint64_t"); return;
      case MKind::Record: {
        for (size_t i = 0; i < node.children.size(); ++i) {
          std::string fn = emit_decoder(node.children[i]);
          bool ptr = types_.is_pointer_member(node.children[i]);
          if (ptr) {
            std::string t = types_.type_of(mtype::skip_var(g_, node.children[i]));
            w.line("v->m" + std::to_string(i) + " = (" + t + " *)malloc(sizeof(" +
                   t + "));");
            w.line("n += " + fn + "(v->m" + std::to_string(i) + ", buf + n);");
          } else {
            w.line("n += " + fn + "(&v->m" + std::to_string(i) + ", buf + n);");
          }
        }
        if (node.children.empty()) w.line("v->_empty = 0;");
        return;
      }
      case MKind::Choice: {
        get_big(w, "v->tag", 4, "uint32_t");
        w.open("switch (v->tag) {");
        for (size_t i = 0; i < node.children.size(); ++i) {
          Ref child = mtype::skip_var(g_, node.children[i]);
          w.open("case " + std::to_string(i) + "u: {");
          if (g_.at(child).kind != MKind::Unit) {
            std::string fn = emit_decoder(node.children[i]);
            bool ptr = types_.is_pointer_member(node.children[i]);
            if (ptr) {
              std::string t = types_.type_of(child);
              w.line("v->u.a" + std::to_string(i) + " = (" + t +
                     " *)malloc(sizeof(" + t + "));");
              w.line("n += " + fn + "(v->u.a" + std::to_string(i) + ", buf + n);");
            } else {
              w.line("n += " + fn + "(&v->u.a" + std::to_string(i) + ", buf + n);");
            }
          }
          w.line("break;");
          w.close("}");
        }
        w.close("}");
        return;
      }
      case MKind::Rec: {
        auto elems = mtype::match_list_shape(g_, r);
        if (elems && elems->size() == 1) {
          get_big(w, "v->len", 4, "uint32_t");
          std::string elem_t = types_.type_of((*elems)[0]);
          std::string fn = emit_decoder((*elems)[0]);
          w.line("v->data = (" + elem_t + " *)malloc(v->len * sizeof(" + elem_t +
                 "));");
          w.open("for (uint32_t i = 0; i < v->len; ++i) {");
          w.line("n += " + fn + "(&v->data[i], buf + n);");
          w.close("}");
          return;
        }
        emit_decode_body(g_.at(r).body(), w);
        return;
      }
      case MKind::Var: emit_decode_body(g_.at(r).var_target, w); return;
    }
  }

  const Graph& g_;
  TypeEmitter& types_;
  std::string prefix_;
  CodeWriter& protos_;
  CodeWriter& bodies_;
  std::map<Ref, std::string> encoders_;
  std::map<Ref, std::string> decoders_;
  std::vector<std::string> pending_;
};

// ---- native marshaler ----------------------------------------------------------

/// Straight-line C from a native-marshal program: the instruction tree is
/// small by construction (NativeSeq fields inline, no loops or recursion),
/// so every op becomes a braced block over `img`/`buf`/`n`.
class NativeMarshalEmitter {
 public:
  NativeMarshalEmitter(const planir::Program& prog, CodeWriter& w)
      : prog_(prog), il_(*prog.src_layout), w_(w) {}

  void emit_prologue() {
    // Mirror runtime::check_image_ranges: every annotated integer range and
    // enum membership, in pre-order read order, before any byte is written.
    for (const auto& n : il_.nodes) {
      switch (n.kind) {
        case runtime::ImageLayout::K::UInt:
        case runtime::ImageLayout::K::SInt: {
          if (!n.has_lo && !n.has_hi) break;
          bool sig = n.kind == runtime::ImageLayout::K::SInt;
          w_.open("{");
          read_scalar(sig, n.offset, n.width);
          if (n.has_lo) fail_if("x < " + lit(sig, n.lo));
          if (n.has_hi) fail_if("x > " + lit(sig, n.hi));
          w_.close("}");
          break;
        }
        case runtime::ImageLayout::K::Enum: {
          w_.open("{");
          read_scalar(/*is_signed=*/true, n.offset, n.width);
          w_.open("switch (x) {");
          std::string cases;
          for (uint32_t k = 0; k < n.enum_len; ++k) {
            cases += "case " + lit(true, Int128{il_.enum_pool[n.enum_off + k]}) +
                     ": ";
          }
          w_.line(cases + "break;");
          w_.line("default: return (size_t)-1;");
          w_.close("}");
          w_.close("}");
          break;
        }
        default: break;
      }
    }
  }

  void emit_op(uint32_t idx) {
    const planir::Instr& ins = prog_.code[idx];
    switch (ins.op) {
      case planir::OpCode::EmitNothing: return;
      case planir::OpCode::LoadInt: {
        const auto& s = prog_.natives[ins.a];
        bool sig = (s.flags & planir::Program::NativeSlot::kSigned) != 0;
        bool b = (s.flags & planir::Program::NativeSlot::kBool) != 0;
        w_.open("{");
        read_scalar(sig && !b, s.src_off, s.width);
        if (b) w_.line("x = x != 0 ? 1 : 0;");
        Int128 dmin = b ? 0 : domain_min(sig, s.width);
        Int128 dmax = b ? 1 : domain_max(sig, s.width);
        check_range(sig && !b, dmin, dmax, ins.lo, ins.hi);
        const mtype::Node& dn = prog_.dst_graph->at(prog_.dst_types[ins.b]);
        check_range(sig && !b, dmin, dmax, dn.lo, dn.hi);
        // Modular subtraction of the wire base; the checked value fits the
        // wire width, so the low 64 bits are the encoding.
        w_.line("uint64_t ux = (uint64_t)x - (uint64_t)" + lit(true, dn.lo) +
                ";");
        put_big("ux", slot_aux(s));
        w_.close("}");
        return;
      }
      case planir::OpCode::LoadReal32: {
        const auto& s = prog_.natives[ins.a];
        w_.open("{");
        read_real(s);
        w_.line("float f = (float)d; uint32_t bits; memcpy(&bits, &f, 4);");
        put_big("bits", 4);
        w_.close("}");
        return;
      }
      case planir::OpCode::LoadReal64: {
        const auto& s = prog_.natives[ins.a];
        w_.open("{");
        read_real(s);
        w_.line("uint64_t bits; memcpy(&bits, &d, 8);");
        put_big("bits", 8);
        w_.close("}");
        return;
      }
      case planir::OpCode::LoadChar1: {
        const auto& s = prog_.natives[ins.a];
        w_.open("{");
        read_scalar(/*is_signed=*/false, s.src_off, s.width);
        fail_if("x > 0xff");
        w_.line("buf[n++] = (uint8_t)x;");
        w_.close("}");
        return;
      }
      case planir::OpCode::LoadChar4: {
        const auto& s = prog_.natives[ins.a];
        w_.open("{");
        read_scalar(/*is_signed=*/false, s.src_off, s.width);
        w_.line("uint64_t ux = x;");
        put_big("ux", 4);
        w_.close("}");
        return;
      }
      case planir::OpCode::BlockCopy: {
        const auto& s = prog_.natives[ins.a];
        w_.line("memcpy(buf + n, img + " + std::to_string(s.src_off) + ", " +
                std::to_string(s.width) + "); n += " + std::to_string(s.width) +
                ";");
        return;
      }
      case planir::OpCode::ConstBytes: {
        std::string bytes;
        for (uint32_t k = 0; k < ins.b; ++k) {
          if (k != 0) bytes += ", ";
          bytes += std::to_string(prog_.byte_pool[ins.a + k]);
        }
        w_.line("{ static const uint8_t c[] = {" + bytes +
                "}; memcpy(buf + n, c, " + std::to_string(ins.b) + "); n += " +
                std::to_string(ins.b) + "; }");
        return;
      }
      case planir::OpCode::NativeSeq: {
        const auto& rt = prog_.records[ins.a];
        for (uint32_t k = 0; k < rt.fields_len; ++k) {
          emit_op(prog_.fields[rt.fields_off + k].op);
        }
        return;
      }
      case planir::OpCode::LoadEnum:
      case planir::OpCode::LoadOpaque:
        throw MbError(std::string("codegen native marshaler: ") +
                      planir::to_string(ins.op) +
                      " needs the runtime fallback path");
      default:
        throw MbError(std::string("codegen native marshaler: unexpected op ") +
                      planir::to_string(ins.op));
    }
  }

 private:
  static Int128 domain_min(bool is_signed, uint32_t width) {
    return is_signed ? -pow2(8 * width - 1) : Int128{0};
  }
  static Int128 domain_max(bool is_signed, uint32_t width) {
    return is_signed ? pow2(8 * width - 1) - 1 : pow2(8 * width) - 1;
  }

  static unsigned slot_aux(const planir::Program::NativeSlot& s) {
    if (s.aux > 8) throw MbError("codegen native marshaler: >64-bit range");
    return s.aux;
  }

  /// A C literal for `v` typed to match the compared variable. INT64_MIN
  /// has no direct literal spelling; everything else fits a plain suffix.
  static std::string lit(bool is_signed, Int128 v) {
    if (!is_signed) {
      if (v < 0 || v > Int128{static_cast<__int128>(~uint64_t{0})}) {
        throw MbError("codegen native marshaler: >64-bit range");
      }
      return to_string(v) + "ULL";
    }
    if (v == -pow2(63)) return "(-9223372036854775807LL - 1)";
    if (v < -pow2(63) || v > pow2(63) - 1) {
      throw MbError("codegen native marshaler: >64-bit range");
    }
    return to_string(v) + "LL";
  }

  void fail_if(const std::string& cond) {
    w_.line("if (" + cond + ") return (size_t)-1;");
  }

  /// Declare `x` holding the little-endian scalar at img[off..off+width),
  /// sign-extended when `is_signed` (matching NativeHeap::read_int/read_uint).
  void read_scalar(bool is_signed, uint32_t off, uint32_t width) {
    w_.line("uint64_t r = 0; for (int k = " + std::to_string(width - 1) +
            "; k >= 0; --k) r = (r << 8) | img[" + std::to_string(off) +
            " + k];");
    if (is_signed) {
      unsigned sh = 64 - 8 * width;
      w_.line("int64_t x = (int64_t)(r << " + std::to_string(sh) + ") >> " +
              std::to_string(sh) + ";");
    } else {
      w_.line("uint64_t x = r;");
    }
  }

  /// Declare `d` holding the native real (f32 widened) at the slot.
  void read_real(const planir::Program::NativeSlot& s) {
    if (s.width == 4) {
      w_.line("float sf; memcpy(&sf, img + " + std::to_string(s.src_off) +
              ", 4); double d = (double)sf;");
    } else {
      w_.line("double d; memcpy(&d, img + " + std::to_string(s.src_off) +
              ", 8);");
    }
  }

  /// Bounds on `x` (domain [dmin..dmax]) against [lo..hi]; checks the domain
  /// already implies are skipped, impossible ranges fail unconditionally.
  void check_range(bool is_signed, Int128 dmin, Int128 dmax, Int128 lo,
                   Int128 hi) {
    if (lo > dmin) {
      if (lo > dmax) {
        w_.line("return (size_t)-1;");
        return;
      }
      fail_if("x < " + lit(is_signed, lo));
    }
    if (hi < dmax) {
      if (hi < dmin) {
        w_.line("return (size_t)-1;");
        return;
      }
      fail_if("x > " + lit(is_signed, hi));
    }
  }

  void put_big(const std::string& var, unsigned bytes) {
    w_.line("for (int k = " + std::to_string(bytes - 1) +
            "; k >= 0; --k) buf[n++] = (uint8_t)(" + var + " >> (8 * k));");
  }

  const planir::Program& prog_;
  const runtime::ImageLayout& il_;
  CodeWriter& w_;
};

}  // namespace

CStub generate_c_stub(const Graph& ga, Ref a, const Graph& gb, Ref b,
                      const plan::PlanGraph& plans, plan::PlanRef root,
                      const std::string& stub_name, const Options& options) {
  // Lower to the flat IR first: the generator consumes the same verified
  // program the engine executes, so malformed plans are rejected here (typed
  // IrError) instead of surfacing as broken C.
  planir::Program prog = planir::compile(plans, root);
  planir::require_valid(prog);

  CStub out;
  CodeWriter header;
  header.line("/* Generated by Mockingbird. Do not edit. */");
  header.line("#ifndef MBIRD_STUB_" + stub_name + "_H");
  header.line("#define MBIRD_STUB_" + stub_name + "_H");
  header.line("#include <stdint.h>");
  header.line("#include <stddef.h>");
  header.blank();
  header.line("/* ---- source-side types ---- */");
  TypeEmitter src_types(ga, stub_name + "_src", header);
  std::string src_root_t = src_types.type_of(mtype::skip_var(ga, a));
  header.blank();
  header.line("/* ---- target-side types ---- */");
  TypeEmitter dst_types(gb, stub_name + "_dst", header);
  std::string dst_root_t = dst_types.type_of(mtype::skip_var(gb, b));
  header.blank();

  CodeWriter protos;
  CodeWriter bodies;
  ConvEmitter conv(ga, gb, prog, src_types, dst_types, stub_name, protos,
                   bodies);
  std::string root_fn = conv.emit(a, b, prog.entry);
  conv.flush_all();

  std::string entry = stub_name + "_convert";
  CodeWriter entry_w;
  entry_w.open("void " + entry + "(const " + src_root_t + " *in, " +
               dst_root_t + " *out) {");
  entry_w.line(root_fn + "(in, out);");
  entry_w.close("}");

  std::string marshal_entry;
  CodeWriter marshal_bodies;
  if (options.emit_marshaler) {
    MarshalEmitter me(gb, dst_types, stub_name, protos, marshal_bodies);
    std::string enc = me.emit_encoder(b);
    std::string dec = me.emit_decoder(b);
    me.flush_all();
    marshal_entry = stub_name + "_encode";
    CodeWriter ew;
    ew.open("size_t " + marshal_entry + "(const " + dst_root_t +
            " *v, uint8_t *buf) {");
    ew.line("return " + enc + "(v, buf);");
    ew.close("}");
    ew.open("size_t " + stub_name + "_decode(" + dst_root_t +
            " *v, const uint8_t *buf) {");
    ew.line("return " + dec + "(v, buf);");
    ew.close("}");
    marshal_bodies.blank();
    marshal_bodies.raw(ew.take());
  }

  header.line("void " + entry + "(const " + src_root_t + " *in, " + dst_root_t +
              " *out);");
  if (options.emit_marshaler) {
    header.line("size_t " + stub_name + "_encode(const " + dst_root_t +
                " *v, uint8_t *buf);");
    header.line("size_t " + stub_name + "_decode(" + dst_root_t +
                " *v, const uint8_t *buf);");
  }
  header.line("#endif");

  CodeWriter source;
  source.line("/* Generated by Mockingbird. Do not edit. */");
  source.line("#include \"" + stub_name + ".h\"");
  source.line("#include <stdlib.h>");
  source.line("#include <string.h>");
  source.blank();
  source.raw(protos.str());
  source.blank();
  source.raw(bodies.str());
  source.raw(entry_w.str());
  source.raw(marshal_bodies.str());

  out.header = header.take();
  out.source = source.take();
  out.entry_name = entry;
  out.src_type = src_root_t;
  out.dst_type = dst_root_t;
  return out;
}

std::string generate_native_marshaler(const planir::Program& prog,
                                      const std::string& fn_name) {
  if (prog.mode != planir::Program::Mode::NativeMarshal) {
    throw MbError("generate_native_marshaler() needs a native-marshal program");
  }
  planir::require_valid(prog);

  CodeWriter w;
  w.line("/* Generated by Mockingbird. Do not edit. */");
  w.line("#include <stdint.h>");
  w.line("#include <stddef.h>");
  w.line("#include <string.h>");
  w.blank();
  w.line("/* Marshal the " + std::to_string(prog.src_layout->size) +
         "-byte native image at img to wire bytes in buf. Returns the");
  w.line("   byte count, or (size_t)-1 when a read-time check fails. */");
  w.open("size_t " + fn_name + "(const uint8_t *img, uint8_t *buf) {");
  w.line("size_t n = 0;");
  NativeMarshalEmitter em(prog, w);
  em.emit_prologue();
  em.emit_op(prog.entry);
  w.line("return n;");
  w.close("}");
  return w.take();
}

}  // namespace mbird::codegen
