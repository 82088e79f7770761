#include "lower/lower.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace mbird::lower {

using mtype::Ref;
using stype::AggKind;
using stype::Annotations;
using stype::Direction;
using stype::Kind;
using stype::LengthSpec;
using stype::Prim;
using stype::Repertoire;
using stype::ScalarIntent;
using stype::Stype;

namespace {

struct IntRange {
  Int128 lo, hi;
};

IntRange natural_range(Prim p) {
  switch (p) {
    case Prim::Bool: return {0, 1};
    case Prim::I8: return {-128, 127};
    case Prim::U8: return {0, 255};
    case Prim::I16: return {-pow2(15), pow2(15) - 1};
    case Prim::U16: return {0, pow2(16) - 1};
    case Prim::I32: return {-pow2(31), pow2(31) - 1};
    case Prim::U32: return {0, pow2(32) - 1};
    case Prim::I64: return {-pow2(63), pow2(63) - 1};
    case Prim::U64: return {0, pow2(64) - 1};
    case Prim::Char8: return {0, 255};
    case Prim::Char16: return {0, pow2(16) - 1};
    default: return {0, 0};
  }
}

bool is_integral(Prim p) {
  switch (p) {
    case Prim::Bool:
    case Prim::I8:
    case Prim::U8:
    case Prim::I16:
    case Prim::U16:
    case Prim::I32:
    case Prim::U32:
    case Prim::I64:
    case Prim::U64: return true;
    default: return false;
  }
}

bool is_char(Prim p) { return p == Prim::Char8 || p == Prim::Char16; }

}  // namespace

mtype::Ref LowerEngine::lower_prim(Prim prim, const Annotations& ann,
                                   const std::string& name) {
  // Scalar intent can move a type between the Integer and Character
  // families (paper §3.1).
  bool as_char = is_char(prim);
  if (ann.intent) as_char = *ann.intent == ScalarIntent::Character;

  if (prim == Prim::Void) return graph_.unit();
  if (prim == Prim::F32 || prim == Prim::F64) {
    uint16_t mant = prim == Prim::F32 ? 24 : 53;
    uint16_t exp = prim == Prim::F32 ? 8 : 11;
    if (ann.real) {
      mant = ann.real->mantissa_bits;
      exp = ann.real->exponent_bits;
    }
    return graph_.real(mant, exp, name);
  }

  if (as_char && (is_char(prim) || is_integral(prim))) {
    Repertoire rep;
    if (ann.repertoire) {
      rep = *ann.repertoire;
    } else if (prim == Prim::Char8 || prim == Prim::I8 || prim == Prim::U8) {
      rep = Repertoire::Latin1;
    } else {
      rep = Repertoire::Unicode;
    }
    return graph_.character(rep, name);
  }

  if (is_integral(prim) || is_char(prim)) {
    IntRange r = natural_range(prim);
    if (ann.range_lo) r.lo = *ann.range_lo;
    if (ann.range_hi) r.hi = *ann.range_hi;
    if (r.lo > r.hi) {
      diags_.error({}, "annotated integer range is empty on " +
                           (name.empty() ? std::string("<anon>") : name));
      r.hi = r.lo;
    }
    return graph_.integer(r.lo, r.hi, name);
  }

  diags_.error({}, "cannot lower primitive " + std::string(to_string(prim)));
  return graph_.unit();
}

bool LowerEngine::is_collection(const Stype* decl, const Annotations& eff) const {
  if (eff.ordered_collection.value_or(false)) return true;
  if (decl->kind != Kind::Aggregate) return false;
  // Predefined annotations on standard Java classes (paper §3.4): anything
  // derived from java.util.Vector is an ordered collection of indefinite
  // size. The same convention covers ArrayList/LinkedList-style bases.
  for (const auto& base : decl->bases) {
    if (ends_with(base, "Vector") || ends_with(base, "ArrayList") ||
        ends_with(base, "LinkedList") || ends_with(base, "AbstractList")) {
      return true;
    }
  }
  return false;
}

void LowerEngine::collect_fields(Stype* decl, std::vector<stype::Field*>& out,
                                 int depth) {
  if (depth > 16) return;  // cyclic inheritance guard
  for (const auto& base_name : decl->bases) {
    Stype* base = module_.find(base_name);
    if (base != nullptr && base->kind == Kind::Aggregate) {
      collect_fields(base, out, depth + 1);
    }
    // Unknown bases (library classes outside the loaded set) contribute no
    // structure; collections are handled by is_collection().
  }
  for (auto& f : decl->fields) {
    if (!f.is_static) out.push_back(&f);
  }
}

void LowerEngine::collect_methods(Stype* decl, std::vector<Stype*>& out,
                                  int depth) {
  if (depth > 16) return;
  for (const auto& base_name : decl->bases) {
    Stype* base = module_.find(base_name);
    if (base != nullptr && base->kind == Kind::Aggregate) {
      collect_methods(base, out, depth + 1);
    }
  }
  for (auto* m : decl->methods) out.push_back(m);
}

mtype::Ref LowerEngine::lower_aggregate_value(Stype* decl, const Annotations& eff) {
  if (decl->agg_kind == AggKind::Union) {
    std::vector<Ref> arms;
    std::vector<std::string> labels;
    for (auto& f : decl->fields) {
      arms.push_back(lower_type(f.type, {}));
      labels.push_back(f.name);
    }
    return graph_.choice(std::move(arms), std::move(labels), decl->name);
  }
  if (is_collection(decl, eff)) return lower_collection(decl, eff);

  std::vector<stype::Field*> fields;
  collect_fields(decl, fields);

  // Fields named by a sibling field's length annotation are absorbed into
  // the list they measure (same rule as for parameters, §3.4).
  const std::vector<bool> absorbed = stype::absorbed_fields(module_, fields);

  std::vector<Ref> children;
  std::vector<std::string> labels;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (absorbed[i]) continue;
    children.push_back(lower_type(fields[i]->type, {}));
    labels.push_back(fields[i]->name);
  }
  return graph_.record(std::move(children), std::move(labels), decl->name);
}

mtype::Ref LowerEngine::lower_collection(Stype* decl, const Annotations& eff) {
  if (!eff.element_type) {
    diags_.error(decl->loc,
                 "collection '" + decl->name +
                     "' needs an element-type annotation (it inherits from a "
                     "library container whose element type is unknown)");
    return graph_.list_of(graph_.unit(), decl->name);
  }
  // The element is a reference to the named type; element_not_null states
  // it can never be null (the PointVector annotation of paper §3.4).
  Stype* elem_use = nullptr;
  {
    // Synthesized use node: a reference to the element type. Created in a
    // scratch module would dangle; instead we look the element up directly.
    Stype* elem_decl = module_.find(*eff.element_type);
    if (elem_decl == nullptr) {
      diags_.error(decl->loc, "collection '" + decl->name +
                                  "': unknown element type '" +
                                  *eff.element_type + "'");
      return graph_.list_of(graph_.unit(), decl->name);
    }
    elem_use = elem_decl;
  }
  bool elem_not_null = eff.element_not_null.value_or(false);

  Ref elem_ref;
  if (elem_use->kind == Kind::Aggregate || elem_use->kind == Kind::Enum) {
    if (elem_not_null) {
      elem_ref = lower_type(elem_use, {});
    } else {
      elem_ref = graph_.choice({graph_.unit(), lower_type(elem_use, {})},
                               {"null", "ref"});
    }
  } else {
    elem_ref = lower_type(elem_use, {});
  }
  return graph_.list_of(elem_ref, decl->name);
}

mtype::Ref LowerEngine::lower_object_port(Stype* decl) {
  std::vector<Stype*> methods;
  collect_methods(decl, methods);
  if (methods.empty()) {
    diags_.warning(decl->loc, "interface '" + decl->name +
                                  "' has no methods; lowering to port(unit)");
    return graph_.port(graph_.unit(), decl->name);
  }
  std::vector<Ref> arms;
  std::vector<std::string> labels;
  for (auto* m : methods) {
    arms.push_back(lower_method_invocation(m));
    labels.push_back(m->name);
  }
  if (arms.size() == 1) return graph_.port(arms[0], decl->name);
  return graph_.port(graph_.choice(std::move(arms), std::move(labels)),
                     decl->name);
}

std::pair<mtype::Ref, mtype::Ref> LowerEngine::lower_signature(Stype* fn) {
  // Parameters named by another parameter's length annotation are absorbed
  // into the list they measure (§3.4: fitter's `count`).
  std::vector<bool> absorbed(fn->params.size(), false);
  for (auto& p : fn->params) {
    Annotations acc;
    Stype* decl = p.type;
    if (decl->kind == Kind::Named || decl->kind == Kind::Typedef) {
      decl = module_.resolve(decl, &acc);
    }
    acc.fill_from(p.type->ann);
    if (acc.length && acc.length->kind == LengthSpec::Kind::ParamName) {
      for (size_t i = 0; i < fn->params.size(); ++i) {
        if (fn->params[i].name == acc.length->name) absorbed[i] = true;
      }
    }
  }

  std::vector<Ref> in_children, out_children;
  std::vector<std::string> in_labels, out_labels;

  if (fn->ret != nullptr) {
    Ref r = lower_type(fn->ret, {});
    if (graph_.at(r).kind != mtype::MKind::Unit) {
      out_children.push_back(r);
      out_labels.push_back("return");
    }
  }

  for (size_t i = 0; i < fn->params.size(); ++i) {
    if (absorbed[i]) continue;
    auto& p = fn->params[i];
    Direction dir = p.type->ann.direction.value_or(Direction::In);

    if (dir == Direction::In || dir == Direction::InOut) {
      in_children.push_back(lower_type(p.type, {}));
      in_labels.push_back(p.name);
    }
    if (dir == Direction::Out || dir == Direction::InOut) {
      // Out parameters passed via pointer/reference (the C convention of
      // paper Fig. 2): the pointer is the passing mechanism, the output
      // value is the pointee.
      Stype* out_type = p.type;
      Annotations acc;
      Stype* resolved = out_type;
      if (resolved->kind == Kind::Named || resolved->kind == Kind::Typedef) {
        resolved = module_.resolve(resolved, &acc);
      }
      if (resolved != nullptr && (resolved->kind == Kind::Pointer ||
                                  resolved->kind == Kind::Reference)) {
        out_children.push_back(lower_type(resolved->elem, {}));
      } else {
        out_children.push_back(lower_type(out_type, {}));
      }
      out_labels.push_back(p.name);
    }
  }

  Ref in_rec = graph_.record(std::move(in_children), std::move(in_labels),
                             fn->name.empty() ? "" : fn->name + "$in");
  Ref out_rec = graph_.record(std::move(out_children), std::move(out_labels),
                              fn->name.empty() ? "" : fn->name + "$out");

  // Declared exceptions (paper §6 lists their support as in-progress; here
  // they are complete): the reply becomes a Choice of the normal output
  // record and one arm per exception, carried by value.
  if (!fn->throws_list.empty()) {
    std::vector<Ref> arms{out_rec};
    std::vector<std::string> labels{"normal"};
    for (const auto& exc_name : fn->throws_list) {
      Stype* exc = module_.find(exc_name);
      if (exc == nullptr) {
        // Library exceptions outside the loaded set (java.lang.Exception
        // et al.) carry no declared structure.
        arms.push_back(graph_.record({}, {}, exc_name));
      } else {
        arms.push_back(lower_type(exc, {}));
      }
      labels.push_back(exc_name);
    }
    out_rec = graph_.choice(std::move(arms), std::move(labels),
                            fn->name.empty() ? "" : fn->name + "$reply");
  }
  return {in_rec, out_rec};
}

mtype::Ref LowerEngine::lower_method_invocation(Stype* fn) {
  auto [in_rec, out_rec] = lower_signature(fn);
  return graph_.record({in_rec, graph_.port(out_rec)}, {"args", "reply"},
                       fn->name);
}

mtype::Ref LowerEngine::lower_function(Stype* fn) {
  return graph_.port(lower_method_invocation(fn), fn->name);
}

mtype::Ref LowerEngine::lower_array(Stype* node, Annotations eff) {
  uint64_t static_size = 0;
  bool has_static = false;
  if (node->kind == Kind::Array && node->array_size) {
    has_static = true;
    static_size = *node->array_size;
  }
  if (eff.length && eff.length->kind == LengthSpec::Kind::Static) {
    has_static = true;
    static_size = eff.length->static_size;
  }

  Ref elem = lower_type(node->elem, {});
  if (has_static) {
    std::vector<Ref> children(static_size, elem);
    return graph_.record(std::move(children), {}, node->name);
  }
  return graph_.list_of(elem, node->name);
}

mtype::Ref LowerEngine::lower_pointer_like(Stype* node, Annotations eff) {
  bool not_null = eff.not_null.value_or(false);

  // A pointer annotated with a length is an array in disguise (§3.2:
  // "Arrays are sometimes implicit in C and C++").
  if (eff.length) {
    if (eff.length->kind == LengthSpec::Kind::Static) {
      Ref elem = lower_type(node->elem, {});
      std::vector<Ref> children(eff.length->static_size, elem);
      return graph_.record(std::move(children), {}, node->name);
    }
    Ref elem = lower_type(node->elem, {});
    // A NULL pointer and a zero-length array both map to the list's nil
    // arm, so nullability needs no extra Choice here.
    return graph_.list_of(elem, node->name);
  }

  // Resolve the referent to see whether it is recursive data, an object
  // port, or a plain value.
  Annotations racc;
  Stype* referent = node->elem;
  Stype* decl = referent;
  if (decl != nullptr && (decl->kind == Kind::Named || decl->kind == Kind::Typedef)) {
    decl = module_.resolve(decl, &racc);
    if (decl == nullptr) {
      diags_.error(node->loc, "unknown type '" + referent->name + "'");
      return graph_.unit();
    }
  }
  // Use-site annotations on the pointer that describe the referent.
  if (eff.element_type) racc.element_type = eff.element_type;
  if (eff.element_not_null) racc.element_not_null = eff.element_not_null;
  if (eff.ordered_collection) racc.ordered_collection = eff.ordered_collection;
  if (eff.by_value) racc.by_value = eff.by_value;
  racc.fill_from(decl->ann);

  if (decl->kind == Kind::Aggregate) {
    // Object passed by reference: a port accepting its method invocations
    // (§3.3). Interfaces always; classes when annotated by_value=false.
    bool as_port = decl->agg_kind == AggKind::Interface ||
                   (racc.by_value && !*racc.by_value);
    if (as_port) {
      Ref port = lower_object_port(decl);
      if (not_null) return port;
      return graph_.choice({graph_.unit(), port}, {"null", "ref"});
    }

    // Recursive value data: tie the knot at the reference. Finished
    // lowerings are cached per (declaration, nullability) — highly
    // inter-related class graphs (the VisualAge workload, §5) would
    // otherwise blow up exponentially as shared classes get re-inlined.
    // Uses carrying extra structural annotations are not cacheable.
    Annotations use_only = racc;
    use_only.not_null.reset();
    bool cacheable = use_only.empty();

    auto key = std::make_pair(const_cast<const Stype*>(decl), not_null);
    if (cacheable) {
      auto cached = ref_cache_.find(key);
      if (cached != ref_cache_.end()) return cached->second;
    }
    auto it = active_.find(key);
    if (it != active_.end()) {
      if (it->second.rec == mtype::kNullRef) {
        it->second.rec = graph_.rec_placeholder(decl->name);
      }
      return graph_.var(it->second.rec);
    }
    active_[key] = InProgress{};
    Ref inner = lower_aggregate_value(decl, racc);
    Ref body = not_null
                   ? inner
                   : graph_.choice({graph_.unit(), inner}, {"null", "ref"});
    InProgress info = active_[key];
    active_.erase(key);
    Ref result = body;
    if (info.rec != mtype::kNullRef) {
      graph_.seal_rec(info.rec, body);
      result = info.rec;
    }
    if (cacheable) ref_cache_[key] = result;
    return result;
  }

  if (decl->kind == Kind::Function) {
    Ref port = lower_function(decl);
    if (not_null) return port;
    return graph_.choice({graph_.unit(), port}, {"null", "ref"});
  }

  // Plain value referent (prim, enum, array, sequence, nested pointer).
  Ref inner = lower_type(referent, racc);
  if (not_null) return inner;
  return graph_.choice({graph_.unit(), inner}, {"null", "ref"});
}

mtype::Ref LowerEngine::lower_type(Stype* node, Annotations inherited) {
  if (node == nullptr) return graph_.unit();
  switch (node->kind) {
    case Kind::Named:
    case Kind::Typedef: {
      Annotations acc = inherited;
      Stype* decl = module_.resolve(node, &acc);
      if (decl == nullptr) {
        diags_.error(node->loc, "unknown type '" + node->name + "'");
        return graph_.unit();
      }
      return lower_type(decl, acc);
    }
    case Kind::Prim: {
      Annotations eff = inherited;
      eff.fill_from(node->ann);
      return lower_prim(node->prim, eff, node->name);
    }
    case Kind::Enum: {
      // Convention (§3.1): enumeration with n elements -> Integer[0..n-1].
      Annotations eff = inherited;
      eff.fill_from(node->ann);
      Int128 n = static_cast<Int128>(node->enumerators.size());
      Int128 lo = eff.range_lo.value_or(Int128{0});
      Int128 hi = eff.range_hi.value_or(n > 0 ? n - 1 : Int128{0});
      return graph_.integer(lo, hi, node->name);
    }
    case Kind::Pointer:
    case Kind::Reference: {
      Annotations eff = inherited;
      eff.fill_from(node->ann);
      return lower_pointer_like(node, eff);
    }
    case Kind::Array:
    case Kind::Sequence: {
      Annotations eff = inherited;
      eff.fill_from(node->ann);
      return lower_array(node, eff);
    }
    case Kind::Aggregate: {
      Annotations eff = inherited;
      eff.fill_from(node->ann);
      if (node->agg_kind == AggKind::Interface) return lower_object_port(node);
      return lower_aggregate_value(node, eff);
    }
    case Kind::Function: return lower_function(node);
  }
  return graph_.unit();
}

mtype::Ref LowerEngine::lower_use(Stype* node) { return lower_type(node, {}); }

mtype::Ref LowerEngine::lower_decl(const std::string& name) {
  // "Class.method" paths lower the method as a function reference.
  auto dot = name.find('.');
  if (dot != std::string::npos) {
    Stype* cls = module_.find(name.substr(0, dot));
    if (cls != nullptr && cls->kind == Kind::Aggregate) {
      if (Stype* m = cls->find_method(name.substr(dot + 1))) {
        return lower_function(m);
      }
    }
    diags_.error({}, "unknown declaration '" + name + "'");
    return mtype::kNullRef;
  }
  Stype* decl = module_.find(name);
  if (decl == nullptr) {
    diags_.error({}, "unknown declaration '" + name + "'");
    return mtype::kNullRef;
  }
  return lower_type(decl, {});
}

mtype::Ref lower_decl(const stype::Module& module, mtype::Graph& graph,
                      const std::string& name, DiagnosticEngine& diags) {
  LowerEngine engine(module, graph, diags);
  return engine.lower_decl(name);
}

}  // namespace mbird::lower
