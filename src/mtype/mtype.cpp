#include "mtype/mtype.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace mbird::mtype {

const char* to_string(MKind k) {
  switch (k) {
    case MKind::Int: return "Integer";
    case MKind::Char: return "Character";
    case MKind::Real: return "Real";
    case MKind::Unit: return "Unit";
    case MKind::Record: return "Record";
    case MKind::Choice: return "Choice";
    case MKind::Rec: return "Rec";
    case MKind::Var: return "Var";
    case MKind::Port: return "Port";
  }
  return "?";
}

std::string path_to_string(const Path& p) {
  std::string out = "[";
  for (size_t i = 0; i < p.size(); ++i) {
    if (i) out += '.';
    out += std::to_string(p[i]);
  }
  out += ']';
  return out;
}

namespace {
uint64_t next_graph_uid() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Graph::Graph() : uid_(next_graph_uid()) {}

Graph::Graph(Graph&& other) noexcept { *this = std::move(other); }

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    nodes_ = std::move(other.nodes_);
    touched_ = std::move(other.touched_);
    version_ = other.version_;
    uid_ = other.uid_;
    other.nodes_.clear();
    other.touched_.clear();
    ++other.version_;
    other.uid_ = next_graph_uid();
  }
  return *this;
}

bool Graph::edited_below(size_t prefix, uint64_t since) const {
  const size_t n = std::min(prefix, touched_.size());
  return std::any_of(touched_.begin(), touched_.begin() + static_cast<ptrdiff_t>(n),
                     [since](uint64_t t) { return t > since; });
}

Ref Graph::add(Node n) {
  nodes_.push_back(std::move(n));
  touched_.push_back(++version_);
  return static_cast<Ref>(nodes_.size() - 1);
}

Ref Graph::integer(Int128 lo, Int128 hi, std::string name) {
  Node n;
  n.kind = MKind::Int;
  n.lo = lo;
  n.hi = hi;
  n.name = std::move(name);
  return add(std::move(n));
}

Ref Graph::character(Repertoire rep, std::string name) {
  Node n;
  n.kind = MKind::Char;
  n.repertoire = rep;
  n.name = std::move(name);
  return add(std::move(n));
}

Ref Graph::real(uint16_t mantissa_bits, uint16_t exponent_bits, std::string name) {
  Node n;
  n.kind = MKind::Real;
  n.mantissa_bits = mantissa_bits;
  n.exponent_bits = exponent_bits;
  n.name = std::move(name);
  return add(std::move(n));
}

Ref Graph::unit() {
  Node n;
  n.kind = MKind::Unit;
  return add(std::move(n));
}

Ref Graph::record(std::vector<Ref> children, std::vector<std::string> labels,
                  std::string name) {
  Node n;
  n.kind = MKind::Record;
  n.children = std::move(children);
  n.labels = std::move(labels);
  n.name = std::move(name);
  return add(std::move(n));
}

Ref Graph::choice(std::vector<Ref> children, std::vector<std::string> labels,
                  std::string name) {
  Node n;
  n.kind = MKind::Choice;
  n.children = std::move(children);
  n.labels = std::move(labels);
  n.name = std::move(name);
  return add(std::move(n));
}

Ref Graph::port(Ref message, std::string name) {
  Node n;
  n.kind = MKind::Port;
  n.children = {message};
  n.name = std::move(name);
  return add(std::move(n));
}

Ref Graph::rec_placeholder(std::string name) {
  Node n;
  n.kind = MKind::Rec;
  n.name = std::move(name);
  return add(std::move(n));
}

void Graph::seal_rec(Ref rec, Ref body) {
  touched_[rec] = ++version_;
  Node& n = nodes_[rec];
  n.children.assign(1, body);
}

Ref Graph::var(Ref rec_target) {
  Node n;
  n.kind = MKind::Var;
  n.var_target = rec_target;
  return add(std::move(n));
}

Ref Graph::list_of(Ref elem, std::string name) {
  Ref rec = rec_placeholder(std::move(name));
  Ref tail = var(rec);
  Ref cons = record({elem, tail}, {"head", "tail"});
  Ref body = choice({unit(), cons}, {"nil", "cons"});
  seal_rec(rec, body);
  return rec;
}

Ref Graph::int_bits(int bits, bool is_signed, std::string name) {
  if (is_signed) {
    return integer(-pow2(bits - 1), pow2(bits - 1) - 1, std::move(name));
  }
  return integer(0, pow2(bits) - 1, std::move(name));
}

Ref skip_var(const Graph& g, Ref r) {
  return g.at(r).kind == MKind::Var ? g.at(r).var_target : r;
}

Ref resolve(const Graph& g, Ref r) {
  // Bounded walk: each step strictly moves to another node; a degenerate
  // µX.X cycle is cut off by the step budget and we return the Rec.
  for (size_t guard = 0; guard <= g.size(); ++guard) {
    const Node& n = g.at(r);
    if (n.kind == MKind::Var) {
      r = n.var_target;
    } else if (n.kind == MKind::Rec) {
      if (n.body() == kNullRef || n.body() == r) return r;
      // Only skip the Rec if its body resolves without coming back to it —
      // callers that need unfolding semantics use the comparer's trail.
      return r;
    } else {
      return r;
    }
  }
  return r;
}

std::optional<std::vector<Ref>> match_list_shape(const Graph& g, Ref r) {
  r = skip_var(g, r);
  const Node& rec = g.at(r);
  if (rec.kind != MKind::Rec || rec.body() == kNullRef) return std::nullopt;
  const Node& body = g.at(rec.body());
  if (body.kind != MKind::Choice || body.children.size() != 2) return std::nullopt;

  auto is_unit = [&](Ref c) { return g.at(c).kind == MKind::Unit; };
  Ref nil = kNullRef, cons = kNullRef;
  if (is_unit(body.children[0])) {
    nil = body.children[0];
    cons = body.children[1];
  } else if (is_unit(body.children[1])) {
    nil = body.children[1];
    cons = body.children[0];
  } else {
    return std::nullopt;
  }
  (void)nil;

  const Node& cell = g.at(cons);
  if (cell.kind != MKind::Record || cell.children.size() < 2) return std::nullopt;
  Ref last = cell.children.back();
  const Node& tail = g.at(last);
  if (tail.kind != MKind::Var || tail.var_target != r) return std::nullopt;
  std::vector<Ref> elems(cell.children.begin(), cell.children.end() - 1);
  return elems;
}

namespace {

void flatten_into(const Graph& g, Ref node, MKind agg_kind, bool drop_units,
                  Path& prefix, std::vector<FlatChild>& out) {
  const Node& n = g.at(node);
  for (uint32_t i = 0; i < n.children.size(); ++i) {
    Ref child = n.children[i];
    prefix.push_back(i);
    const Node& c = g.at(child);
    if (c.kind == agg_kind) {
      flatten_into(g, child, agg_kind, drop_units, prefix, out);
    } else if (drop_units && agg_kind == MKind::Record && c.kind == MKind::Unit) {
      // unit-elimination: Record(tau, Unit) ~ Record(tau)
    } else {
      out.push_back({child, prefix});
    }
    prefix.pop_back();
  }
}

}  // namespace

std::vector<FlatChild> flatten_record(const Graph& g, Ref record, bool drop_units) {
  std::vector<FlatChild> out;
  Path prefix;
  flatten_into(g, record, MKind::Record, drop_units, prefix, out);
  return out;
}

std::vector<FlatChild> flatten_choice(const Graph& g, Ref choice) {
  std::vector<FlatChild> out;
  Path prefix;
  flatten_into(g, choice, MKind::Choice, false, prefix, out);
  return out;
}

namespace {

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t hash_int128(Int128 v) {
  return mix(static_cast<uint64_t>(static_cast<unsigned __int128>(v) >> 64),
             static_cast<uint64_t>(static_cast<unsigned __int128>(v)));
}

uint64_t local_seed(const Node& n) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  h = mix(h, static_cast<uint64_t>(n.kind));
  switch (n.kind) {
    case MKind::Int:
      h = mix(h, hash_int128(n.lo));
      h = mix(h, hash_int128(n.hi));
      break;
    case MKind::Char: h = mix(h, static_cast<uint64_t>(n.repertoire)); break;
    case MKind::Real:
      h = mix(h, n.mantissa_bits);
      h = mix(h, n.exponent_bits);
      break;
    default: break;
  }
  return h;
}

}  // namespace

std::vector<uint64_t> structure_hashes(const Graph& g, bool drop_units) {
  const size_t n = g.size();
  std::vector<uint64_t> h(n), next(n);
  for (size_t i = 0; i < n; ++i) h[i] = local_seed(g.at(static_cast<Ref>(i)));

  // Flattening contributions are computed WITHOUT materializing flattened
  // child lists: a nested Record's contribution to its parent is its own
  // (sum, xor, count) triple, recursively. This keeps hashing linear even
  // for DAG-shaped graphs whose flattened tree form is exponential (the
  // inter-related class workloads of paper §5).
  struct Contrib {
    uint64_t sum = 0, x = 0, count = 0;
  };
  std::vector<Contrib> contrib(n);
  std::vector<uint8_t> contrib_done(n);

  // Iterate a FIXED number of rounds (with early exit only at a true
  // fixpoint). The count must not depend on graph size: hashes from two
  // different graphs are compared against each other by the Comparer's
  // pruning, so equivalent structures must receive identical values.
  // Rec and Var are hash-transparent (a Rec hashes close to its unfolding,
  // a Var as its target) so that a direct Rec child on one side buckets
  // with a Var back-reference on the other.
  constexpr size_t kRounds = 32;
  for (size_t round = 0; round < kRounds; ++round) {
    std::fill(contrib_done.begin(), contrib_done.end(), 0);
    // Children have smaller... no topological guarantee; compute contribs
    // with an explicit memoized recursion (records never cycle without an
    // intervening Rec, which is a flattening boundary).
    std::function<Contrib(Ref, MKind)> contribution = [&](Ref r,
                                                          MKind agg) -> Contrib {
      const Node& node = g.at(r);
      if (node.kind == agg) {
        if (contrib_done[r]) return contrib[r];
        Contrib c;
        for (Ref ch : node.children) {
          const Node& cn = g.at(ch);
          if (cn.kind == agg) {
            Contrib inner = contribution(ch, agg);
            c.sum += inner.sum;
            c.x ^= inner.x;
            c.count += inner.count;
          } else if (agg == MKind::Record && drop_units &&
                     cn.kind == MKind::Unit) {
            // unit-elimination
          } else {
            uint64_t e = mix(0x100, h[ch]);
            c.sum += e;
            c.x ^= e * 0x9ddfea08eb382d69ULL;
            c.count += 1;
          }
        }
        contrib[r] = c;
        contrib_done[r] = 1;
        return c;
      }
      Contrib c;
      uint64_t e = mix(0x100, h[r]);
      c.sum = e;
      c.x = e * 0x9ddfea08eb382d69ULL;
      c.count = 1;
      return c;
    };

    for (size_t i = 0; i < n; ++i) {
      const Node& node = g.at(static_cast<Ref>(i));
      uint64_t v = local_seed(node);
      if (node.kind == MKind::Var) {
        next[i] = h[node.var_target];
        continue;
      }
      if (node.kind == MKind::Rec) {
        next[i] = node.body() == kNullRef ? v : h[node.body()];
        continue;
      }
      if (node.kind == MKind::Record || node.kind == MKind::Choice) {
        Contrib c = contribution(static_cast<Ref>(i), node.kind);
        v = mix(v, c.sum);
        v = mix(v, c.x);
        v = mix(v, c.count);
      } else {
        for (Ref c : node.children) v = mix(v, h[c]);
      }
      next[i] = v;
    }
    if (next == h) break;
    h = next;
  }
  return h;
}

namespace {

struct Printer {
  const Graph& g;
  std::unordered_map<Ref, int> rec_ids;
  std::unordered_set<Ref> in_progress;

  void print(Ref r, std::ostream& os) {
    const Node& n = g.at(r);
    switch (n.kind) {
      case MKind::Int:
        os << "Int[" << mbird::to_string(n.lo) << ".." << mbird::to_string(n.hi)
           << "]";
        break;
      case MKind::Char: os << "Char[" << stype::to_string(n.repertoire) << "]"; break;
      case MKind::Real:
        os << "Real[" << n.mantissa_bits << "m" << n.exponent_bits << "e]";
        break;
      case MKind::Unit: os << "unit"; break;
      case MKind::Record:
      case MKind::Choice: {
        os << (n.kind == MKind::Record ? "Record(" : "Choice(");
        for (size_t i = 0; i < n.children.size(); ++i) {
          if (i) os << ", ";
          if (i < n.labels.size() && !n.labels[i].empty()) os << n.labels[i] << ':';
          print(n.children[i], os);
        }
        os << ')';
        break;
      }
      case MKind::Port:
        os << "port(";
        print(n.body(), os);
        os << ')';
        break;
      case MKind::Rec: {
        auto it = rec_ids.find(r);
        if (it == rec_ids.end()) {
          int id = static_cast<int>(rec_ids.size());
          rec_ids.emplace(r, id);
          os << "rec X" << id << ". ";
          if (n.body() != kNullRef) {
            print(n.body(), os);
          } else {
            os << "<unsealed>";
          }
        } else {
          os << 'X' << it->second;
        }
        break;
      }
      case MKind::Var: {
        Ref target = n.var_target;
        auto it = rec_ids.find(target);
        if (it != rec_ids.end()) {
          os << 'X' << it->second;
        } else {
          print(target, os);
        }
        break;
      }
    }
  }
};

struct Diagrammer {
  const Graph& g;
  std::unordered_map<Ref, int> rec_ids;

  void draw(Ref r, const std::string& prefix, const std::string& label,
            bool last, std::ostream& os, bool root = true) {
    const Node& n = g.at(r);
    os << prefix;
    if (!root) os << (last ? "`-- " : "|-- ");
    if (!label.empty()) os << label << ": ";

    std::string child_prefix = prefix + (root ? "" : (last ? "    " : "|   "));
    switch (n.kind) {
      case MKind::Var: {
        auto it = rec_ids.find(n.var_target);
        os << "^X" << (it == rec_ids.end() ? -1 : it->second) << '\n';
        return;
      }
      case MKind::Rec: {
        int id;
        auto it = rec_ids.find(r);
        if (it == rec_ids.end()) {
          id = static_cast<int>(rec_ids.size());
          rec_ids.emplace(r, id);
          os << "Rec X" << id;
          if (!n.name.empty()) os << " (" << n.name << ')';
          os << '\n';
          if (n.body() != kNullRef) draw(n.body(), child_prefix, "", true, os, false);
        } else {
          os << "^X" << it->second << '\n';
        }
        return;
      }
      default: break;
    }

    Printer p{g, rec_ids, {}};
    if (n.children.empty()) {
      std::ostringstream leaf;
      p.print(r, leaf);
      os << leaf.str();
      if (!n.name.empty()) os << " (" << n.name << ')';
      os << '\n';
      return;
    }
    os << to_string(n.kind);
    if (!n.name.empty()) os << " (" << n.name << ')';
    os << '\n';
    for (size_t i = 0; i < n.children.size(); ++i) {
      std::string l = i < n.labels.size() ? n.labels[i] : "";
      draw(n.children[i], child_prefix, l, i + 1 == n.children.size(), os, false);
    }
  }
};

}  // namespace

std::string print(const Graph& g, Ref r) {
  std::ostringstream os;
  Printer p{g, {}, {}};
  p.print(r, os);
  return os.str();
}

std::string diagram(const Graph& g, Ref r) {
  std::ostringstream os;
  Diagrammer d{g, {}};
  d.draw(r, "", "", true, os);
  return os.str();
}

}  // namespace mbird::mtype
