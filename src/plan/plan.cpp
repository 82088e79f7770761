#include "plan/plan.hpp"

#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace mbird::plan {

const char* to_string(PKind k) {
  switch (k) {
    case PKind::UnitMake: return "unit";
    case PKind::IntCopy: return "int";
    case PKind::RealCopy: return "real";
    case PKind::CharCopy: return "char";
    case PKind::RecordMap: return "record";
    case PKind::ChoiceMap: return "choice";
    case PKind::ListMap: return "list";
    case PKind::PortMap: return "port";
    case PKind::Alias: return "alias";
    case PKind::Extract: return "extract";
    case PKind::Custom: return "custom";
  }
  return "?";
}

namespace {

void print_node(const PlanGraph& g, PlanRef r, int depth,
                std::unordered_set<PlanRef>& seen, std::ostringstream& os) {
  std::string pad(static_cast<size_t>(depth) * 2, ' ');
  if (r == kNullPlan) {
    os << pad << "<null>\n";
    return;
  }
  const PlanNode& n = g.at(r);
  os << pad << '#';
  if (is_shared(r)) os << 's' << shared_index(r);
  else os << r;
  os << ' ' << to_string(n.kind);
  if (!n.note.empty()) os << " (" << n.note << ')';
  if (seen.count(r)) {
    os << " ^cycle\n";
    return;
  }
  seen.insert(r);
  switch (n.kind) {
    case PKind::IntCopy:
      os << " [" << mbird::to_string(n.lo) << ".." << mbird::to_string(n.hi)
         << "]\n";
      break;
    case PKind::RecordMap: {
      os << '\n';
      for (const auto& f : n.fields) {
        os << pad << "  " << mtype::path_to_string(f.src_path) << " -> "
           << mtype::path_to_string(f.dst_path) << ":\n";
        print_node(g, f.op, depth + 2, seen, os);
      }
      break;
    }
    case PKind::ChoiceMap: {
      os << '\n';
      for (const auto& a : n.arms) {
        os << pad << "  arm " << mtype::path_to_string(a.src_path) << " -> "
           << mtype::path_to_string(a.dst_path) << ":\n";
        print_node(g, a.op, depth + 2, seen, os);
      }
      break;
    }
    case PKind::ListMap:
    case PKind::PortMap:
    case PKind::Alias:
      os << '\n';
      print_node(g, n.inner, depth + 1, seen, os);
      break;
    case PKind::Extract:
      os << ' ' << mtype::path_to_string(n.fields[0].src_path) << '\n';
      print_node(g, n.fields[0].op, depth + 1, seen, os);
      break;
    default: os << '\n'; break;
  }
  seen.erase(r);
}

void count_shape_leaves(const RecShape& s, std::set<uint32_t>& leaves) {
  if (s.kind == RecShape::Kind::Leaf) {
    leaves.insert(s.leaf_index);
    return;
  }
  for (const auto& k : s.kids) count_shape_leaves(k, leaves);
}

}  // namespace

PlanArena::~PlanArena() {
  const auto n = static_cast<uint32_t>(size());
  for (uint32_t i = 0; i < n; ++i) locate(i)->~Slot();
  for (auto& c : chunks_) ::operator delete(c.load(std::memory_order_relaxed));
}

uint32_t PlanArena::reserve(uint32_t n) {
  // Refs carry the index below kSharedBit, and the top of that range is
  // left free for PlanGraph::publish's in-walk marker.
  constexpr size_t kMaxSlots = kSharedBit - 2;
  size_t base;
  {
    std::lock_guard lock(mu_);
    base = size_.load(std::memory_order_relaxed);
    if (base + n > kMaxSlots) throw std::length_error("plan arena full");
    if (n == 0) return static_cast<uint32_t>(base);
    // Chunks fill in order, so every chunk below the last one needed is
    // already there once one is found allocated.
    for (unsigned k = chunk_of(static_cast<uint32_t>(base + n - 1));
         chunks_[k].load(std::memory_order_relaxed) == nullptr; --k) {
      chunks_[k].store(
          static_cast<Slot*>(::operator new(sizeof(Slot) * chunk_len(k))),
          std::memory_order_release);
      if (k == 0) break;
    }
    size_.store(base + n, std::memory_order_release);
  }
  for (size_t i = base; i < base + n; ++i) {
    new (locate(static_cast<uint32_t>(i))) Slot();
  }
  return static_cast<uint32_t>(base);
}

PlanNode& PlanGraph::at_mut(PlanRef r) {
  if (is_shared(r)) {
    throw std::logic_error("plan node #s" + std::to_string(shared_index(r)) +
                           " is shared and cannot be edited in place");
  }
  return nodes_[r];
}

PlanGraph::Published PlanGraph::publish(PlanRef root, const ProofKey& proves) {
  Published out;
  if (shared_ == nullptr || root == kNullPlan) return out;
  if (is_shared(forward(root))) {
    out.root = forward(root);
    out.has_port = shared_->slot(shared_index(out.root)).reaches_port;
    return out;
  }
  // Pass 1: the local closure, in discovery order (root first). moved_
  // doubles as the visited mark; a refusal clears what it marked.
  constexpr PlanRef kInWalk = kNullPlan - 1;
  moved_.resize(nodes_.size(), kNullPlan);
  thread_local std::vector<PlanRef> order;
  order.clear();
  bool complete = true;
  auto visit = [&](PlanRef c) {
    if (c == kNullPlan || (!is_shared(c) && c >= nodes_.size())) {
      complete = false;
    } else if (!is_shared(c) && moved_[c] == kNullPlan) {
      moved_[c] = kInWalk;
      order.push_back(c);
    }
  };
  visit(root);
  for (size_t i = 0; i < order.size() && complete; ++i) {
    for_each_child(nodes_[order[i]], visit);
  }
  if (!complete) {
    for (PlanRef r : order) moved_[r] = kNullPlan;
    return out;
  }

  // Pass 2: one reservation, then move and rebase. Back-edges inside the
  // closure resolve because every moved node's arena ref is known first.
  const auto n = static_cast<uint32_t>(order.size());
  uint32_t base = 0;
  try {
    base = shared_->reserve(n);
  } catch (...) {
    for (PlanRef r : order) moved_[r] = kNullPlan;
    throw;
  }
  for (uint32_t i = 0; i < n; ++i) moved_[order[i]] = shared_ref(base + i);
  for (uint32_t i = 0; i < n; ++i) {
    PlanArena::Slot& s = shared_->slot_mut(base + i);
    s.node = std::move(nodes_[order[i]]);
    s.reaches_port = s.node.kind == PKind::PortMap;
    for_each_child(s.node, [&](PlanRef& c) {
      c = forward(c);
      if (shared_index(c) < base) {
        s.reaches_port |= shared_->slot(shared_index(c)).reaches_port;
      }
    });
    PlanNode husk;
    husk.kind = PKind::Alias;
    husk.inner = moved_[order[i]];
    nodes_[order[i]] = std::move(husk);
  }
  // Port reachability inside the new range (it may contain cycles).
  for (bool changed = true; changed;) {
    changed = false;
    for (uint32_t i = 0; i < n; ++i) {
      PlanArena::Slot& s = shared_->slot_mut(base + i);
      if (s.reaches_port) continue;
      for_each_child(s.node, [&](PlanRef c) {
        if (shared_index(c) >= base && shared_->slot(shared_index(c)).reaches_port) {
          s.reaches_port = changed = true;
        }
      });
    }
  }
  shared_->slot_mut(base).proves = proves;
  out.root = shared_ref(base);
  out.has_port = shared_->slot(base).reaches_port;
  out.minted = n;
  return out;
}

PlanRef make_custom(PlanGraph& g, const std::string& converter_name) {
  PlanNode n;
  n.kind = PKind::Custom;
  n.note = converter_name;
  return g.add(std::move(n));
}

bool replace_field_op(PlanGraph& g, PlanRef record_node, const mtype::Path& dst,
                      PlanRef replacement) {
  if (!g.contains(record_node) || is_shared(record_node)) return false;
  PlanNode& n = g.at_mut(record_node);
  if (n.kind != PKind::RecordMap) return false;
  for (auto& f : n.fields) {
    if (f.dst_path == dst) {
      f.op = replacement;
      return true;
    }
  }
  return false;
}

std::string print(const PlanGraph& g, PlanRef root) {
  std::ostringstream os;
  std::unordered_set<PlanRef> seen;
  print_node(g, root, 0, seen, os);
  return os.str();
}

std::vector<std::string> validate(const PlanGraph& g, PlanRef root) {
  std::vector<std::string> problems;
  if (root == kNullPlan) {
    problems.push_back("null root plan");
    return problems;
  }
  std::unordered_set<PlanRef> visited;
  std::vector<PlanRef> work{root};
  auto check_ref = [&](PlanRef r, const std::string& what) {
    if (!g.contains(r)) {
      problems.push_back(what + ": bad plan ref");
      return false;
    }
    if (!visited.count(r)) work.push_back(r);
    return true;
  };

  while (!work.empty()) {
    PlanRef r = work.back();
    work.pop_back();
    if (!g.contains(r) || visited.count(r)) continue;
    visited.insert(r);
    const PlanNode& n = g.at(r);
    std::string where = "#" + std::to_string(r);
    switch (n.kind) {
      case PKind::RecordMap: {
        std::set<uint32_t> leaves;
        count_shape_leaves(n.dst_shape, leaves);
        for (uint32_t i = 0; i < n.fields.size(); ++i) {
          if (!leaves.count(i)) {
            problems.push_back(where + ": field " + std::to_string(i) +
                               " not reachable from dst shape");
          }
          check_ref(n.fields[i].op, where + " field op");
        }
        for (uint32_t leaf : leaves) {
          if (leaf >= n.fields.size()) {
            problems.push_back(where + ": shape leaf " + std::to_string(leaf) +
                               " out of range");
          }
        }
        break;
      }
      case PKind::ChoiceMap: {
        std::set<mtype::Path> srcs;
        for (const auto& a : n.arms) {
          if (!srcs.insert(a.src_path).second) {
            problems.push_back(where + ": duplicate source arm " +
                               mtype::path_to_string(a.src_path));
          }
          check_ref(a.op, where + " arm op");
        }
        if (n.arms.empty()) problems.push_back(where + ": choice with no arms");
        break;
      }
      case PKind::ListMap:
      case PKind::PortMap:
      case PKind::Alias: check_ref(n.inner, where + " inner"); break;
      case PKind::Extract:
        if (n.fields.size() != 1) {
          problems.push_back(where + ": extract needs exactly one field");
        } else {
          check_ref(n.fields[0].op, where + " extract op");
        }
        break;
      case PKind::IntCopy:
        if (n.lo > n.hi) problems.push_back(where + ": empty int range");
        break;
      case PKind::Custom:
        if (n.note.empty()) {
          problems.push_back(where + ": custom conversion without a name");
        }
        break;
      default: break;
    }
  }
  return problems;
}

}  // namespace mbird::plan
