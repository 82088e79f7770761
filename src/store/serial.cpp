#include "store/serial.hpp"

#include <bit>
#include <cstring>

namespace mbird::store {

namespace {

// Slicing-by-8 tables: kCrc.t[0] is the classic byte-at-a-time table for
// the reflected polynomial 0xEDB88320, and t[k][b] is t[0][b] carried
// through k further zero bytes, so one step folds eight input bytes with
// eight independent lookups instead of a chain of eight dependent ones.
struct CrcTables {
  uint32_t t[8][256];
};

constexpr CrcTables make_crc_tables() {
  CrcTables tb{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tb.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      uint32_t prev = tb.t[k - 1][i];
      tb.t[k][i] = (prev >> 8) ^ tb.t[0][prev & 0xffu];
    }
  }
  return tb;
}

constexpr CrcTables kCrc = make_crc_tables();

uint32_t load_le32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

uint32_t crc32(const void* data, size_t n, uint32_t seed) {
  const auto& t = kCrc.t;
  uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = load_le32(p) ^ c;
    uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

// ---- plan fragments ---------------------------------------------------------

namespace {

void encode_shape(ByteWriter& w, const plan::RecShape& s) {
  w.u8(static_cast<uint8_t>(s.kind));
  w.u32(s.leaf_index);
  w.u32(static_cast<uint32_t>(s.kids.size()));
  for (const auto& k : s.kids) encode_shape(w, k);
}

bool decode_shape(ByteReader& r, plan::RecShape* out, int depth) {
  if (depth > 64) return false;  // nesting bound doubles as corruption guard
  uint8_t kind = r.u8();
  if (kind > static_cast<uint8_t>(plan::RecShape::Kind::Unit)) return false;
  out->kind = static_cast<plan::RecShape::Kind>(kind);
  out->leaf_index = r.u32();
  uint32_t n = r.len_capped(r.u32(), 9);
  out->kids.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!r.ok() || !decode_shape(r, &out->kids[i], depth + 1)) return false;
  }
  return r.ok();
}

void encode_move(ByteWriter& w, const mtype::Path& src, const mtype::Path& dst,
                 plan::PlanRef op) {
  w.vec_u32(src);
  w.vec_u32(dst);
  w.u32(op);
}

}  // namespace

void encode_plan_node(ByteWriter& w, const plan::PlanNode& n,
                      const std::function<uint32_t(plan::PlanRef)>& local) {
  // PortMap carries graph refs; callers must filter port-bearing
  // fragments out before encoding. Encode the kind anyway — the decoder
  // rejects it, so a slipped-through port entry degrades to a miss.
  auto ref = [&](plan::PlanRef r) {
    return r == plan::kNullPlan ? r : local(r);
  };
  w.u8(static_cast<uint8_t>(n.kind));
  w.i128(n.lo);
  w.i128(n.hi);
  w.u32(static_cast<uint32_t>(n.fields.size()));
  for (const auto& f : n.fields) {
    encode_move(w, f.src_path, f.dst_path, ref(f.op));
  }
  encode_shape(w, n.dst_shape);
  w.u32(static_cast<uint32_t>(n.arms.size()));
  for (const auto& a : n.arms) encode_move(w, a.src_path, a.dst_path, ref(a.op));
  w.u32(ref(n.inner));
  w.str(n.note);
}

bool decode_plan_nodes(ByteReader& r, std::vector<plan::PlanNode>* out) {
  uint32_t n = r.len_capped(r.u32(), 43);
  out->clear();
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    plan::PlanNode& node = (*out)[i];
    uint8_t kind = r.u8();
    if (kind > static_cast<uint8_t>(plan::PKind::Custom) ||
        kind == static_cast<uint8_t>(plan::PKind::PortMap)) {
      return false;
    }
    node.kind = static_cast<plan::PKind>(kind);
    node.lo = r.i128();
    node.hi = r.i128();
    uint32_t nf = r.len_capped(r.u32(), 12);
    node.fields.resize(nf);
    for (auto& f : node.fields) {
      f.src_path = r.vec_u32();
      f.dst_path = r.vec_u32();
      f.op = r.u32();
    }
    if (!decode_shape(r, &node.dst_shape, 0)) return false;
    uint32_t na = r.len_capped(r.u32(), 12);
    node.arms.resize(na);
    for (auto& a : node.arms) {
      a.src_path = r.vec_u32();
      a.dst_path = r.vec_u32();
      a.op = r.u32();
    }
    node.inner = r.u32();
    node.note = r.str();
    if (!r.ok()) return false;
  }
  return r.ok();
}

// ---- convert-mode programs --------------------------------------------------

bool encode_program(ByteWriter& w, const planir::Program& p) {
  if (p.mode != planir::Program::Mode::Convert) return false;
  w.u8(static_cast<uint8_t>(p.mode));
  w.u32(p.entry);
  w.u32(static_cast<uint32_t>(p.code.size()));
  for (const auto& ins : p.code) {
    w.u8(static_cast<uint8_t>(ins.op));
    w.u32(ins.a);
    w.u32(ins.b);
    w.i128(ins.lo);
    w.i128(ins.hi);
  }
  w.vec_u32(p.path_pool);
  w.u32(static_cast<uint32_t>(p.fields.size()));
  for (const auto& f : p.fields) {
    w.u32(f.src_off);
    w.u32(f.src_len);
    w.u32(f.dst_off);
    w.u32(f.dst_len);
    w.u32(f.op);
  }
  w.u32(static_cast<uint32_t>(p.shape_pool.size()));
  for (const auto& t : p.shape_pool) {
    w.u8(static_cast<uint8_t>(t.kind));
    w.u32(t.arg);
  }
  w.u32(static_cast<uint32_t>(p.records.size()));
  for (const auto& rec : p.records) {
    w.u32(rec.fields_off);
    w.u32(rec.fields_len);
    w.u32(rec.shape_off);
    w.u32(rec.shape_len);
  }
  w.u32(static_cast<uint32_t>(p.arms.size()));
  for (const auto& a : p.arms) {
    w.u32(a.src_off);
    w.u32(a.src_len);
    w.u32(a.dst_off);
    w.u32(a.dst_len);
    w.u32(a.op);
    w.u32(a.prefix_off);
    w.u32(a.prefix_len);
  }
  w.u32(static_cast<uint32_t>(p.choices.size()));
  for (const auto& c : p.choices) {
    w.u32(c.arms_off);
    w.u32(c.arms_len);
    w.u32(c.trie_root);
  }
  w.u32(static_cast<uint32_t>(p.trie.size()));
  for (const auto& t : p.trie) {
    w.i32(t.terminal);
    w.u32(t.kids_off);
    w.u32(t.kids_len);
  }
  w.u32(static_cast<uint32_t>(p.trie_kids.size()));
  for (int32_t k : p.trie_kids) w.i32(k);
  w.u32(static_cast<uint32_t>(p.custom_names.size()));
  for (const auto& s : p.custom_names) w.str(s);
  w.u32(static_cast<uint32_t>(p.byte_pool.size()));
  w.bytes(p.byte_pool.data(), p.byte_pool.size());
  w.vec_u32(p.origin);
  return true;
}

bool decode_program(ByteReader& r, planir::Program* out) {
  *out = planir::Program{};
  uint8_t mode = r.u8();
  if (mode != static_cast<uint8_t>(planir::Program::Mode::Convert)) return false;
  out->mode = planir::Program::Mode::Convert;
  out->entry = r.u32();
  uint32_t nc = r.len_capped(r.u32(), 41);
  out->code.resize(nc);
  for (auto& ins : out->code) {
    uint8_t op = r.u8();
    if (op > static_cast<uint8_t>(planir::OpCode::LoadOpaque)) return false;
    ins.op = static_cast<planir::OpCode>(op);
    ins.a = r.u32();
    ins.b = r.u32();
    ins.lo = r.i128();
    ins.hi = r.i128();
  }
  out->path_pool = r.vec_u32();
  uint32_t nf = r.len_capped(r.u32(), 20);
  out->fields.resize(nf);
  for (auto& f : out->fields) {
    f.src_off = r.u32();
    f.src_len = r.u32();
    f.dst_off = r.u32();
    f.dst_len = r.u32();
    f.op = r.u32();
  }
  uint32_t ns = r.len_capped(r.u32(), 5);
  out->shape_pool.resize(ns);
  for (auto& t : out->shape_pool) {
    uint8_t kind = r.u8();
    if (kind > static_cast<uint8_t>(planir::Program::ShapeTok::K::Rec)) {
      return false;
    }
    t.kind = static_cast<planir::Program::ShapeTok::K>(kind);
    t.arg = r.u32();
  }
  uint32_t nr = r.len_capped(r.u32(), 16);
  out->records.resize(nr);
  for (auto& rec : out->records) {
    rec.fields_off = r.u32();
    rec.fields_len = r.u32();
    rec.shape_off = r.u32();
    rec.shape_len = r.u32();
  }
  uint32_t na = r.len_capped(r.u32(), 28);
  out->arms.resize(na);
  for (auto& a : out->arms) {
    a.src_off = r.u32();
    a.src_len = r.u32();
    a.dst_off = r.u32();
    a.dst_len = r.u32();
    a.op = r.u32();
    a.prefix_off = r.u32();
    a.prefix_len = r.u32();
  }
  uint32_t nch = r.len_capped(r.u32(), 12);
  out->choices.resize(nch);
  for (auto& c : out->choices) {
    c.arms_off = r.u32();
    c.arms_len = r.u32();
    c.trie_root = r.u32();
  }
  uint32_t nt = r.len_capped(r.u32(), 12);
  out->trie.resize(nt);
  for (auto& t : out->trie) {
    t.terminal = r.i32();
    t.kids_off = r.u32();
    t.kids_len = r.u32();
  }
  uint32_t nk = r.len_capped(r.u32(), 4);
  out->trie_kids.resize(nk);
  for (auto& k : out->trie_kids) k = r.i32();
  uint32_t nn = r.len_capped(r.u32(), 4);
  out->custom_names.resize(nn);
  for (auto& s : out->custom_names) s = r.str();
  uint32_t nb = r.len_capped(r.u32(), 1);
  out->byte_pool.resize(nb);
  for (auto& b : out->byte_pool) b = r.u8();
  out->origin = r.vec_u32();
  return r.ok();
}

}  // namespace mbird::store
