// Byte-level serialization primitives for the durable cache store.
//
// ByteWriter/ByteReader are little-endian, bounds-checked codecs. Every
// reader operation is total: out-of-bounds reads return zero values and
// latch ok() = false, and element counts are capped by the bytes actually
// remaining, so a corrupted payload can never drive allocation or indexing
// off a cliff — decode either yields a structurally complete value or
// reports failure (the store treats failure as a cache miss).
//
// The plan/planir codecs cover exactly the artifacts CrossCache persists:
// portable (port-free) coercion-plan fragments and convert-mode PlanIR
// programs. Marshal/native-marshal programs bind process-local pointers
// (dst_graph, layouts, fallback programs) and are rebuilt per process, so
// they have no encoding here. kPayloadCodecVersion participates in the
// cache file's format version: bump it whenever any encoding below
// changes, and stale files invalidate wholesale.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "plan/plan.hpp"
#include "planir/planir.hpp"
#include "support/wide_int.hpp"

namespace mbird::store {

inline constexpr uint32_t kPayloadCodecVersion = 1;

/// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8. Chains:
/// crc32(b, nb, crc32(a, na)) equals the crc of a followed by b.
[[nodiscard]] uint32_t crc32(const void* data, size_t n, uint32_t seed = 0);

class ByteWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), b, b + 4);
  }
  void u64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), b, b + 8);
  }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void i128(Int128 v) {
    auto u = static_cast<unsigned __int128>(v);
    u64(static_cast<uint64_t>(u));
    u64(static_cast<uint64_t>(u >> 64));
  }
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void vec_u32(const std::vector<uint32_t>& v) {
    u32(static_cast<uint32_t>(v.size()));
    for (uint32_t x : v) u32(x);
  }

  [[nodiscard]] const std::vector<uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const void* data, size_t n)
      : p_(static_cast<const uint8_t*>(data)), end_(p_ + n) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return p_ == end_; }
  [[nodiscard]] size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t u8() {
    if (!take(1)) return 0;
    return p_[-1];
  }
  uint32_t u32() {
    if (!take(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i - 4]) << (8 * i);
    return v;
  }
  uint64_t u64() {
    if (!take(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i - 8]) << (8 * i);
    return v;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  Int128 i128() {
    uint64_t lo = u64();
    uint64_t hi = u64();
    auto u = (static_cast<unsigned __int128>(hi) << 64) |
             static_cast<unsigned __int128>(lo);
    return static_cast<Int128>(u);
  }
  std::string str() {
    uint32_t n = len_capped(u32(), 1);
    std::string s;
    if (!ok_ || !take(n)) return s;
    s.assign(reinterpret_cast<const char*>(p_ - n), n);
    return s;
  }
  std::vector<uint32_t> vec_u32() {
    uint32_t n = len_capped(u32(), 4);
    std::vector<uint32_t> v;
    if (!ok_) return v;
    v.reserve(n);
    for (uint32_t i = 0; i < n && ok_; ++i) v.push_back(u32());
    return v;
  }
  /// Element count for a following array whose elements occupy at least
  /// `min_elem_bytes` each; counts implying more data than remains latch a
  /// decode failure instead of driving a huge allocation.
  uint32_t len_capped(uint32_t n, size_t min_elem_bytes) {
    if (!ok_) return 0;
    if (static_cast<uint64_t>(n) * min_elem_bytes > remaining()) {
      ok_ = false;
      return 0;
    }
    return n;
  }

 private:
  bool take(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    p_ += n;
    return true;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// ---- plan / planir codecs ---------------------------------------------------

/// Encode a port-free plan-node vector (a CrossCache fragment body).
/// PortMap nodes must not appear (they embed process-local graph refs);
/// encountering one is a programming error and encodes as a node the
/// decoder rejects.
/// A fragment is a u32 node count followed by its nodes. Writers encode
/// each node with encode_plan_node, its child refs passed through `local`
/// (fragment-local indices); decode_plan_nodes reads the whole vector.
void encode_plan_node(ByteWriter& w, const plan::PlanNode& n,
                      const std::function<uint32_t(plan::PlanRef)>& local);
[[nodiscard]] bool decode_plan_nodes(ByteReader& r,
                                     std::vector<plan::PlanNode>* out);

/// Encode a convert-mode PlanIR program. Returns false (and encodes
/// nothing) for marshal/native-marshal programs — those carry
/// process-local bindings and are never persisted.
[[nodiscard]] bool encode_program(ByteWriter& w, const planir::Program& p);
[[nodiscard]] bool decode_program(ByteReader& r, planir::Program* out);

}  // namespace mbird::store
