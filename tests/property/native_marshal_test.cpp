// Native-marshal differential suite: the layout-fused zero-copy program
// (planir::compile_native_marshal + ThreadedEngine::marshal_native) against
// the three-stage oracle read_image -> Converter -> wire::encode — and, on
// the same 10k randomized triples, the dlopen'd compiled stub where the
// generator accepts the program (success bytes identical; the stub's
// single failure signal must fire exactly when the engine throws).
//
// Cases are randomized (layout, plan, heap image) triples: layout trees mix
// aligned and packed placement, annotated integer ranges, enums, bools and
// unit holes; the destination is an isomorphism-shuffled, range-widened
// clone so the plan exercises reordering, widening and re-association; the
// image is filled with random field values (padding bytes deliberately
// garbage) plus a wild flavor that steps outside annotated ranges and enum
// pools to drive the error paths. Fused output must be byte-identical on
// success and fail exactly when the two-phase path fails.
//
// Deterministic cases pin the specializer's legality rule: a byte-identical
// struct must collapse to BlockCopy, a range-narrowed span must NOT, and the
// verifier must reject an out-of-bounds BlockCopy with IrFault::NativeBounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>

#include "codegen/stubcache.hpp"
#include "compare/compare.hpp"
#include "planir/planir.hpp"
#include "runtime/convert.hpp"
#include "runtime/layout.hpp"
#include "runtime/threaded.hpp"
#include "support/rng.hpp"
#include "wire/wire.hpp"

namespace mbird {
namespace {

using mtype::Graph;
using mtype::MKind;
using mtype::Ref;
using runtime::ImageLayout;
using runtime::NativeHeap;
using runtime::Value;
using LK = ImageLayout::K;

// ---- random layouts + matching source Mtypes --------------------------------

struct Ctx {
  ImageLayout il;
  Graph g;
  Rng& rng;
  uint32_t cursor = 0;
  bool packed = false;
  int next_label = 0;
};

uint32_t place(Ctx& c, uint32_t w) {
  if (!c.packed) {
    c.cursor += (w - c.cursor % w) % w;
  } else if (c.rng.chance(0.25)) {
    c.cursor += static_cast<uint32_t>(c.rng.below(3));  // stray gap
  }
  uint32_t off = c.cursor;
  c.cursor += w;
  return off;
}

/// Append one layout subtree (pre-order) and return {node index, src mtype}.
std::pair<uint32_t, Ref> gen(Ctx& c, int depth) {
  uint32_t idx = static_cast<uint32_t>(c.il.nodes.size());
  c.il.nodes.emplace_back();
  int pick = static_cast<int>(depth <= 0 ? c.rng.below(8) : c.rng.below(10));
  ImageLayout::Node n;
  Ref m = mtype::kNullRef;
  switch (pick) {
    case 0:
    case 1: {  // UInt
      n.kind = LK::UInt;
      n.width = 1u << c.rng.below(4);
      n.offset = place(c, n.width);
      Int128 dmax = pow2(static_cast<int>(8 * n.width)) - 1;
      if (c.rng.chance(0.3)) {
        n.has_lo = c.rng.chance(0.8);
        n.has_hi = c.rng.chance(0.8);
        n.lo = static_cast<Int128>(c.rng.below(100));
        n.hi = std::min<Int128>(n.lo + static_cast<Int128>(c.rng.below(150)),
                                dmax);
      }
      m = c.g.integer(n.has_lo ? n.lo : 0, n.has_hi ? n.hi : dmax);
      break;
    }
    case 2: {  // SInt
      n.kind = LK::SInt;
      n.width = 1u << c.rng.below(4);
      n.offset = place(c, n.width);
      Int128 dmin = -pow2(static_cast<int>(8 * n.width) - 1);
      Int128 dmax = pow2(static_cast<int>(8 * n.width) - 1) - 1;
      if (c.rng.chance(0.3)) {
        n.has_lo = c.rng.chance(0.8);
        n.has_hi = c.rng.chance(0.8);
        n.lo = std::max<Int128>(c.rng.range(-100, 50), dmin);
        n.hi = std::min<Int128>(n.lo + static_cast<Int128>(c.rng.below(150)),
                                dmax);
      }
      m = c.g.integer(n.has_lo ? n.lo : dmin, n.has_hi ? n.hi : dmax);
      break;
    }
    case 3: {  // Bool
      n.kind = LK::Bool;
      n.width = 1;
      n.offset = place(c, 1);
      m = c.g.integer(0, 1);
      break;
    }
    case 4: {  // Char
      n.kind = LK::Char;
      n.width = c.rng.chance(0.5) ? 1 : 4;
      n.offset = place(c, n.width);
      m = c.g.character(n.width == 1 ? stype::Repertoire::Latin1
                                     : stype::Repertoire::Unicode);
      break;
    }
    case 5: {  // Real
      bool wide = c.rng.chance(0.5);
      n.kind = wide ? LK::F64 : LK::F32;
      n.width = wide ? 8 : 4;
      n.offset = place(c, n.width);
      m = c.g.real(wide ? 53 : 24, wide ? 11 : 8);
      break;
    }
    case 6: {  // Enum
      n.kind = LK::Enum;
      n.width = 4;
      n.offset = place(c, 4);
      uint32_t count = 2 + static_cast<uint32_t>(c.rng.below(5));
      n.enum_off = static_cast<uint32_t>(c.il.enum_pool.size());
      n.enum_len = count;
      int64_t v = c.rng.range(-1000, 1000);
      for (uint32_t k = 0; k < count; ++k) {
        c.il.enum_pool.push_back(v);
        v += 1 + static_cast<int64_t>(c.rng.below(10));
      }
      m = c.g.integer(0, count - 1);
      break;
    }
    case 7: {  // Unit
      n.kind = LK::Unit;
      n.offset = c.cursor;
      m = c.g.unit();
      break;
    }
    default: {  // Record
      n.kind = LK::Record;
      n.offset = c.cursor;
      size_t count = 1 + c.rng.below(4);
      std::vector<uint32_t> kid_nodes;
      std::vector<Ref> kid_types;
      std::vector<std::string> labels;
      for (size_t k = 0; k < count; ++k) {
        auto [kn, kt] = gen(c, depth - 1);
        kid_nodes.push_back(kn);
        kid_types.push_back(kt);
        labels.push_back("f" + std::to_string(c.next_label++));
      }
      n.kids_off = static_cast<uint32_t>(c.il.kids.size());
      n.kids_len = static_cast<uint32_t>(kid_nodes.size());
      c.il.kids.insert(c.il.kids.end(), kid_nodes.begin(), kid_nodes.end());
      m = c.g.record(std::move(kid_types), std::move(labels));
      break;
    }
  }
  c.il.nodes[idx] = n;
  return {idx, m};
}

/// Destination clone in one of two flavors (the comparer pairs shuffled
/// fields by label, but re-associated groups only by structural hash, so
/// the mutations cannot mix):
///   widen: shuffle labeled fields and widen scalar ranges / precisions /
///          repertoires (strict supertype, flat structure preserved);
///   else:  shuffle + re-associate records (paper §4 isomorphisms) with
///          ranges kept exact (equivalence).
Ref clone_dst(const Graph& g, Ref r, Graph& out, Rng& rng, bool widen) {
  const auto& n = g.at(r);
  switch (n.kind) {
    case MKind::Int:
      if (widen && rng.chance(0.4)) {
        return out.integer(n.lo - static_cast<Int128>(rng.below(5)),
                           n.hi + static_cast<Int128>(rng.below(1000)));
      }
      return out.integer(n.lo, n.hi);
    case MKind::Real:
      if (widen && n.mantissa_bits <= 24 && rng.chance(0.3)) {
        return out.real(53, 11);
      }
      return out.real(n.mantissa_bits, n.exponent_bits);
    case MKind::Char:
      if (widen && n.repertoire != stype::Repertoire::Unicode &&
          rng.chance(0.3)) {
        return out.character(stype::Repertoire::Unicode);
      }
      return out.character(n.repertoire);
    case MKind::Unit: return out.unit();
    case MKind::Record: {
      std::vector<Ref> kids;
      std::vector<std::string> labels = n.labels;
      for (Ref c : n.children) {
        kids.push_back(clone_dst(g, c, out, rng, widen));
      }
      for (size_t i = kids.size(); i > 1; --i) {
        size_t j = rng.below(i);
        std::swap(kids[i - 1], kids[j]);
        if (labels.size() == kids.size()) std::swap(labels[i - 1], labels[j]);
      }
      if (!widen && kids.size() >= 3 && rng.chance(0.5)) {
        size_t start = rng.below(kids.size() - 1);
        size_t len = 2 + rng.below(kids.size() - start - 1);
        std::vector<Ref> inner(kids.begin() + static_cast<long>(start),
                               kids.begin() + static_cast<long>(start + len));
        std::vector<std::string> inner_labels;
        if (labels.size() == kids.size()) {
          inner_labels.assign(labels.begin() + static_cast<long>(start),
                              labels.begin() + static_cast<long>(start + len));
          labels.erase(labels.begin() + static_cast<long>(start),
                       labels.begin() + static_cast<long>(start + len));
          labels.insert(labels.begin() + static_cast<long>(start), "grp");
        }
        Ref nested = out.record(std::move(inner), std::move(inner_labels));
        kids.erase(kids.begin() + static_cast<long>(start),
                   kids.begin() + static_cast<long>(start + len));
        kids.insert(kids.begin() + static_cast<long>(start), nested);
      }
      return out.record(std::move(kids), std::move(labels));
    }
    default: return out.unit();
  }
}

// ---- random images ----------------------------------------------------------

/// Fill the image's fields with random values; `wild` flavors step outside
/// annotated ranges / enum pools / bool {0,1} to drive the error paths.
void fill(const ImageLayout& il, uint32_t node, NativeHeap& heap,
          uint64_t base, Rng& rng, bool wild) {
  const ImageLayout::Node& n = il.nodes[node];
  uint64_t a = base + n.offset;
  switch (n.kind) {
    case LK::Unit: break;
    case LK::Bool:
      heap.write_uint(a, 1,
                      wild && rng.chance(0.3) ? rng.below(256) : rng.below(2));
      break;
    case LK::UInt: {
      uint64_t dmax =
          n.width == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * n.width)) - 1;
      uint64_t v;
      if (wild && rng.chance(0.2)) {
        v = rng.next() & dmax;
      } else {
        uint64_t lo = n.has_lo ? static_cast<uint64_t>(n.lo) : 0;
        uint64_t hi = n.has_hi ? static_cast<uint64_t>(n.hi) : dmax;
        uint64_t span = hi - lo;  // hi - lo + 1 wraps to 0 on the full domain
        v = span == ~uint64_t{0} ? rng.next() : lo + rng.next() % (span + 1);
      }
      heap.write_uint(a, n.width, v);
      break;
    }
    case LK::SInt: {
      int64_t dmin = n.width == 8
                         ? INT64_MIN
                         : -(int64_t{1} << (8 * n.width - 1));
      int64_t dmax = n.width == 8 ? INT64_MAX
                                  : (int64_t{1} << (8 * n.width - 1)) - 1;
      int64_t v;
      if (wild && rng.chance(0.2)) {
        v = static_cast<int64_t>(rng.next());
        if (n.width != 8) {
          v = static_cast<int64_t>(
                  static_cast<uint64_t>(v)
                  << (64 - 8 * n.width)) >>
              (64 - 8 * n.width);
        }
      } else {
        int64_t lo = n.has_lo ? static_cast<int64_t>(n.lo) : dmin;
        int64_t hi = n.has_hi ? static_cast<int64_t>(n.hi) : dmax;
        uint64_t span =
            static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
        v = span == ~uint64_t{0}
                ? static_cast<int64_t>(rng.next())
                : lo + static_cast<int64_t>(rng.next() % (span + 1));
      }
      heap.write_uint(a, n.width, static_cast<uint64_t>(v));
      break;
    }
    case LK::Char:
      heap.write_uint(a, n.width,
                      n.width == 1 ? rng.below(256) : rng.below(0x110000));
      break;
    case LK::F32: heap.write_f32(a, static_cast<float>(rng.range(-4096, 4096)) / 8.0f); break;
    case LK::F64: heap.write_f64(a, static_cast<double>(rng.range(-1 << 20, 1 << 20)) / 64.0); break;
    case LK::Enum:
      if (wild && rng.chance(0.2)) {
        heap.write_uint(a, 4, static_cast<uint32_t>(rng.next()));
      } else {
        heap.write_uint(
            a, 4,
            static_cast<uint64_t>(
                il.enum_pool[n.enum_off + rng.below(n.enum_len)]));
      }
      break;
    case LK::Record:
      for (uint32_t k = 0; k < n.kids_len; ++k) {
        fill(il, il.kids[n.kids_off + k], heap, base, rng, wild);
      }
      break;
  }
}

// ---- the differential case --------------------------------------------------

struct Case {
  std::shared_ptr<const ImageLayout> layout;
  Graph ga, gb;
  Ref a = mtype::kNullRef, b = mtype::kNullRef;
  plan::PlanGraph plan;
  plan::PlanRef root = plan::kNullPlan;
};

Case make_case(uint64_t seed) {
  Case c;
  Rng rng(seed);
  Ctx ctx{.il = {}, .g = {}, .rng = rng, .cursor = 0,
          .packed = rng.chance(0.5)};
  ctx.il.names = {""};
  auto [root_node, src_ref] = gen(ctx, 3);
  EXPECT_EQ(root_node, 0u);
  ctx.il.size = std::max<uint32_t>(ctx.cursor, 1);
  c.layout = std::make_shared<const ImageLayout>(std::move(ctx.il));
  c.ga = std::move(ctx.g);
  c.a = src_ref;
  c.b = clone_dst(c.ga, c.a, c.gb, rng, /*widen=*/rng.chance(0.5));
  // Widened ranges make the destination a strict supertype, so the
  // directional comparison is the one that must succeed.
  auto full = compare::compare_full(c.ga, c.a, c.gb, c.b);
  EXPECT_TRUE(full.verdict == compare::Verdict::Equivalent ||
              full.verdict == compare::Verdict::LeftSubtype)
      << "seed " << seed << "\n  left:  " << mtype::print(c.ga, c.a)
      << "\n  right: " << mtype::print(c.gb, c.b) << "\n"
      << full.to_right.mismatch.to_string();
  c.plan = std::move(full.to_right.plan);
  c.root = full.to_right.root;
  return c;
}

class NativeMarshalDiff : public testing::TestWithParam<uint64_t> {};

TEST_P(NativeMarshalDiff, FusedEqualsReadConvertEncode) {
  Case c = make_case(GetParam());
  if (c.root == plan::kNullPlan) GTEST_SKIP();

  planir::Program np = planir::compile_native_marshal(c.plan, c.root, c.gb,
                                                      c.b, c.layout);
  auto issues = planir::verify(np);
  ASSERT_TRUE(issues.empty()) << "seed " << GetParam() << ": "
                              << issues[0].to_string();

  runtime::Converter oracle(c.plan);
  runtime::ThreadedEngine engine(np);
  // Compiled tier: only where the generator accepts the program (no enums,
  // no opaque fallbacks) and a host `cc` exists. Capped to the first 25
  // seeds so the suite doesn't spend its whole budget in the C compiler.
  static const bool have_cc = std::system("cc --version > /dev/null 2>&1") == 0;
  std::shared_ptr<const codegen::CompiledStub> stub;
  if (have_cc && GetParam() < 25) {
    stub = codegen::StubCache::process().get(np);
  }
  const ImageLayout& il = *c.layout;

  NativeHeap heap;
  uint64_t base = heap.alloc(il.size, 8);
  Rng vrng(GetParam() * 6364136223846793005ULL + 1);

  for (int img = 0; img < 50; ++img) {
    // Garbage padding first: BlockCopy spans must never leak pad bytes.
    uint8_t* raw = heap.at_mut(base, il.size);
    for (uint64_t k = 0; k < il.size; ++k) {
      raw[k] = static_cast<uint8_t>(vrng.next());
    }
    bool wild = img >= 30;
    fill(il, 0, heap, base, vrng, wild);

    std::vector<uint8_t> fused, unfused;
    std::string ferr, uerr;
    bool fused_wire = false;
    try {
      fused = engine.marshal_native(heap, base);
    } catch (const WireError& e) {
      ferr = e.what();
      fused_wire = true;
    } catch (const MbError& e) {
      ferr = e.what();
    }
    try {
      unfused = wire::encode(c.gb, c.b,
                             oracle.apply(c.root, runtime::read_image(
                                                      il, 0, heap, base)));
    } catch (const MbError& e) {
      uerr = e.what();
    }
    ASSERT_EQ(ferr.empty(), uerr.empty())
        << "seed " << GetParam() << " image " << img << "\n  fused:   " << ferr
        << "\n  unfused: " << uerr;
    if (ferr.empty()) {
      ASSERT_EQ(fused, unfused) << "seed " << GetParam() << " image " << img;
    } else {
      // Fusion may surface an earlier wire-only error where the two-phase
      // path reports a later conversion error first (same asymmetry the
      // marshal differential documents); everything else matches verbatim.
      EXPECT_TRUE(ferr == uerr || fused_wire)
          << "seed " << GetParam() << "\n  fused:   " << ferr
          << "\n  unfused: " << uerr;
    }

    // Compiled tier: identical success bytes; the stub's (size_t)-1
    // failure signal must fire exactly when the engine throws.
    if (stub != nullptr) {
      std::vector<uint8_t> cout_buf(stub->wire_size());
      const uint8_t* img_bytes = il.size != 0 ? heap.at(base, il.size) : nullptr;
      size_t n = stub->fn()(img_bytes, cout_buf.data());
      ASSERT_EQ(n == static_cast<size_t>(-1), !ferr.empty())
          << "seed " << GetParam() << " image " << img << " engine: " << ferr;
      if (ferr.empty()) {
        cout_buf.resize(n);
        ASSERT_EQ(cout_buf, fused) << "seed " << GetParam() << " image " << img;
      }
    }
  }
}

// 200 seeds x 50 images = 10,000 randomized triples.
INSTANTIATE_TEST_SUITE_P(Seeds, NativeMarshalDiff,
                         testing::Range<uint64_t>(0, 200));

// ---- deterministic specializer + verifier cases -----------------------------

/// A flat record of `n` contiguous u8 fields with full [0..255] ranges,
/// plus its identical destination: the one shape where BlockCopy is legal
/// on a little-endian host.
Case byte_struct_case(size_t n, Int128 field_lo) {
  Case c;
  ImageLayout il;
  il.names = {""};
  ImageLayout::Node root;
  root.kind = LK::Record;
  root.kids_off = 0;
  root.kids_len = static_cast<uint32_t>(n);
  il.nodes.push_back(root);
  std::vector<Ref> kids;
  for (size_t k = 0; k < n; ++k) {
    ImageLayout::Node f;
    f.kind = LK::UInt;
    f.width = 1;
    f.offset = static_cast<uint32_t>(k);
    if (field_lo != 0) {
      f.has_lo = true;
      f.has_hi = true;
      f.lo = field_lo;
      f.hi = 200;
    }
    il.kids.push_back(static_cast<uint32_t>(il.nodes.size()));
    il.nodes.push_back(f);
    kids.push_back(c.ga.integer(field_lo, field_lo != 0 ? 200 : 255));
  }
  il.size = n;
  c.layout = std::make_shared<const ImageLayout>(std::move(il));
  c.a = c.ga.record(std::move(kids));
  // Identity clone: same field order, same ranges.
  std::vector<Ref> dkids;
  for (Ref kr : c.ga.at(c.a).children) {
    const auto& kn = c.ga.at(kr);
    dkids.push_back(c.gb.integer(kn.lo, kn.hi));
  }
  c.b = c.gb.record(std::move(dkids));
  auto full = compare::compare_full(c.ga, c.a, c.gb, c.b);
  EXPECT_EQ(full.verdict, compare::Verdict::Equivalent);
  c.plan = std::move(full.to_right.plan);
  c.root = full.to_right.root;
  return c;
}

TEST(NativeMarshalSpecialize, BlockCopyCoversByteIdenticalStruct) {
  Case c = byte_struct_case(8, 0);
  planir::Program np = planir::compile_native_marshal(c.plan, c.root, c.gb,
                                                      c.b, c.layout);
  planir::require_valid(np);
  size_t block_copies = 0;
  for (const auto& ins : np.code) {
    if (ins.op == planir::OpCode::BlockCopy) {
      block_copies++;
      const auto& s = np.natives[ins.a];
      EXPECT_EQ(s.src_off, 0u);
      EXPECT_EQ(s.width, 8u);
    }
    EXPECT_NE(ins.op, planir::OpCode::LoadInt)
        << "per-field loads survived specialization";
  }
  EXPECT_EQ(block_copies, 1u);

  NativeHeap heap;
  uint64_t base = heap.alloc(8, 8);
  for (int k = 0; k < 8; ++k) {
    heap.write_uint(base + k, 1, static_cast<uint64_t>(10 * k + 3));
  }
  runtime::ThreadedEngine engine(np);
  auto fused = engine.marshal_native(heap, base);
  auto oracle = wire::encode(
      c.gb, c.b,
      runtime::Converter(c.plan).apply(c.root,
                                       runtime::read_image(*c.layout, 0, heap,
                                                           base)));
  EXPECT_EQ(fused, oracle);
}

TEST(NativeMarshalSpecialize, NarrowedRangeSuppressesBlockCopy) {
  // Annotated [1..200] fields are failable and not zero-based: copying the
  // raw bytes would skip the range check and mis-encode (wire = x - 1).
  Case c = byte_struct_case(4, 1);
  planir::Program np = planir::compile_native_marshal(c.plan, c.root, c.gb,
                                                      c.b, c.layout);
  planir::require_valid(np);
  for (const auto& ins : np.code) {
    EXPECT_NE(ins.op, planir::OpCode::BlockCopy)
        << "BlockCopy fired on a range-narrowed span";
  }

  NativeHeap heap;
  uint64_t base = heap.alloc(4, 8);
  for (int k = 0; k < 4; ++k) heap.write_uint(base + k, 1, 7);
  runtime::ThreadedEngine engine(np);
  auto fused = engine.marshal_native(heap, base);
  auto oracle = wire::encode(
      c.gb, c.b,
      runtime::Converter(c.plan).apply(c.root,
                                       runtime::read_image(*c.layout, 0, heap,
                                                           base)));
  EXPECT_EQ(fused, oracle);

  // Below the annotated range: both paths must throw.
  heap.write_uint(base + 2, 1, 0);
  EXPECT_THROW((void)engine.marshal_native(heap, base), ConversionError);
  EXPECT_THROW(runtime::read_image(*c.layout, 0, heap, base), ConversionError);
}

TEST(NativeMarshalVerify, RejectsOutOfBoundsBlockCopy) {
  Case c = byte_struct_case(8, 0);
  planir::Program np = planir::compile_native_marshal(c.plan, c.root, c.gb,
                                                      c.b, c.layout);
  planir::require_valid(np);
  bool corrupted = false;
  for (auto& ins : np.code) {
    if (ins.op == planir::OpCode::BlockCopy) {
      np.natives[ins.a].src_off = 100000;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  auto issues = planir::verify(np);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].fault, planir::IrFault::NativeBounds)
      << issues[0].to_string();
}

TEST(NativeMarshalVerify, RejectsWrongModePrograms) {
  Case c = byte_struct_case(2, 0);
  planir::Program np = planir::compile_native_marshal(c.plan, c.root, c.gb,
                                                      c.b, c.layout);
  // A native program demoted to marshal mode carries opcodes the mode
  // forbids.
  np.mode = planir::Program::Mode::Marshal;
  auto issues = planir::verify(np);
  EXPECT_FALSE(issues.empty());
}

}  // namespace
}  // namespace mbird
