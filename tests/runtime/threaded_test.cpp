// PlanIR engine unit tests (DESIGN.md §4e, §4j): tier selection plumbing,
// convert/marshal/native-marshal parity with the reference semantics (tree
// Converter + wire::encode, fed by read_image for native programs) on
// targeted shapes (records, choices, lists, customs), mode mismatches,
// choice inline-cache behavior observable through stats(), the SIMD range
// prologue (block counts, rescan-on-failure, fault ordering identical to
// read_image), static output sizing, trim-on-throw, and the compiled-stub
// cache roundtrip.
//
// The 10k-triple randomized differential lives in
// tests/property/native_marshal_test.cpp; these cases pin the mechanisms.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codegen/stubcache.hpp"
#include "compare/compare.hpp"
#include "planir/planir.hpp"
#include "runtime/convert.hpp"
#include "runtime/engine.hpp"
#include "runtime/layout.hpp"
#include "runtime/threaded.hpp"
#include "wire/wire.hpp"

// Live heap allocations (operator new minus operator delete, all threads),
// so a test can check that a marshal loop frees everything it allocates.
namespace {
std::atomic<int64_t> g_live_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace mbird {
namespace {

using mtype::Graph;
using mtype::Ref;
using planir::Program;
using runtime::ImageLayout;
using runtime::NativeHeap;
using runtime::ThreadedEngine;
using runtime::Value;
using LK = ImageLayout::K;

bool have_cc() { return std::system("cc --version > /dev/null 2>&1") == 0; }

/// Bytes (or the error text) of one run of `f`.
template <typename F>
std::pair<std::vector<uint8_t>, std::string> outcome(F&& f) {
  try {
    return {f(), ""};
  } catch (const MbError& e) {
    return {{}, e.what()};
  }
}

// ---- tier policy ------------------------------------------------------------

TEST(EngineTier, ParsesAndPrints) {
  runtime::EngineTier t;
  EXPECT_TRUE(runtime::parse_engine_tier("threaded", &t));
  EXPECT_EQ(t, runtime::EngineTier::Threaded);
  EXPECT_TRUE(runtime::parse_engine_tier("compiled", &t));
  EXPECT_EQ(t, runtime::EngineTier::Compiled);
  EXPECT_FALSE(runtime::parse_engine_tier("vm", &t));
  EXPECT_FALSE(runtime::parse_engine_tier("jit", &t));
  EXPECT_STREQ(runtime::to_string(runtime::EngineTier::Threaded), "threaded");
  EXPECT_STREQ(runtime::to_string(runtime::EngineTier::Compiled), "compiled");
}

TEST(EngineTier, DefaultsToThreadedAndRoundTrips) {
  runtime::EngineTier before = runtime::engine_tier();
  EXPECT_EQ(before, runtime::EngineTier::Threaded);
  runtime::set_engine_tier(runtime::EngineTier::Compiled);
  EXPECT_EQ(runtime::engine_tier(), runtime::EngineTier::Compiled);
  runtime::set_engine_tier(before);
}

// ---- marshal-mode parity ----------------------------------------------------

struct Built {
  Graph ga, gb;
  Ref a = mtype::kNullRef, b = mtype::kNullRef;
  plan::PlanGraph plan;
  plan::PlanRef root = plan::kNullPlan;
};

Built pair_of(Ref (*mk)(Graph&), Ref (*mk_dst)(Graph&)) {
  Built s;
  s.a = mk(s.ga);
  s.b = mk_dst(s.gb);
  auto res = compare::compare(s.ga, s.a, s.gb, s.b, {});
  EXPECT_TRUE(res.ok) << res.mismatch.to_string();
  s.plan = std::move(res.plan);
  s.root = res.root;
  return s;
}

/// A one-op Custom plan from integer(0..1000) to integer(0..1000).
Built custom_pair(const std::string& name) {
  Built s;
  s.a = s.ga.integer(0, 1000);
  s.b = s.gb.integer(0, 1000);
  s.root = plan::make_custom(s.plan, name);
  return s;
}

runtime::CustomRegistry plus_one() {
  runtime::CustomRegistry reg;
  reg["plus_one"] = [](const Value& v) {
    return Value::integer(v.as_int() + 1);
  };
  return reg;
}

/// Marshal `v` through the engine and through convert-then-encode; bytes
/// and errors must agree verbatim.
void expect_marshal_parity(const Built& s, const Value& v,
                           const runtime::CustomRegistry& reg = {}) {
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  planir::require_valid(p);
  ThreadedEngine te(p, {}, reg);
  runtime::Converter oracle(s.plan, {}, reg);
  auto want = outcome(
      [&] { return wire::encode(s.gb, s.b, oracle.apply(s.root, v)); });
  auto got = outcome([&] { return te.marshal(v); });
  EXPECT_EQ(got.second, want.second);
  EXPECT_EQ(got.first, want.first);
}

TEST(ThreadedMarshal, RecordReorderMatchesOracle) {
  Built s = pair_of(
      [](Graph& g) {
        return g.record({g.integer(0, 100), g.character(stype::Repertoire::Latin1)},
                        {"n", "c"});
      },
      [](Graph& g) {
        return g.record({g.character(stype::Repertoire::Latin1), g.integer(0, 100)},
                        {"c", "n"});
      });
  expect_marshal_parity(s, Value::record({Value::integer(42), Value::character('x')}));
  // Out-of-range: same typed error, same text.
  expect_marshal_parity(s, Value::record({Value::integer(101), Value::character('x')}));
}

Built choice_list_pair() {
  return pair_of(
      [](Graph& g) {
        return g.list_of(g.choice({g.integer(0, 10), g.unit(), g.real(24, 8)}));
      },
      [](Graph& g) {
        return g.list_of(g.choice({g.real(24, 8), g.integer(0, 10), g.unit()}));
      });
}

TEST(ThreadedMarshal, ChoiceAndListMatchOracle) {
  Built s = choice_list_pair();
  expect_marshal_parity(
      s, Value::list({Value::choice(0, Value::integer(7)),
                      Value::choice(1, Value::unit()),
                      Value::choice(2, Value::real(1.5)),
                      Value::choice(0, Value::integer(3))}));
  expect_marshal_parity(s, Value::list({}));
  // Non-list input: identical shape error.
  expect_marshal_parity(s, Value::integer(9));
}

TEST(ThreadedMarshal, CustomConverterMatchesOracle) {
  Built s = custom_pair("plus_one");
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  ASSERT_EQ(p.code[p.entry].op, planir::OpCode::EmitCustom);
  expect_marshal_parity(s, Value::integer(41), plus_one());
  // Out of the destination range after conversion.
  expect_marshal_parity(s, Value::integer(1000), plus_one());
  // Unregistered converter: verbatim error parity.
  expect_marshal_parity(s, Value::integer(1));
}

TEST(ThreadedMarshal, ChoiceInlineCacheHitsOnRepeat) {
  Built s = pair_of(
      [](Graph& g) {
        return g.choice({g.integer(0, 10), g.unit(), g.real(24, 8)});
      },
      [](Graph& g) {
        return g.choice({g.real(24, 8), g.integer(0, 10), g.unit()});
      });
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  planir::require_valid(p);
  ThreadedEngine te(p);
  Value v = Value::choice(2, Value::real(0.5));
  auto first = te.marshal(v);
  uint64_t misses_after_first = te.stats().ic_misses;
  EXPECT_GE(misses_after_first, 1u);
  EXPECT_EQ(te.stats().ic_hits, 0u);
  auto second = te.marshal(v);
  EXPECT_EQ(second, first);
  EXPECT_GE(te.stats().ic_hits, 1u);
  EXPECT_EQ(te.stats().ic_misses, misses_after_first);
  // A different arm misses once, then hits too.
  (void)te.marshal(Value::choice(0, Value::integer(4)));
  EXPECT_GT(te.stats().ic_misses, misses_after_first);
}

// ---- convert mode -----------------------------------------------------------

/// Convert `v` through the engine and the tree Converter; values and errors
/// must agree verbatim.
void expect_convert_parity(const Built& s, const Value& v,
                           const runtime::CustomRegistry& reg = {}) {
  ThreadedEngine te(std::make_shared<const Program>(planir::compile(s.plan, s.root)),
                    {}, reg);
  runtime::Converter oracle(s.plan, {}, reg);
  std::optional<Value> want, got;
  std::string want_err, got_err;
  try {
    want = oracle.apply(s.root, v);
  } catch (const MbError& e) {
    want_err = e.what();
  }
  try {
    got = te.apply(v);
  } catch (const MbError& e) {
    got_err = e.what();
  }
  EXPECT_EQ(got_err, want_err);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (want) {
    EXPECT_EQ(*got, *want);
  }
}

TEST(ThreadedConvert, ChoiceAndListMatchConverter) {
  Built s = choice_list_pair();
  expect_convert_parity(
      s, Value::list({Value::choice(0, Value::integer(7)),
                      Value::choice(1, Value::unit()),
                      Value::choice(2, Value::real(1.5))}));
  expect_convert_parity(s, Value::list({}));
  // Out-of-range element, unknown arm, non-list input: identical errors.
  expect_convert_parity(s, Value::list({Value::choice(0, Value::integer(11))}));
  expect_convert_parity(s, Value::list({Value::choice(5, Value::unit())}));
  expect_convert_parity(s, Value::integer(9));
}

TEST(ThreadedConvert, RecordReorderMatchesConverter) {
  Built s = pair_of(
      [](Graph& g) {
        return g.record({g.integer(0, 100), g.record({g.real(24, 8)})},
                        {"n", "r"});
      },
      [](Graph& g) {
        return g.record({g.record({g.real(24, 8)}), g.integer(0, 100)},
                        {"r", "n"});
      });
  expect_convert_parity(s, Value::record({Value::integer(5),
                                          Value::record({Value::real(0.5)})}));
  expect_convert_parity(s, Value::integer(5));
}

TEST(ThreadedConvert, CustomMatchesConverter) {
  Built s = custom_pair("plus_one");
  expect_convert_parity(s, Value::integer(41), plus_one());
  expect_convert_parity(s, Value::integer(41));  // unregistered
}

TEST(ThreadedConvert, ModeMismatchBothWays) {
  Built s = choice_list_pair();
  auto expect_mismatch = [](auto&& run) {
    try {
      run();
      ADD_FAILURE() << "expected IrError(ModeMismatch)";
    } catch (const planir::IrError& e) {
      EXPECT_EQ(e.fault(), planir::IrFault::ModeMismatch) << e.what();
    }
  };
  ThreadedEngine conv(
      std::make_shared<const Program>(planir::compile(s.plan, s.root)));
  EXPECT_EQ(conv.op_count(), 0u);
  expect_mismatch([&] { (void)conv.marshal(Value::list({})); });
  NativeHeap heap;
  expect_mismatch([&] { (void)conv.marshal_native(heap, 0); });

  ThreadedEngine mar(std::make_shared<const Program>(
      planir::compile_marshal(s.plan, s.root, s.gb, s.b)));
  expect_mismatch([&] { (void)mar.apply(Value::list({})); });
}

// ---- native-marshal: SIMD prologue ------------------------------------------

/// A record of `n` contiguous annotated u8 fields ([0..200]) and its
/// identity clone — every field is lane-eligible, so n >= 16 forms SIMD
/// blocks in the prologue.
struct NativeCase {
  std::shared_ptr<const ImageLayout> layout;
  Graph ga, gb;
  Ref a = mtype::kNullRef, b = mtype::kNullRef;
  plan::PlanGraph plan;
  plan::PlanRef root = plan::kNullPlan;
  Program prog;

  /// The reference pipeline: read_image -> Converter -> wire::encode.
  std::pair<std::vector<uint8_t>, std::string> oracle(const NativeHeap& heap,
                                                      uint64_t base) const {
    return outcome([&] {
      return wire::encode(
          gb, b,
          runtime::Converter(plan).apply(
              root, runtime::read_image(*layout, 0, heap, base)));
    });
  }
};

NativeCase annotated_bytes_case(size_t n) {
  NativeCase c;
  ImageLayout il;
  il.names = {""};
  ImageLayout::Node root;
  root.kind = LK::Record;
  root.kids_off = 0;
  root.kids_len = static_cast<uint32_t>(n);
  il.nodes.push_back(root);
  std::vector<Ref> kids, dkids;
  for (size_t k = 0; k < n; ++k) {
    ImageLayout::Node f;
    f.kind = LK::UInt;
    f.width = 1;
    f.offset = static_cast<uint32_t>(k);
    f.has_lo = true;
    f.has_hi = true;
    f.lo = 0;
    f.hi = 200;
    il.kids.push_back(static_cast<uint32_t>(il.nodes.size()));
    il.nodes.push_back(f);
    kids.push_back(c.ga.integer(0, 200));
    dkids.push_back(c.gb.integer(0, 200));
  }
  il.size = static_cast<uint32_t>(n);
  c.layout = std::make_shared<const ImageLayout>(std::move(il));
  c.a = c.ga.record(std::move(kids));
  c.b = c.gb.record(std::move(dkids));
  auto full = compare::compare_full(c.ga, c.a, c.gb, c.b);
  EXPECT_EQ(full.verdict, compare::Verdict::Equivalent);
  c.plan = std::move(full.to_right.plan);
  c.root = full.to_right.root;
  c.prog = planir::compile_native_marshal(c.plan, c.root, c.gb, c.b, c.layout);
  planir::require_valid(c.prog);
  return c;
}

TEST(ThreadedNative, SimdPrologueMatchesOracleOnCleanImage) {
  NativeCase c = annotated_bytes_case(40);
  ThreadedEngine te(c.prog);
  NativeHeap heap;
  uint64_t base = heap.alloc(40, 8);
  for (int k = 0; k < 40; ++k) {
    heap.write_uint(base + k, 1, static_cast<uint64_t>((k * 5) % 200));
  }
  auto want = c.oracle(heap, base);
  ASSERT_EQ(want.second, "");
  EXPECT_EQ(te.marshal_native(heap, base), want.first);
  // 40 lane-eligible bytes = 2 full 16-lane blocks + 8 scalar tail checks.
  EXPECT_GE(te.stats().simd_blocks, 2u);
  EXPECT_EQ(te.stats().simd_rescans, 0u);
  // Static output size: 40 one-byte ints, known at build time.
  ASSERT_TRUE(te.static_size().has_value());
  EXPECT_EQ(*te.static_size(), te.marshal_native(heap, base).size());
}

TEST(ThreadedNative, SimdFailureRescansAndMatchesOracleFaultOrder) {
  NativeCase c = annotated_bytes_case(40);
  ThreadedEngine te(c.prog);
  NativeHeap heap;
  uint64_t base = heap.alloc(40, 8);
  for (int k = 0; k < 40; ++k) heap.write_uint(base + k, 1, 100);

  auto expect_same_fault = [&]() {
    std::string want = c.oracle(heap, base).second;
    std::string got = outcome([&] { return te.marshal_native(heap, base); }).second;
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want);
  };

  // A lane failure inside the first block: rescan must surface it with
  // read_image's exact message.
  heap.write_uint(base + 5, 1, 250);
  expect_same_fault();
  EXPECT_GE(te.stats().simd_rescans, 1u);

  // Two bad fields: the first in pre-order wins in both.
  heap.write_uint(base + 20, 1, 255);
  expect_same_fault();

  // Only the tail (scalar-checked) field bad.
  heap.write_uint(base + 5, 1, 100);
  heap.write_uint(base + 20, 1, 100);
  heap.write_uint(base + 38, 1, 201);
  expect_same_fault();
}

/// Index of `d` in the program's destination table, appending it if absent.
uint32_t dst_slot(Program& p, Ref d) {
  for (uint32_t k = 0; k < p.dst_types.size(); ++k) {
    if (p.dst_types[k] == d) return k;
  }
  p.dst_types.push_back(d);
  return static_cast<uint32_t>(p.dst_types.size() - 1);
}

// Custom and opaque ops build owning temporaries (the converted Value, the
// encoded bytes, the materialized image Value). Under computed-goto
// dispatch those must still be destroyed before jumping to the next op.
TEST(ThreadedDispatch, CustomAndOpaqueOpsFreeTheirTemporaries) {
  Built cs = custom_pair("plus_one");
  Program custom = planir::compile_marshal(cs.plan, cs.root, cs.gb, cs.b);
  planir::require_valid(custom);
  // The whole value through the fallback convert program.
  Built s = pair_of([](Graph& g) { return g.integer(0, 1000); },
                    [](Graph& g) { return g.integer(0, 1000); });
  Program opaque = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  opaque.code[opaque.entry] = planir::Instr{
      planir::OpCode::EmitOpaque, opaque.fallback->entry, dst_slot(opaque, s.b)};
  planir::require_valid(opaque);

  NativeCase nc = annotated_bytes_case(4);
  Program native = nc.prog;
  native.natives.push_back({.src_off = 0,
                            .width = 0,
                            .layout_node = 0,
                            .flags = 0,
                            .aux = native.fallback->entry});
  native.code[native.entry] = planir::Instr{
      planir::OpCode::LoadOpaque,
      static_cast<uint32_t>(native.natives.size() - 1), dst_slot(native, nc.b)};
  planir::require_valid(native);
  NativeHeap heap;
  uint64_t base = heap.alloc(4, 8);
  for (int k = 0; k < 4; ++k) heap.write_uint(base + k, 1, 7u * k);

  ThreadedEngine tc(custom, {}, plus_one()), to(opaque), tn(native);
  const Value in = Value::integer(41);
  EXPECT_EQ(tc.marshal(in),
            wire::encode(cs.gb, cs.b,
                         runtime::Converter(cs.plan, {}, plus_one())
                             .apply(cs.root, in)));
  EXPECT_EQ(to.marshal(in),
            wire::encode(s.gb, s.b, runtime::Converter(s.plan).apply(s.root, in)));
  auto want = nc.oracle(heap, base);
  ASSERT_EQ(want.second, "");
  EXPECT_EQ(tn.marshal_native(heap, base), want.first);
  const int64_t before = g_live_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    (void)tc.marshal(in);
    (void)to.marshal(in);
    (void)tn.marshal_native(heap, base);
  }
  EXPECT_EQ(g_live_allocs.load() - before, 0)
      << "allocations still live after 3000 marshals";
}

TEST(ThreadedNative, MarshalIntoTrimsOnThrow) {
  NativeCase c = annotated_bytes_case(20);
  ThreadedEngine te(c.prog);
  NativeHeap heap;
  uint64_t base = heap.alloc(20, 8);
  for (int k = 0; k < 20; ++k) heap.write_uint(base + k, 1, 10);
  heap.write_uint(base + 7, 1, 250);  // out of range

  std::vector<uint8_t> out = {0xaa, 0xbb, 0xcc};
  std::vector<uint8_t> before = out;
  EXPECT_THROW(te.marshal_native_into(heap, base, out), ConversionError);
  EXPECT_EQ(out, before) << "failed marshal must not leave partial output";
}

TEST(ThreadedNative, RunCounterAdvances) {
  NativeCase c = annotated_bytes_case(16);
  ThreadedEngine te(c.prog);
  NativeHeap heap;
  uint64_t base = heap.alloc(16, 8);
  for (int k = 0; k < 16; ++k) heap.write_uint(base + k, 1, 1);
  EXPECT_EQ(te.stats().runs, 0u);
  (void)te.marshal_native(heap, base);
  (void)te.marshal_native(heap, base);
  EXPECT_EQ(te.stats().runs, 2u);
  EXPECT_GT(te.op_count(), 0u);
  (void)ThreadedEngine::computed_goto();  // must not crash either way
}

// ---- compiled-stub cache ----------------------------------------------------

TEST(StubCacheTest, CompilesRunsAndRehits) {
  if (!have_cc()) GTEST_SKIP() << "no system C compiler";
  NativeCase c = annotated_bytes_case(24);
  auto& cache = codegen::StubCache::process();
  auto s0 = cache.stats();
  auto stub = cache.get(c.prog);
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->wire_size(),
            *runtime::static_native_wire_size(c.prog));

  NativeHeap heap;
  uint64_t base = heap.alloc(24, 8);
  for (int k = 0; k < 24; ++k) heap.write_uint(base + k, 1, 50 + k);
  std::vector<uint8_t> buf(stub->wire_size());
  size_t n = stub->fn()(heap.at(base, 24), buf.data());
  ASSERT_NE(n, static_cast<size_t>(-1));
  buf.resize(n);
  auto want = c.oracle(heap, base);
  ASSERT_EQ(want.second, "");
  EXPECT_EQ(buf, want.first);

  // Out-of-range byte: the stub signals failure instead of emitting, where
  // the reference pipeline and the engine throw.
  heap.write_uint(base + 3, 1, 201);
  buf.assign(stub->wire_size(), 0);
  EXPECT_EQ(stub->fn()(heap.at(base, 24), buf.data()), static_cast<size_t>(-1));
  EXPECT_FALSE(c.oracle(heap, base).second.empty());
  EXPECT_THROW((void)ThreadedEngine(c.prog).marshal_native(heap, base),
               ConversionError);

  // Same program again: an in-memory hit, no second compile.
  auto again = cache.get(c.prog);
  EXPECT_EQ(again.get(), stub.get());
  auto s1 = cache.stats();
  EXPECT_GE(s1.hits, s0.hits + 1);
}

TEST(StubCacheTest, RejectsEnumPrograms) {
  // An enum field forces LoadEnum, which the C generator refuses — the
  // cache must answer nullptr (fallback tier) rather than compile.
  Graph ga, gb;
  ImageLayout il;
  il.names = {""};
  ImageLayout::Node root;
  root.kind = LK::Record;
  root.kids_off = 0;
  root.kids_len = 1;
  il.nodes.push_back(root);
  ImageLayout::Node e;
  e.kind = LK::Enum;
  e.width = 4;
  e.offset = 0;
  e.enum_off = 0;
  e.enum_len = 2;
  il.enum_pool = {10, 20};
  il.kids.push_back(1);
  il.nodes.push_back(e);
  il.size = 4;
  auto layout = std::make_shared<const ImageLayout>(std::move(il));
  Ref a = ga.record({ga.integer(0, 1)});
  Ref b = gb.record({gb.integer(0, 1)});
  auto full = compare::compare_full(ga, a, gb, b);
  ASSERT_EQ(full.verdict, compare::Verdict::Equivalent);
  Program prog = planir::compile_native_marshal(full.to_right.plan,
                                                full.to_right.root, gb, b,
                                                layout);
  planir::require_valid(prog);
  EXPECT_EQ(codegen::StubCache::process().get(prog), nullptr);
  EXPECT_TRUE(codegen::StubCache::key_of(prog).empty());
}

}  // namespace
}  // namespace mbird
