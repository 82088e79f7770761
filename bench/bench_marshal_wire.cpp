// E3 "collab messaging" — wire throughput for the §5 message workload.
//
// Marshals/unmarshals representative collaborative-session messages with
// the range-aware wire format, sweeping payload size (points per stroke).
// Also reports bytes per message so the range-aware integer widths are
// visible (a tag that fits a byte costs a byte).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "annotate/script.hpp"
#include "codegen/stubcache.hpp"
#include "compare/compare.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "planir/planir.hpp"
#include "runtime/conform.hpp"
#include "runtime/convert.hpp"
#include "runtime/layout.hpp"
#include "runtime/threaded.hpp"
#include "wire/wire.hpp"

// Heap-allocation counter for the marshaling benchmarks: the zero-copy
// native path's whole point is not materializing Values, so allocs/op is
// the second axis next to wall time.
std::atomic<uint64_t> g_allocs{0};

// The malloc/free-calling forms stay out of line: once GCC inlines both
// sides into one caller it pairs malloc with operator delete (or operator
// new with free) and warns -Wmismatched-new-delete. Every other form
// forwards to them.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace {

using namespace mbird;
using runtime::Value;

struct World {
  stype::Module mod{stype::Lang::Java, ""};
  mtype::Graph g;
  mtype::Ref stroke = mtype::kNullRef;
  mtype::Ref cursor = mtype::kNullRef;

  World() {
    DiagnosticEngine diags;
    mod = javasrc::parse_java(
        "class Color { int rgb; }\n"
        "class Pt { float x; float y; }\n"
        "class StrokeStyle { Color color; float width; }\n"
        "class SiteId { int id; }\n"
        "class UserInfo { SiteId site; char initial; }\n"
        "class CursorPos { UserInfo user; Pt at; }\n"
        "class MsgCreateStroke { StrokeStyle style; Pt[] points; }\n"
        "class MsgCursor { CursorPos pos; }\n",
        "Msgs.java", diags);
    annotate::run_script(
        "annotate \"Msg*\" byvalue;\n"
        "annotate MsgCreateStroke.style notnull;\n"
        "annotate MsgCreateStroke.points.element notnull;\n"
        "annotate MsgCursor.pos notnull;\n"
        "annotate \"CursorPos.*\" notnull;\n"
        "annotate \"UserInfo.*\" notnull;\n"
        "annotate \"StrokeStyle.*\" notnull;\n"
        "annotate SiteId.id range 0 65535;\n"
        "annotate Color.rgb range 0 16777215;\n",
        "m.mba", mod, diags);
    stroke = lower::lower_decl(mod, g, "MsgCreateStroke", diags);
    cursor = lower::lower_decl(mod, g, "MsgCursor", diags);
    if (diags.has_errors()) {
      fprintf(stderr, "%s\n", diags.summary().c_str());
      abort();
    }
  }
};

World& world() {
  static World w;
  return w;
}

Value make_stroke(int points) {
  std::vector<Value> pts;
  pts.reserve(static_cast<size_t>(points));
  for (int i = 0; i < points; ++i) {
    pts.push_back(Value::record({Value::real(i * 0.25), Value::real(i * 0.5)}));
  }
  Value style = Value::record(
      {Value::record({Value::integer(0x336699)}), Value::real(2.0)});
  return Value::record({style, Value::list(std::move(pts))});
}

void BM_EncodeStroke(benchmark::State& state) {
  World& w = world();
  Value msg = make_stroke(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    auto buf = wire::encode(w.g, w.stroke, msg);
    bytes = buf.size();
    benchmark::DoNotOptimize(buf);
  }
  state.counters["msg_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_EncodeStroke)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DecodeStroke(benchmark::State& state) {
  World& w = world();
  Value msg = make_stroke(static_cast<int>(state.range(0)));
  auto buf = wire::encode(w.g, w.stroke, msg);
  for (auto _ : state) {
    Value v = wire::decode(w.g, w.stroke, buf);
    benchmark::DoNotOptimize(v);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_DecodeStroke)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RoundtripCursor(benchmark::State& state) {
  // The small, frequent message of a collaborative session.
  World& w = world();
  Value msg = Value::record({Value::record(
      {Value::record({Value::record({Value::integer(7)}), Value::character('a')}),
       Value::record({Value::real(10.5), Value::real(-3.25)})})});
  if (!runtime::conforms(w.g, w.cursor, msg)) {
    state.SkipWithError("cursor message does not conform");
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    auto buf = wire::encode(w.g, w.cursor, msg);
    bytes = buf.size();
    Value v = wire::decode(w.g, w.cursor, buf);
    benchmark::DoNotOptimize(v);
  }
  state.counters["msg_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoundtripCursor);

// ---- zero-copy native marshaling -------------------------------------------
//
// The E4 workload: a record-heavy telemetry struct of byte-wide fields (the
// shape BlockCopy specializes on a little-endian host) plus one ranged
// 16-bit sequence number that forces a genuine converted field. The
// reference rows run the tree paths:
//   * TwoPhaseFromHeap — read_image -> Converter -> wire::encode;
//   * TwoPhaseFromValue — Converter -> wire::encode on a pre-read Value.

struct NativeWorld {
  std::shared_ptr<const runtime::ImageLayout> layout;
  mtype::Graph g;
  mtype::Ref msg = mtype::kNullRef;
  plan::PlanGraph plan;
  plan::PlanRef root = plan::kNullPlan;
  planir::Program native;
  planir::Program fused;
  runtime::NativeHeap heap;
  uint64_t base = 0;

  // struct Telemetry { struct Block { uint8_t b[16]; } blk[4]; uint16_t seq; }
  // flattened: 4 records x 16 byte fields, then the ranged seq.
  NativeWorld() {
    using LK = runtime::ImageLayout::K;
    runtime::ImageLayout il;
    il.names = {""};
    il.nodes.emplace_back();  // root record, filled below
    std::vector<uint32_t> root_kids;
    std::vector<mtype::Ref> groups;
    uint32_t off = 0;
    for (int grp = 0; grp < 4; ++grp) {
      uint32_t rec = static_cast<uint32_t>(il.nodes.size());
      root_kids.push_back(rec);
      il.nodes.emplace_back();
      il.nodes[rec].kind = LK::Record;
      std::vector<uint32_t> kids;
      std::vector<mtype::Ref> fields;
      for (int i = 0; i < 16; ++i) {
        uint32_t leaf = static_cast<uint32_t>(il.nodes.size());
        kids.push_back(leaf);
        il.nodes.emplace_back();
        il.nodes[leaf].kind = LK::UInt;
        il.nodes[leaf].offset = off++;
        il.nodes[leaf].width = 1;
        fields.push_back(g.integer(0, 255));
      }
      il.nodes[rec].kids_off = static_cast<uint32_t>(il.kids.size());
      il.nodes[rec].kids_len = static_cast<uint32_t>(kids.size());
      il.kids.insert(il.kids.end(), kids.begin(), kids.end());
      groups.push_back(g.record(std::move(fields)));
    }
    uint32_t seq = static_cast<uint32_t>(il.nodes.size());
    root_kids.push_back(seq);
    il.nodes.emplace_back();
    il.nodes[seq].kind = LK::UInt;
    il.nodes[seq].offset = off;
    il.nodes[seq].width = 2;
    il.nodes[seq].has_lo = il.nodes[seq].has_hi = true;
    il.nodes[seq].lo = 0;
    il.nodes[seq].hi = 9999;
    groups.push_back(g.integer(0, 9999));
    off += 2;
    il.nodes[0].kind = LK::Record;
    il.nodes[0].kids_off = static_cast<uint32_t>(il.kids.size());
    il.nodes[0].kids_len = static_cast<uint32_t>(root_kids.size());
    il.kids.insert(il.kids.end(), root_kids.begin(), root_kids.end());
    il.size = off;
    msg = g.record(std::move(groups));
    layout = std::make_shared<const runtime::ImageLayout>(std::move(il));

    auto full = compare::compare_full(g, msg, g, msg);
    if (full.verdict != compare::Verdict::Equivalent) abort();
    plan = std::move(full.to_right.plan);
    root = full.to_right.root;
    native = planir::compile_native_marshal(plan, root, g, msg, layout);
    fused = planir::compile_marshal(plan, root, g, msg);
    if (!planir::verify(native).empty() || !planir::verify(fused).empty()) {
      abort();
    }

    base = heap.alloc(layout->size, 2);
    for (uint32_t i = 0; i < 64; ++i) {
      heap.write_uint(base + i, 1, 0x40u + (i % 26));
    }
    heap.write_uint(base + 64, 2, 1234);
  }

  [[nodiscard]] size_t block_copies() const {
    size_t n = 0;
    for (const auto& ins : native.code) {
      n += ins.op == planir::OpCode::BlockCopy ? 1 : 0;
    }
    return n;
  }
};

NativeWorld& native_world() {
  static NativeWorld w;
  return w;
}

void BM_MarshalTwoPhaseFromHeap(benchmark::State& state) {
  NativeWorld& w = native_world();
  runtime::Converter conv(w.plan);
  uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Value v = runtime::read_image(*w.layout, 0, w.heap, w.base);
    auto buf = wire::encode(w.g, w.msg, conv.apply(w.root, v));
    benchmark::DoNotOptimize(buf);
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_MarshalTwoPhaseFromHeap);

void BM_MarshalTwoPhaseFromValue(benchmark::State& state) {
  NativeWorld& w = native_world();
  runtime::Converter conv(w.plan);
  Value v = runtime::read_image(*w.layout, 0, w.heap, w.base);
  uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto buf = wire::encode(w.g, w.msg, conv.apply(w.root, v));
    benchmark::DoNotOptimize(buf);
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_MarshalTwoPhaseFromValue);

// ---- engine tiers on the same workload --------------------------------------
//
// The PlanIR engine and the compiled stubs over the E4 telemetry shape.
// FusedThreaded vs TwoPhaseFromValue (same pre-read Value) is the pair
// bench/check_engine_tiers.sh gates on; NativeThreaded vs TwoPhaseFromHeap
// is the native acceptance ratio in bench/run_benches.sh; NativeCompiled
// shows the remaining headroom down to a dlopen'd C stub.

void BM_MarshalFusedThreaded(benchmark::State& state) {
  NativeWorld& w = native_world();
  runtime::ThreadedEngine te(w.fused);
  Value v = runtime::read_image(*w.layout, 0, w.heap, w.base);
  std::vector<uint8_t> buf;
  buf.reserve(256);
  uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    buf.clear();
    te.marshal_into(v, buf);
    benchmark::DoNotOptimize(buf);
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) /
      static_cast<double>(state.iterations());
  state.counters["computed_goto"] =
      runtime::ThreadedEngine::computed_goto() ? 1.0 : 0.0;
}
BENCHMARK(BM_MarshalFusedThreaded);

void BM_MarshalNativeThreaded(benchmark::State& state) {
  NativeWorld& w = native_world();
  runtime::ThreadedEngine te(w.native);
  std::vector<uint8_t> buf;
  buf.reserve(256);
  uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    buf.clear();
    te.marshal_native_into(w.heap, w.base, buf);
    benchmark::DoNotOptimize(buf);
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) /
      static_cast<double>(state.iterations());
  state.counters["simd_blocks_per_op"] =
      static_cast<double>(te.stats().simd_blocks) /
      static_cast<double>(state.iterations());
  state.counters["block_copies"] = static_cast<double>(w.block_copies());
}
BENCHMARK(BM_MarshalNativeThreaded);

void BM_MarshalNativeCompiled(benchmark::State& state) {
  NativeWorld& w = native_world();
  auto stub = codegen::StubCache::process().get(w.native);
  if (stub == nullptr) {
    state.SkipWithError("no compiled stub (missing cc or ineligible program)");
    return;
  }
  std::vector<uint8_t> buf(stub->wire_size());
  const uint8_t* img = w.heap.at(w.base, w.layout->size);
  uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    size_t n = stub->fn()(img, buf.data());
    if (n == static_cast<size_t>(-1)) {
      state.SkipWithError("stub signalled a marshal fault");
      return;
    }
    benchmark::DoNotOptimize(buf);
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_MarshalNativeCompiled);

}  // namespace
