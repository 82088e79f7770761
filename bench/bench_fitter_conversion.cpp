// E1 "fitter overhead" — the benchmark the paper promises in §6:
//   "We are also engaged in establishing a realistic set of runtime
//    performance benchmarks to determine whether our two-declarations
//    approach adds any overhead compared to competing technologies (we do
//    not anticipate that it will)."
//
// Converts a PointVector of n points from Java-heap form to native C memory
// three ways:
//   hand      — hand-written converter (the ideal; what a programmer would
//               code by hand against both representations)
//   mbird     — the Mockingbird stub: reader -> coercion plan -> writer
//   idl2hop   — the IDL-compiler architecture: app types are first copied
//               into the *imposed* bindings (extra materialization through
//               a second heap), and only then converted to native form
//
// Expected shape: mbird within a small constant of hand; idl2hop pays the
// extra copy (~1.5-2x mbird).
#include <benchmark/benchmark.h>

#include "annotate/script.hpp"
#include "baseline/baseline.hpp"
#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "idl/idlparser.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "planir/planir.hpp"
#include "runtime/convert.hpp"
#include "runtime/cside.hpp"
#include "runtime/jside.hpp"
#include "runtime/threaded.hpp"
#include "wire/wire.hpp"

namespace {

using namespace mbird;
using runtime::JHeap;
using runtime::JRef;
using runtime::JSlot;
using runtime::NativeHeap;
using runtime::Value;

struct World {
  stype::Module java{stype::Lang::Java, ""};
  stype::Module c{stype::Lang::C, ""};
  stype::Module idl{stype::Lang::Idl, ""};
  stype::Module imposed{stype::Lang::Java, ""};

  mtype::Graph gj, gc, gi;
  mtype::Ref rj = mtype::kNullRef;      // Java PointVector (app type)
  mtype::Ref rc = mtype::kNullRef;      // C counted points struct
  mtype::Ref rimp = mtype::kNullRef;    // imposed Point[] typedef
  compare::Result app_to_c;             // mbird plan
  compare::Result app_to_imposed;       // first hop of the IDL route
  compare::Result imposed_to_c;         // second hop

  World() {
    DiagnosticEngine diags;
    java = javasrc::parse_java(
        "public class Point { private float x; private float y; }\n"
        "public class PointVector extends java.util.Vector;\n",
        "App.java", diags);
    annotate::run_script(
        "annotate PointVector element Point notnull-elements;\n", "j.mba",
        java, diags);

    c = cfront::parse_c(
        "typedef float point[2];\n"
        "struct points { int n; point *coords; };\n",
        "pts.h", diags);
    annotate::run_script("annotate points.coords length field n;\n", "c.mba",
                         c, diags);

    idl = idl::parse_idl(
        "struct Point { float x; float y; };\n"
        "typedef sequence<Point> PointVector;\n",
        "t.idl", diags);
    imposed = baseline::imposed_java_from_idl(idl, diags);
    // Imposed element references: annotate as not-null so the hop is
    // structurally identical (the IDL mapping cannot send nulls either).
    annotate::run_script("annotate PointVector.element notnull;\n", "imp.mba",
                         imposed, diags);

    rj = lower::lower_decl(java, gj, "PointVector", diags);
    rc = lower::lower_decl(c, gc, "points", diags);
    rimp = lower::lower_decl(imposed, gi, "PointVector", diags);
    if (diags.has_errors()) {
      fprintf(stderr, "%s\n", diags.summary().c_str());
      abort();
    }

    // The C struct is Record(list); the Java side is the bare list. Wrap
    // the Java list in a synthetic record for a like-for-like plan.
    mtype::Ref rj_rec = gj.record({rj});
    mtype::Ref rimp_rec = gi.record({rimp});
    app_to_c = compare::compare(gj, rj_rec, gc, rc, {});
    app_to_imposed = compare::compare(gj, rj_rec, gi, rimp_rec, {});
    imposed_to_c = compare::compare(gi, rimp_rec, gc, rc, {});
    if (!app_to_c.ok || !app_to_imposed.ok || !imposed_to_c.ok) {
      fprintf(stderr, "plans failed: %s | %s | %s\n",
              app_to_c.mismatch.to_string().c_str(),
              app_to_imposed.mismatch.to_string().c_str(),
              imposed_to_c.mismatch.to_string().c_str());
      abort();
    }
    rj_wrapped = rj_rec;
  }

  mtype::Ref rj_wrapped = mtype::kNullRef;
};

World& world() {
  static World w;
  return w;
}

/// Application data: n Points in a PointVector on the Java heap.
JRef make_point_vector(JHeap& heap, int n) {
  JRef pv = heap.alloc("PointVector");
  heap.at(pv).elems.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    JRef p = heap.alloc("Point", 2);
    heap.at(p).fields[0] = JSlot::scalar(Value::real(i * 0.5));
    heap.at(p).fields[1] = JSlot::scalar(Value::real(i * 2.0 + 1));
    heap.at(pv).elems.push_back(JSlot::reference(p));
  }
  return pv;
}

void BM_HandWritten(benchmark::State& state) {
  World& w = world();
  (void)w;
  int n = static_cast<int>(state.range(0));
  JHeap jheap;
  JRef pv = make_point_vector(jheap, n);

  for (auto _ : state) {
    NativeHeap cheap;
    // What a programmer would write by hand: walk the vector, copy floats.
    const auto& elems = jheap.at(pv).elems;
    uint64_t strct = cheap.alloc(16, 8);
    uint64_t buf = cheap.alloc(static_cast<uint64_t>(n) * 8, 4);
    cheap.write_uint(strct, 4, static_cast<uint64_t>(n));
    cheap.write_ptr(strct + 8, buf);
    for (int i = 0; i < n; ++i) {
      const runtime::JObject& p = jheap.at(elems[static_cast<size_t>(i)].ref);
      cheap.write_f32(buf + static_cast<uint64_t>(i) * 8,
                      static_cast<float>(p.fields[0].prim.as_real()));
      cheap.write_f32(buf + static_cast<uint64_t>(i) * 8 + 4,
                      static_cast<float>(p.fields[1].prim.as_real()));
    }
    benchmark::DoNotOptimize(cheap);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HandWritten)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

void BM_MockingbirdStub(benchmark::State& state) {
  World& w = world();
  int n = static_cast<int>(state.range(0));
  JHeap jheap;
  JRef pv = make_point_vector(jheap, n);

  runtime::JReader reader(w.java, jheap);
  runtime::Converter conv(w.app_to_c.plan);
  runtime::LayoutEngine layout(w.c);

  for (auto _ : state) {
    NativeHeap cheap;
    runtime::CWriter writer(layout, cheap);
    Value app = Value::record(
        {reader.read(w.java.find("PointVector"), {}, JSlot::reference(pv))});
    Value c_shaped = conv.apply(w.app_to_c.root, app);
    writer.materialize(w.c.find("points"), {}, c_shaped);
    benchmark::DoNotOptimize(cheap);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MockingbirdStub)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

void BM_IdlImposedTwoHop(benchmark::State& state) {
  World& w = world();
  int n = static_cast<int>(state.range(0));
  JHeap jheap;
  JRef pv = make_point_vector(jheap, n);

  runtime::JReader reader(w.java, jheap);
  runtime::Converter hop1(w.app_to_imposed.plan);
  runtime::Converter hop2(w.imposed_to_c.plan);
  runtime::LayoutEngine layout(w.c);

  for (auto _ : state) {
    NativeHeap cheap;
    runtime::CWriter writer(layout, cheap);
    // Hop 1: application types -> imposed bindings, *materialized* in a
    // second heap (this is the copy the IDL-compiler architecture forces
    // application code to perform before anything can cross).
    Value app = Value::record(
        {reader.read(w.java.find("PointVector"), {}, JSlot::reference(pv))});
    Value imposed_shaped = hop1.apply(w.app_to_imposed.root, app);
    JHeap imposed_heap;
    runtime::JWriter imposed_writer(w.imposed, imposed_heap);
    JSlot imposed_obj = imposed_writer.write(
        w.imposed.find("PointVector"), {}, imposed_shaped.at(0));
    // Hop 2: imposed bindings -> native form (the IDL compiler's own stub).
    runtime::JReader imposed_reader(w.imposed, imposed_heap);
    Value back = Value::record(
        {imposed_reader.read(w.imposed.find("PointVector"), {}, imposed_obj)});
    Value c_shaped = hop2.apply(w.imposed_to_c.root, back);
    writer.materialize(w.c.find("points"), {}, c_shaped);
    benchmark::DoNotOptimize(cheap);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IdlImposedTwoHop)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

// ---- PlanIR: flat bytecode vs the tree interpreter --------------------------
//
// The same PointVector workload through the compiled PlanIR program
// (BM_PlanIRStub), plus a record/choice-heavy workload where dispatch cost
// dominates: each list element carries a two-level choice (4 x 6 = 24
// flattened arms). The tree interpreter re-scans the arm list per layer;
// the engine walks the precompiled trie. The fused pair measures marshaling
// straight to wire bytes against convert-then-encode. All three PlanIR rows
// run on runtime::ThreadedEngine.

void BM_PlanIRStub(benchmark::State& state) {
  World& w = world();
  static const planir::Program prog = [] {
    planir::Program p = planir::compile(world().app_to_c.plan,
                                        world().app_to_c.root);
    planir::require_valid(p);
    return p;
  }();
  int n = static_cast<int>(state.range(0));
  JHeap jheap;
  JRef pv = make_point_vector(jheap, n);

  runtime::JReader reader(w.java, jheap);
  runtime::ThreadedEngine engine(prog);
  runtime::LayoutEngine layout(w.c);

  for (auto _ : state) {
    NativeHeap cheap;
    runtime::CWriter writer(layout, cheap);
    Value app = Value::record(
        {reader.read(w.java.find("PointVector"), {}, JSlot::reference(pv))});
    Value c_shaped = engine.apply(app);
    writer.materialize(w.c.find("points"), {}, c_shaped);
    benchmark::DoNotOptimize(cheap);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlanIRStub)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

struct ChoiceWorld {
  mtype::Graph ga, gb;
  mtype::Ref a = mtype::kNullRef, b = mtype::kNullRef;
  compare::Result res;
  planir::Program convert_prog;
  planir::Program marshal_prog;

  ChoiceWorld() {
    a = build(ga);
    b = build(gb);
    res = compare::compare(ga, a, gb, b, {});
    if (!res.ok) {
      fprintf(stderr, "choice plan failed: %s\n",
              res.mismatch.to_string().c_str());
      abort();
    }
    convert_prog = planir::compile(res.plan, res.root);
    planir::require_valid(convert_prog);
    marshal_prog = planir::compile_marshal(res.plan, res.root, gb, b);
    planir::require_valid(marshal_prog);
  }

  // Record(header int, list of Record(Choice(6 x 6 x 6 records), char)):
  // 216 flattened arms behind three choice layers. Arm ranges differ so the
  // comparer maps arms one-to-one.
  static mtype::Ref build(mtype::Graph& g) {
    std::vector<mtype::Ref> outer;
    for (int i = 0; i < 6; ++i) {
      std::vector<mtype::Ref> mid;
      for (int j = 0; j < 6; ++j) {
        std::vector<mtype::Ref> inner;
        for (int k = 0; k < 6; ++k) {
          inner.push_back(g.record(
              {g.integer(0, 1000 + (i * 6 + j) * 6 + k), g.integer(-50, 50)}));
        }
        mid.push_back(g.choice(std::move(inner)));
      }
      outer.push_back(g.choice(std::move(mid)));
    }
    mtype::Ref ch = g.choice(std::move(outer));
    mtype::Ref elem =
        g.record({ch, g.character(stype::Repertoire::Latin1)});
    return g.record({g.integer(0, 1 << 20), g.list_of(elem)});
  }

  static Value make_value(int n) {
    std::vector<Value> elems;
    elems.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Value rec = Value::record(
          {Value::integer(i % 900), Value::integer(i % 101 - 50)});
      Value ch = Value::choice(
          static_cast<uint32_t>(i % 6),
          Value::choice(static_cast<uint32_t>((i * 5 + 1) % 6),
                        Value::choice(static_cast<uint32_t>((i * 11 + 2) % 6),
                                      std::move(rec))));
      elems.push_back(Value::record(
          {std::move(ch), Value::character('a' + i % 26)}));
    }
    return Value::record({Value::integer(n), Value::list(std::move(elems))});
  }
};

ChoiceWorld& choice_world() {
  static ChoiceWorld w;
  return w;
}

void BM_TreeChoiceHeavy(benchmark::State& state) {
  ChoiceWorld& w = choice_world();
  int n = static_cast<int>(state.range(0));
  Value v = ChoiceWorld::make_value(n);
  runtime::Converter conv(w.res.plan);
  for (auto _ : state) {
    Value out = conv.apply(w.res.root, v);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TreeChoiceHeavy)->Arg(64)->Arg(1024)->Arg(8192);

void BM_PlanIRChoiceHeavy(benchmark::State& state) {
  ChoiceWorld& w = choice_world();
  int n = static_cast<int>(state.range(0));
  Value v = ChoiceWorld::make_value(n);
  runtime::ThreadedEngine engine(w.convert_prog);
  for (auto _ : state) {
    Value out = engine.apply(v);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PlanIRChoiceHeavy)->Arg(64)->Arg(1024)->Arg(8192);

void BM_ConvertThenMarshal(benchmark::State& state) {
  ChoiceWorld& w = choice_world();
  int n = static_cast<int>(state.range(0));
  Value v = ChoiceWorld::make_value(n);
  runtime::Converter conv(w.res.plan);
  for (auto _ : state) {
    std::vector<uint8_t> bytes =
        wire::encode(w.gb, w.b, conv.apply(w.res.root, v));
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ConvertThenMarshal)->Arg(64)->Arg(1024)->Arg(8192);

void BM_FusedConvertMarshal(benchmark::State& state) {
  ChoiceWorld& w = choice_world();
  int n = static_cast<int>(state.range(0));
  Value v = ChoiceWorld::make_value(n);
  runtime::ThreadedEngine engine(w.marshal_prog);
  for (auto _ : state) {
    std::vector<uint8_t> bytes = engine.marshal(v);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FusedConvertMarshal)->Arg(64)->Arg(1024)->Arg(8192);

}  // namespace
