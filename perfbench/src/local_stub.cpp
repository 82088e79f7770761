// local_stub: the paper's §6 E1 question. A Mockingbird local stub
// converts a Java-heap PointVector of n = 16384 points into the C
// `struct points { int n; point *coords; }` image:
//
//   JReader::read -> Converter::apply -> CWriter::materialize
//
// One operation is one stub invocation into a fresh native heap. Every
// result is checked against the image a hand-written converter produces
// for the same seeded points. After its measured halves, the traced run
// times the hand-written converter on its own, as the reference.
#include <algorithm>
#include <cstring>

#include "annotate/script.hpp"
#include "cfront/cparser.hpp"
#include "compare/compare.hpp"
#include "javasrc/javaparser.hpp"
#include "lower/lower.hpp"
#include "runtime/convert.hpp"
#include "runtime/cside.hpp"
#include "runtime/jside.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace mbird;
using runtime::JHeap;
using runtime::JRef;
using runtime::JSlot;
using runtime::NativeHeap;
using runtime::Value;

/// Both declarations, lowered and compared once; the application data on
/// the Java heap; the reference image.
struct StubWorld {
  DiagnosticEngine diags;
  stype::Module java{stype::Lang::Java, ""};
  stype::Module c{stype::Lang::C, ""};
  mtype::Graph gj, gc;
  compare::Result plan;
  JHeap jheap;
  JRef pv = 0;
  int n = 0;
  std::vector<uint8_t> expected;  // hand-written coords buffer bytes

  StubWorld(int points, uint64_t seed) : n(points) {
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
    mtype::Ref rj = lower::lower_decl(java, gj, "PointVector", diags);
    mtype::Ref rc = lower::lower_decl(c, gc, "points", diags);
    if (diags.has_errors()) {
      throw std::runtime_error("local_stub: " + diags.summary());
    }
    // The C struct is Record(list); wrap the Java list to match.
    plan = compare::compare(gj, gj.record({rj}), gc, rc, {});
    if (!plan.ok) {
      throw std::runtime_error("local_stub: no plan: " +
                               plan.mismatch.to_string());
    }

    Rng rng(seed ^ 0x706f696e7473ULL);  // "points"
    pv = jheap.alloc("PointVector");
    jheap.at(pv).elems.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      // Quarter steps in [-2^17, 2^17): exact in float and double.
      auto coord = [&] {
        return static_cast<double>(static_cast<int64_t>(rng.below(1 << 20)) -
                                   (1 << 19)) *
               0.25;
      };
      JRef p = jheap.alloc("Point", 2);
      jheap.at(p).fields[0] = JSlot::scalar(Value::real(coord()));
      jheap.at(p).fields[1] = JSlot::scalar(Value::real(coord()));
      jheap.at(pv).elems.push_back(JSlot::reference(p));
    }
    NativeHeap ref;
    const uint64_t buf = hand_convert(ref);
    const uint8_t* b = ref.at(buf, static_cast<uint64_t>(n) * 8);
    expected.assign(b, b + static_cast<size_t>(n) * 8);
  }

  /// What a programmer would write by hand: walk the vector, copy floats.
  /// Returns the coords buffer address.
  uint64_t hand_convert(NativeHeap& cheap) const {
    const auto& elems = jheap.at(pv).elems;
    const uint64_t strct = cheap.alloc(16, 8);
    const uint64_t buf = cheap.alloc(static_cast<uint64_t>(n) * 8, 4);
    cheap.write_uint(strct, 4, static_cast<uint64_t>(n));
    cheap.write_ptr(strct + 8, buf);
    for (int i = 0; i < n; ++i) {
      const runtime::JObject& p = jheap.at(elems[static_cast<size_t>(i)].ref);
      const uint64_t at = buf + static_cast<uint64_t>(i) * 8;
      cheap.write_f32(at, static_cast<float>(p.fields[0].prim.as_real()));
      cheap.write_f32(at + 4, static_cast<float>(p.fields[1].prim.as_real()));
    }
    return buf;
  }

  /// The stub's image equals the hand-written one: same count, same
  /// coordinate bytes.
  bool matches(const NativeHeap& heap, uint64_t strct) const {
    if (heap.read_uint(strct, 4) != static_cast<uint64_t>(n)) return false;
    const uint64_t buf = heap.read_ptr(strct + 8);
    return std::memcmp(heap.at(buf, expected.size()), expected.data(),
                       expected.size()) == 0;
  }
};

/// The stub's runtime pieces over one world.
struct Stub {
  explicit Stub(StubWorld& world)
      : w(world),
        reader(world.java, world.jheap),
        conv(world.plan.plan),
        layout(world.c),
        jtype(world.java.find("PointVector")),
        ctype(world.c.find("points")) {}

  StubWorld& w;
  runtime::JReader reader;
  runtime::Converter conv;
  runtime::LayoutEngine layout;
  stype::Stype* jtype;
  stype::Stype* ctype;

  /// Stub invocations for `budget` seconds, each into a fresh native heap
  /// and checked against the hand-written image.
  Slices measure(double budget, Result& r) {
    return measure_rounds(budget, [&](Measurement& m) {
      // A round is a short batch of invocations, so the clock is read
      // rarely compared with the work.
      for (int k = 0; k < 8; ++k) {
        const uint64_t op = next_op_id();
        NativeHeap cheap;
        uint64_t strct = 0;
        bool ok = true;
        const uint64_t t0 = mono_ns();
        try {
          Span s("op", op);
          Value app;
          {
            Span l("jside.read", op);
            app = Value::record(
                {reader.read(jtype, {}, JSlot::reference(w.pv))});
          }
          Value shaped;
          {
            Span l("runtime.convert", op);
            shaped = conv.apply(w.plan.root, app);
          }
          Span l("cside.materialize", op);
          runtime::CWriter writer(layout, cheap);
          strct = writer.materialize(ctype, {}, shaped);
        } catch (const std::exception& e) {
          ok = false;
          r.check(false, std::string("stub threw: ") + e.what());
        }
        const double us = static_cast<double>(mono_ns() - t0) / 1000.0;
        if (ok && w.matches(cheap, strct)) {
          m.lat.ok(us);
        } else {
          m.lat.fail();
          r.check(!ok, "stub image differs from the hand-written one");
        }
      }
    });
  }
};

int stub_points(const RunConfig& cfg) { return cfg.smoke ? 256 : 16384; }

/// The per-layer stub metrics from the traced stub calls in `spans`, then
/// the reference: as many hand-written conversions as traced stub calls,
/// untraced and after the caller's measured phases.
void report_stub_layers(Result& r, const std::vector<SpanRecord>& spans,
                        const StubWorld& w) {
  const auto t = totals_by_name(spans);
  auto mean_ns = [&](const char* name) {
    auto it = t.find(name);
    return it == t.end() ? 0.0
                         : ratio(static_cast<double>(it->second.total_ns),
                                 static_cast<double>(it->second.count));
  };
  r.set("jside.read_ns", mean_ns("jside.read"));
  r.set("runtime.convert_ns", mean_ns("runtime.convert"));
  r.set("cside.materialize_ns", mean_ns("cside.materialize"));
  const auto ops = t.find("op");
  const uint64_t hand_reps = ops == t.end() ? 1 : std::max<uint64_t>(
                                                      1, ops->second.count);
  uint64_t hand_ns = 0;
  for (uint64_t i = 0; i < hand_reps; ++i) {
    NativeHeap href;
    const uint64_t t0 = mono_ns();
    (void)w.hand_convert(href);
    hand_ns += mono_ns() - t0;
  }
  const double hand_mean =
      static_cast<double>(hand_ns) / static_cast<double>(hand_reps);
  r.set("hand.convert_ns", hand_mean);
  r.set("stub_over_hand_x", ratio(mean_ns("op"), hand_mean));
}

}  // namespace

Result run_local_stub(const RunConfig& cfg) {
  Result r;
  std::vector<double> setup;
  auto make = [&] {
    return std::make_unique<StubWorld>(stub_points(cfg), cfg.seed);
  };
  const auto w = timed_setup(cfg, setup, make);
  Stub stub(*w);
  auto measure = [&](double budget) { return stub.measure(budget, r); };

  (void)measure(warmup_s(cfg));
  if (!cfg.trace) {
    Slices s = measure(cfg.seconds);
    const EndToEnd e = end_to_end(s);
    timed_setup_after(cfg, setup, make);
    report_end_to_end(r, s, e, setup);
    return r;
  }
  const auto spans = traced_halves(cfg, r, measure);
  report_stub_layers(r, spans, *w);
  r.set("trace.span_coverage_pct",
        median_coverage_pct(spans, "op",
                            {"jside.read", "runtime.convert",
                             "cside.materialize"}));
  return r;
}

void measure_stub_layers(const RunConfig& cfg, double budget_s, Result& r) {
  StubWorld w(stub_points(cfg), cfg.seed);
  Stub stub(w);
  (void)stub.measure(warmup_s(cfg), r);
  const uint64_t from = mono_ns();
  Tracer::get().set_enabled(true);
  const Slices traced = stub.measure(budget_s, r);
  Tracer::get().set_enabled(false);
  r.attempted += traced.attempted();
  r.failed += traced.failed();
  std::vector<SpanRecord> spans;
  for (const SpanRecord& s : Tracer::get().collect()) {
    if (s.t0 >= from) spans.push_back(s);
  }
  report_stub_layers(r, spans, w);
}

}  // namespace perfbench
