#include "service/service.hpp"

#include <memory>
#include <utility>

#include "codegen/stubcache.hpp"
#include "lower/lower.hpp"
#include "obs/metrics.hpp"
#include "planir/planir.hpp"
#include "store/cachestore.hpp"

namespace mbird::service {

namespace {

using stype::Module;

Module* module_of(std::vector<Module>& modules, const std::string& name) {
  for (auto& m : modules) {
    if (m.name() == name) return &m;
  }
  return nullptr;
}

// Same resolution the CLI commands use: "module:decl" or a bare name
// (possibly "Class.method") searched across modules by class component.
Module* find_decl(std::vector<Module>& modules, const std::string& spec,
                  std::string* decl_name) {
  auto colon = spec.find(':');
  if (colon != std::string::npos) {
    *decl_name = spec.substr(colon + 1);
    return module_of(modules, spec.substr(0, colon));
  }
  *decl_name = spec;
  std::string head = spec.substr(0, spec.find('.'));
  for (auto& m : modules) {
    if (m.find(head) != nullptr) return &m;
  }
  return nullptr;
}

// The compile-side waterfall of one pair that missed the memo fast path
// (DESIGN.md §4h): comparer walk (cache hits and publishing included),
// PlanIR compile + verify, and the program memo insert with its store
// write-through. Behind metrics_on(), like every timed instrument.
struct CompileMetrics {
  obs::Histogram& compare_ns = obs::histogram("service.compile.compare_ns");
  obs::Histogram& planir_ns = obs::histogram("service.compile.planir_ns");
  obs::Histogram& persist_ns =
      obs::histogram("service.compile.program_persist_ns");
};
CompileMetrics& compile_metrics() {
  static CompileMetrics m;
  return m;
}

}  // namespace

PairOutcome compile_pair(const mtype::Graph& ga, mtype::Ref ra,
                         const mtype::Graph& gb, mtype::Ref rb,
                         const compare::Options& base,
                         mtype::CanonId left_strict_id,
                         mtype::CanonId right_strict_id,
                         compare::CrossCache::WriteBuffer* wb) {
  PairOutcome o;
  compare::CrossCache* cross = base.cross;
  const bool keyed = cross != nullptr &&
                     left_strict_id != mtype::kNoCanon &&
                     right_strict_id != mtype::kNoCanon;
  // The program memo keys on the driver's base fingerprint (mode as
  // configured, Equivalence by default) regardless of which mode's plan
  // produced the program — the comparer is a deterministic function of
  // the strict-id pair, so one key per pair suffices.
  const compare::CrossCache::Key prog_key{
      left_strict_id, right_strict_id, compare::CrossCache::fingerprint(base)};
  auto cache_find = [&](const compare::CrossCache::Key& k, const void* lg,
                        uint64_t lv, const void* rg, uint64_t rv) {
    return wb != nullptr ? wb->find(k, lg, lv, rg, rv)
                         : cross->find(k, lg, lv, rg, rv);
  };
  auto prog_find = [&](const compare::CrossCache::Key& k) {
    return wb != nullptr ? wb->find_program(k) : cross->find_program(k);
  };

  if (keyed) {
    // Memo fast path: replay compare_full()'s decision procedure against
    // cached verdict entries. Each mode carries its own fingerprint, so
    // the Equivalence-mode entry cannot answer the Subtype questions (or
    // vice versa); the chain below consults exactly the entries the real
    // procedure would have written on a previous run. find() enforces
    // graph/version binding for port-bearing entries, so a hit is sound
    // to reuse as-is. With a durable store attached, find() falls through
    // to disk on an in-memory miss — a freshly restarted process resolves
    // here without ever running the comparer.
    compare::Options eq_opts = base;
    eq_opts.mode = compare::Mode::Equivalence;
    compare::Options sub_opts = base;
    sub_opts.mode = compare::Mode::Subtype;
    const uint8_t fp_eq = compare::CrossCache::fingerprint(eq_opts);
    const uint8_t fp_sub = compare::CrossCache::fingerprint(sub_opts);
    auto fwd = [&](uint8_t fp) {
      return cache_find({left_strict_id, right_strict_id, fp}, &ga,
                        ga.version(), &gb, gb.version());
    };
    auto rev = [&](uint8_t fp) {
      return cache_find({right_strict_id, left_strict_id, fp}, &gb,
                        gb.version(), &ga, ga.version());
    };
    bool resolved = false;
    auto verdict = compare::Verdict::Mismatch;
    if (auto eq = fwd(fp_eq)) {
      if (eq->ok) {
        verdict = compare::Verdict::Equivalent;
        resolved = true;
      } else if (auto sab = fwd(fp_sub)) {
        if (sab->ok) {
          verdict = compare::Verdict::LeftSubtype;
          resolved = true;
        } else if (auto sba = rev(fp_sub)) {
          verdict = sba->ok ? compare::Verdict::RightSubtype
                            : compare::Verdict::Mismatch;
          resolved = true;
        }
      }
    }
    if (resolved) {
      const bool needs_program = verdict == compare::Verdict::Equivalent ||
                                 verdict == compare::Verdict::LeftSubtype;
      if (!needs_program) {
        o.verdict = verdict;
        o.memo_hit = true;
        return o;
      }
      if (auto prog = prog_find(prog_key)) {
        o.verdict = verdict;
        o.memo_hit = true;
        o.program_cached = true;
        o.program_ops = prog->code.size();
        return o;
      }
      // Verdict known but the program was never compiled (the pair only
      // ever appeared as a sub-proof): fall through — the full path's
      // plan build is itself a cheap cache splice at this point.
    }
  }

  CompileMetrics& cm = compile_metrics();
  compare::FullResult full;
  {
    obs::ScopedTimer t(cm.compare_ns);
    full = compare::compare_full(ga, ra, gb, rb, base);
  }
  o.verdict = full.verdict;
  o.steps = full.to_right.steps + full.to_left.steps;
  if (o.verdict == compare::Verdict::Mismatch && full.to_right.mismatch.valid) {
    o.mismatch = full.to_right.mismatch.to_string();
  }
  if (full.to_right.ok) {
    std::shared_ptr<const planir::Program> prog;
    if (keyed) prog = prog_find(prog_key);
    if (prog) {
      o.program_cached = true;
    } else {
      std::shared_ptr<planir::Program> compiled;
      {
        obs::ScopedTimer t(cm.planir_ns);
        compiled = std::make_shared<planir::Program>(
            planir::compile(full.to_right.plan, full.to_right.root));
        planir::require_valid(*compiled);
      }
      prog = compiled;
      if (keyed) {
        obs::ScopedTimer t(cm.persist_ns);
        if (wb != nullptr) {
          wb->insert_program(prog_key, prog);
        } else {
          cross->insert_program(prog_key, prog);
        }
      }
    }
    o.program_ops = prog->code.size();
  }
  return o;
}

ServiceCore::ServiceCore(std::vector<Module>& modules, DiagnosticEngine& diags)
    : modules_(modules),
      diags_(diags),
      cross_(std::make_unique<compare::CrossCache>()),
      hca_(ga_),
      hcb_(gb_) {}

ServiceCore::~ServiceCore() {
  // Detach before members die: the CrossCache must not write through to a
  // destroyed store (member order alone would destroy store_ last, but be
  // explicit — the dependency is semantic, not accidental).
  cross_->attach_store(nullptr);
}

bool ServiceCore::open_cache(const std::string& path, std::string* error) {
  auto s = std::make_unique<store::CacheStore>();
  if (!s->open(path, compare::CrossCache::store_payload_version(), error)) {
    return false;
  }
  store_ = std::move(s);
  cross_->attach_store(store_.get());
  // Compiled marshaling stubs persist beside the plan cache, so a warm
  // restart dlopen's them instead of re-invoking the host compiler.
  codegen::StubCache::process().set_dir(path + ".stubs");
  return true;
}

bool ServiceCore::flush_cache(std::string* error) {
  if (!store_) return true;
  return store_->flush(error);
}

store::CacheStore* ServiceCore::cache_store() { return store_.get(); }

void ServiceCore::reset_memory_cache() {
  cross_ = std::make_unique<compare::CrossCache>();
  if (store_) cross_->attach_store(store_.get());
}

mtype::Ref ServiceCore::lower_side(const std::string& spec, mtype::Graph& g,
                                   Side& side, std::string* error) {
  std::string decl_name;
  Module* m = find_decl(modules_, spec, &decl_name);
  if (m == nullptr) {
    if (error != nullptr) *error = "unknown declaration '" + spec + "'";
    return mtype::kNullRef;
  }
  auto key = std::make_pair(static_cast<const Module*>(m), decl_name);
  if (auto it = side.memo.find(key); it != side.memo.end()) {
    return it->second;
  }
  auto& engine = side.engines[m];
  if (!engine) engine = std::make_unique<lower::LowerEngine>(*m, g, diags_);
  mtype::Ref r = engine->lower_decl(decl_name);
  if (r == mtype::kNullRef || diags_.has_errors()) {
    if (error != nullptr) *error = "cannot lower '" + spec + "'";
    return mtype::kNullRef;
  }
  side.memo.emplace(key, r);
  return r;
}

mtype::Ref ServiceCore::lower_left(const std::string& spec,
                                   std::string* error) {
  return lower_side(spec, ga_, side_a_, error);
}

mtype::Ref ServiceCore::lower_right(const std::string& spec,
                                    std::string* error) {
  return lower_side(spec, gb_, side_b_, error);
}

ServiceCore::Frozen ServiceCore::freeze() {
  Frozen f;
  f.base.cross = cross_.get();
  f.base.left_hashes = hca_.get();
  f.base.right_hashes = hcb_.get();
  f.left_ids = cross_->strict_ids(ga_);
  f.right_ids = cross_->strict_ids(gb_);
  return f;
}

PairOutcome ServiceCore::compile(const Frozen& f, mtype::Ref ra, mtype::Ref rb,
                                 compare::CrossCache::WriteBuffer* wb) {
  return compile_pair(ga_, ra, gb_, rb, f.base, (*f.left_ids)[ra],
                      (*f.right_ids)[rb], wb);
}

bool ServiceCore::compile_spec(const std::string& left_spec,
                               const std::string& right_spec, PairOutcome* out,
                               std::string* error) {
  mtype::Ref ra = lower_left(left_spec, error);
  if (ra == mtype::kNullRef) return false;
  mtype::Ref rb = lower_right(right_spec, error);
  if (rb == mtype::kNullRef) return false;
  try {
    *out = compile(freeze(), ra, rb);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  return true;
}

}  // namespace mbird::service
