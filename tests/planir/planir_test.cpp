// PlanIR compilation, verification, and disassembly.
//
// The verifier is the load-bearing piece: the VM executes verified
// programs without per-step bounds checks, so every structural corruption
// (out-of-range operand, bad path, unguarded cycle, malformed skeleton,
// trie loops) must be rejected up front with a typed IrFault.
#include <gtest/gtest.h>

#include "compare/compare.hpp"
#include "planir/planir.hpp"
#include "runtime/convert.hpp"
#include "runtime/threaded.hpp"

namespace mbird {
namespace {

using mtype::Graph;
using mtype::Ref;
using planir::IrFault;
using planir::OpCode;
using planir::Program;
using runtime::Value;

/// Compare two isomorphic types and lower the resulting plan.
struct Built {
  Graph ga, gb;
  Ref a = mtype::kNullRef, b = mtype::kNullRef;
  plan::PlanGraph plan;
  plan::PlanRef root = plan::kNullPlan;
};

Built record_pair() {
  Built s;
  s.a = s.ga.record({s.ga.integer(0, 100), s.ga.character(stype::Repertoire::Latin1)});
  s.b = s.gb.record({s.gb.character(stype::Repertoire::Latin1), s.gb.integer(0, 100)});
  auto res = compare::compare(s.ga, s.a, s.gb, s.b, {});
  EXPECT_TRUE(res.ok) << res.mismatch.to_string();
  s.plan = std::move(res.plan);
  s.root = res.root;
  return s;
}

Built choice_pair() {
  Built s;
  s.a = s.ga.choice({s.ga.integer(0, 10), s.ga.unit(), s.ga.real(24, 8)});
  s.b = s.gb.choice({s.gb.real(24, 8), s.gb.integer(0, 10), s.gb.unit()});
  auto res = compare::compare(s.ga, s.a, s.gb, s.b, {});
  EXPECT_TRUE(res.ok) << res.mismatch.to_string();
  s.plan = std::move(res.plan);
  s.root = res.root;
  return s;
}

Built list_pair() {
  Built s;
  s.a = s.ga.list_of(s.ga.record({s.ga.integer(0, 7), s.ga.integer(0, 7)}));
  s.b = s.gb.list_of(s.gb.record({s.gb.integer(0, 7), s.gb.integer(0, 7)}));
  auto res = compare::compare(s.ga, s.a, s.gb, s.b, {});
  EXPECT_TRUE(res.ok) << res.mismatch.to_string();
  s.plan = std::move(res.plan);
  s.root = res.root;
  return s;
}

IrFault first_fault(const Program& p) {
  auto issues = planir::verify(p);
  EXPECT_FALSE(issues.empty());
  return issues.empty() ? IrFault::BadEntry : issues[0].fault;
}

TEST(PlanIr, CompilesRecordPlanAndVerifies) {
  Built s = record_pair();
  Program p = planir::compile(s.plan, s.root);
  EXPECT_TRUE(planir::verify(p).empty());
  EXPECT_TRUE(planir::verify_paths(p, s.ga, s.a).empty());
  EXPECT_EQ(p.mode, Program::Mode::Convert);
  EXPECT_EQ(p.code[p.entry].op, OpCode::BuildRecord);
  // One instruction per reachable plan node, provenance recorded.
  EXPECT_EQ(p.origin.size(), p.code.size());

  std::string listing = planir::disassemble(p);
  EXPECT_NE(listing.find("build_record"), std::string::npos);
  EXPECT_NE(listing.find("copy_int"), std::string::npos);
  EXPECT_NE(listing.find("copy_char"), std::string::npos);
}

TEST(PlanIr, AliasChainsAreResolvedAway) {
  Built s = record_pair();
  // Interpose two Alias hops in front of the root; the compiled entry must
  // land on the real op and no extra instructions appear.
  plan::PlanNode a1;
  a1.kind = plan::PKind::Alias;
  a1.inner = s.root;
  plan::PlanRef hop1 = s.plan.add(a1);
  plan::PlanNode a2;
  a2.kind = plan::PKind::Alias;
  a2.inner = hop1;
  plan::PlanRef hop2 = s.plan.add(a2);

  Program direct = planir::compile(s.plan, s.root);
  Program hopped = planir::compile(s.plan, hop2);
  EXPECT_TRUE(planir::verify(hopped).empty());
  EXPECT_EQ(hopped.code.size(), direct.code.size());
  EXPECT_EQ(hopped.code[hopped.entry].op, OpCode::BuildRecord);
}

TEST(PlanIr, RejectsPureAliasCycle) {
  plan::PlanGraph pg;
  plan::PlanNode a1;
  a1.kind = plan::PKind::Alias;
  plan::PlanRef r1 = pg.add(a1);
  plan::PlanNode a2;
  a2.kind = plan::PKind::Alias;
  a2.inner = r1;
  plan::PlanRef r2 = pg.add(a2);
  pg.at_mut(r1).inner = r2;

  try {
    (void)planir::compile(pg, r1);
    FAIL() << "expected IrError";
  } catch (const planir::IrError& e) {
    EXPECT_EQ(e.fault(), IrFault::AliasCycle);
  }
}

TEST(PlanIr, VerifierRejectsOutOfRangeOperands) {
  Built s = record_pair();
  Program p = planir::compile(s.plan, s.root);

  Program bad = p;
  bad.code[bad.entry].a = 9999;  // records[] index out of range
  EXPECT_EQ(first_fault(bad), IrFault::OperandRange);

  bad = p;
  bad.entry = static_cast<uint32_t>(bad.code.size());
  EXPECT_EQ(first_fault(bad), IrFault::BadEntry);

  bad = p;
  bad.code.clear();
  bad.origin.clear();
  EXPECT_EQ(first_fault(bad), IrFault::BadEntry);

  bad = p;
  // Point a field's child op past the end of the program.
  ASSERT_FALSE(bad.fields.empty());
  bad.fields[0].op = static_cast<uint32_t>(bad.code.size() + 3);
  EXPECT_EQ(first_fault(bad), IrFault::OperandRange);
}

TEST(PlanIr, VerifierRejectsBadIntRange) {
  Built s = record_pair();
  Program p = planir::compile(s.plan, s.root);
  for (auto& ins : p.code) {
    if (ins.op == OpCode::CopyInt) {
      ins.lo = 5;
      ins.hi = -5;
    }
  }
  EXPECT_EQ(first_fault(p), IrFault::BadIntRange);
}

TEST(PlanIr, VerifierRejectsMalformedShape) {
  Built s = record_pair();
  Program p = planir::compile(s.plan, s.root);
  // Make the second Leaf token reference field 0 again: the skeleton no
  // longer covers its fields in traversal order.
  ASSERT_GE(p.shape_pool.size(), 2u);
  for (auto& tok : p.shape_pool) {
    if (tok.kind == Program::ShapeTok::K::Leaf && tok.arg == 1) tok.arg = 0;
  }
  EXPECT_EQ(first_fault(p), IrFault::MalformedShape);
}

TEST(PlanIr, VerifierRejectsUnguardedCycle) {
  // A BuildRecord whose only field feeds the record back to itself through
  // an empty source path: consumes no input, would loop forever.
  Program p;
  p.mode = Program::Mode::Convert;
  p.entry = 0;
  planir::Instr ins;
  ins.op = OpCode::BuildRecord;
  ins.a = 0;
  p.code.push_back(ins);
  p.origin.push_back(0);
  p.fields.push_back({0, 0, 0, 0, 0});  // empty src path, op = self
  p.records.push_back({0, 1, 0, 1});
  p.shape_pool.push_back({Program::ShapeTok::K::Leaf, 0});
  EXPECT_EQ(first_fault(p), IrFault::UnguardedCycle);

  // The same cycle through a MapList edge is fine: list elements are
  // strictly smaller than the list, so recursion terminates on data.
  Program ok;
  ok.mode = Program::Mode::Convert;
  ok.entry = 0;
  planir::Instr lm;
  lm.op = OpCode::MapList;
  lm.a = 0;  // self: a list of lists of ... terminates at the empty list
  ok.code.push_back(lm);
  ok.origin.push_back(0);
  EXPECT_TRUE(planir::verify(ok).empty());
}

TEST(PlanIr, VerifierRejectsCorruptedTrie) {
  Built s = choice_pair();
  Program p = planir::compile(s.plan, s.root);
  ASSERT_FALSE(p.trie_kids.empty());

  Program bad = p;
  // Point a trie edge back at the root: node indices must increase.
  for (auto& k : bad.trie_kids) {
    if (k >= 0) k = static_cast<int32_t>(bad.choices[0].trie_root);
  }
  EXPECT_EQ(first_fault(bad), IrFault::UnguardedCycle);

  bad = p;
  // Duplicate a terminal: two trie leaves land on the same arm while
  // another arm becomes unreachable.
  int32_t seen = -1;
  for (auto& node : bad.trie) {
    if (node.terminal < 0) continue;
    if (seen < 0) {
      seen = node.terminal;
    } else {
      node.terminal = seen;
    }
  }
  EXPECT_EQ(first_fault(bad), IrFault::DuplicateArm);
}

TEST(PlanIr, VerifyPathsFlagsBadRecordPath) {
  Built s = record_pair();
  Program p = planir::compile(s.plan, s.root);
  ASSERT_FALSE(p.path_pool.empty());
  for (auto& step : p.path_pool) step = 17;  // no such child anywhere
  // Structurally still fine...
  EXPECT_TRUE(planir::verify(p).empty());
  // ...but the graph-aware pass rejects it.
  auto issues = planir::verify_paths(p, s.ga, s.a);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].fault, IrFault::BadPath);
}

TEST(PlanIr, RequireValidThrowsTypedErrorAndEngineRefusesIt) {
  Built s = record_pair();
  Program p = planir::compile(s.plan, s.root);
  p.code[p.entry].a = 4242;
  try {
    planir::require_valid(p);
    FAIL() << "expected IrError";
  } catch (const planir::IrError& e) {
    EXPECT_EQ(e.fault(), IrFault::OperandRange);
    EXPECT_NE(std::string(e.what()).find("planir:"), std::string::npos);
  }
  EXPECT_THROW(runtime::ThreadedEngine engine(p), planir::IrError);
}

TEST(PlanIr, CustomOpsAreInternedAndDispatched) {
  Graph ga, gb;
  Ref a = ga.integer(0, 9);
  (void)gb.integer(0, 99);
  plan::PlanGraph pg;
  plan::PlanRef c = plan::make_custom(pg, "double_it");

  Program p = planir::compile(pg, c);
  ASSERT_TRUE(planir::verify(p).empty());
  ASSERT_EQ(p.custom_names.size(), 1u);
  EXPECT_EQ(p.custom_names[0], "double_it");
  EXPECT_NE(planir::disassemble(p).find("double_it"), std::string::npos);

  runtime::CustomRegistry reg;
  reg["double_it"] = [](const Value& v) {
    return Value::integer(v.as_int() * 2);
  };
  runtime::ThreadedEngine engine(p, {}, reg);
  EXPECT_EQ(engine.apply(Value::integer(21)),
            runtime::Converter(pg, {}, reg).apply(c, Value::integer(21)));
  EXPECT_EQ(engine.apply(Value::integer(21)), Value::integer(42));

  // Unregistered name: same typed error text as the tree interpreter.
  runtime::ThreadedEngine bare(p);
  runtime::Converter oracle(pg);
  std::string engine_err, tree_err;
  try {
    (void)bare.apply(Value::integer(1));
  } catch (const ConversionError& e) {
    engine_err = e.what();
  }
  try {
    (void)oracle.apply(c, Value::integer(1));
  } catch (const ConversionError& e) {
    tree_err = e.what();
  }
  EXPECT_FALSE(engine_err.empty());
  EXPECT_EQ(engine_err, tree_err);
  (void)a;
}

TEST(PlanIr, MarshalProgramsCarryFallbackAndVerify) {
  Built s = list_pair();
  Program p = planir::compile_marshal(s.plan, s.root, s.gb, s.b);
  EXPECT_TRUE(planir::verify(p).empty());
  EXPECT_EQ(p.mode, Program::Mode::Marshal);
  ASSERT_NE(p.fallback, nullptr);
  EXPECT_EQ(p.fallback->mode, Program::Mode::Convert);

  std::string listing = planir::disassemble(p);
  EXPECT_NE(listing.find("marshal"), std::string::npos);
  EXPECT_NE(listing.find("emit_list"), std::string::npos);

  // Mode confusion is typed: a convert program refuses marshal() and a
  // marshal opcode is rejected inside a convert program.
  Program conv = planir::compile(s.plan, s.root);
  runtime::ThreadedEngine engine(conv);
  EXPECT_THROW((void)engine.marshal(Value::list({})), planir::IrError);

  Program confused = conv;
  confused.code[confused.entry].op = OpCode::EmitList;
  EXPECT_EQ(first_fault(confused), IrFault::BadOpcode);
}

}  // namespace
}  // namespace mbird
