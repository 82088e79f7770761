// PlanIR: coercion plans lowered to a flat, verifiable bytecode (ROADMAP
// "execution substrate" item; motivated by Fisher/Pucella/Reppy's checked
// intermediate language between type mapping and execution).
//
// A Program is a contiguous instruction array plus side tables:
//
//   code        — one Instr per reachable plan node, Alias chains resolved
//   fields      — RecordMap/Extract field moves (paths into path_pool)
//   records     — per-BuildRecord field slice + RPN skeleton slice
//   shape_pool  — record skeletons as postfix tokens (Leaf k / Unit / Rec n)
//   arms,choices,trie,trie_kids
//               — ChoiceMap arms plus a prefix trie over source arm paths
//                 (dispatch is O(depth), not O(arms) per choice layer)
//   custom_names— interned hand-written converter names
//   byte_pool   — precomputed wire bytes (choice-arm prefixes, fused mode)
//
// Two modes share the encoding. Convert programs reproduce the tree
// interpreter (runtime::Converter) exactly — same results, same typed
// errors. Marshal programs fuse convert+wire-encode: they emit wire bytes
// straight from the source Value without materializing the converted
// Value. Where a plan op cannot be paired with the destination Mtype
// statically, compile_marshal falls back to EmitOpaque: run the embedded
// convert program for that subtree, then wire::encode the result — fused
// output is byte-identical to convert-then-encode by construction.
//
// Programs are verified structurally before execution (verify /
// require_valid): every operand in range, skeletons well-formed, tries
// acyclic, and no unguarded cycles (a plan cycle that consumes no input —
// all empty source paths — would loop forever; cycles through a list
// element or a non-empty path terminate on finite values). The engine
// (runtime/threaded.hpp) refuses unverified programs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mtype/mtype.hpp"
#include "plan/plan.hpp"
#include "support/error.hpp"
#include "support/wide_int.hpp"

namespace mbird::runtime {
struct ImageLayout;
}  // namespace mbird::runtime

namespace mbird::planir {

enum class OpCode : uint8_t {
  // Convert mode: produce the converted Value.
  MakeUnit,      //
  CopyInt,       // lo/hi: target range check
  CopyReal,      //
  CopyChar,      //
  CopyPort,      // a: originating plan node (PortMap), passed to the adapter
  BuildRecord,   // a: records[] index
  MatchChoice,   // a: choices[] index
  MapList,       // a: element instruction
  ExtractField,  // a: fields[] index
  CallCustom,    // a: custom_names[] index

  // Marshal mode: emit wire bytes for the converted value directly.
  EmitNothing,  // unit: zero bytes
  EmitInt,      // a: wire width, b: dst_types[] index; lo/hi: plan range check
  EmitReal32,   //
  EmitReal64,   //
  EmitChar1,    // narrow repertoire (> 0xff rejected like wire::encode)
  EmitChar4,    //
  EmitPort,     // a: originating plan node (PortMap)
  EmitRecord,   // a: records[] index (fields in wire order)
  EmitChoice,   // a: choices[] index (arm prefix bytes precomputed)
  EmitList,     // a: element instruction (u32 length prefix)
  EmitExtract,  // a: fields[] index
  EmitCustom,   // a: custom_names[] index, b: dst_types[] index
  EmitOpaque,   // a: entry into the fallback convert program, b: dst_types[]

  // Native-marshal mode: emit wire bytes straight out of a NativeHeap image
  // (no Value construction). Every Load*/BlockCopy `a` operand indexes the
  // natives[] slot table; offsets are absolute from the image base.
  LoadInt,     // a: natives[] (aux = wire width), b: dst_types[]; lo/hi: plan range
  LoadReal32,  // a: natives[] (width selects the native f32/f64 read)
  LoadReal64,  // a: natives[]
  LoadChar1,   // a: natives[] (cp > 0xff rejected like wire::encode)
  LoadChar4,   // a: natives[]
  LoadEnum,    // a: natives[] (layout_node names the Enum; aux = wire width),
               // b: dst_types[]; lo/hi: plan range over the ordinal
  NativeSeq,   // a: records[] index (no skeleton: fields are ordered sub-ops)
  BlockCopy,   // a: natives[] — image bytes [src_off, src_off+width) verbatim
  ConstBytes,  // a: byte_pool offset, b: length (static choice prefixes)
  LoadOpaque,  // a: natives[] (layout_node = subtree to materialize, aux =
               // fallback convert entry), b: dst_types[]
};
[[nodiscard]] const char* to_string(OpCode op);

struct Instr {
  OpCode op = OpCode::MakeUnit;
  uint32_t a = 0;
  uint32_t b = 0;
  Int128 lo = 0;
  Int128 hi = 0;
};

struct Program {
  enum class Mode : uint8_t { Convert, Marshal, NativeMarshal };

  Mode mode = Mode::Convert;
  uint32_t entry = 0;
  std::vector<Instr> code;

  std::vector<uint32_t> path_pool;
  struct Field {
    uint32_t src_off = 0, src_len = 0;
    uint32_t dst_off = 0, dst_len = 0;
    uint32_t op = 0;
  };
  std::vector<Field> fields;

  // Record skeletons. Fields are stored in destination-traversal order and
  // the k-th Leaf token (postfix scan order) always references field k, so
  // evaluation order matches the tree interpreter and skeleton assembly can
  // move results without bookkeeping.
  struct ShapeTok {
    enum class K : uint8_t { Leaf, Unit, Rec };
    K kind = K::Leaf;
    uint32_t arg = 0;  // Leaf: field index; Rec: child count
  };
  std::vector<ShapeTok> shape_pool;
  struct RecordTab {
    uint32_t fields_off = 0, fields_len = 0;
    uint32_t shape_off = 0, shape_len = 0;
  };
  std::vector<RecordTab> records;

  struct Arm {
    uint32_t src_off = 0, src_len = 0;
    uint32_t dst_off = 0, dst_len = 0;
    uint32_t op = 0;
    uint32_t prefix_off = 0, prefix_len = 0;  // byte_pool (marshal mode)
  };
  std::vector<Arm> arms;
  struct ChoiceTab {
    uint32_t arms_off = 0, arms_len = 0;
    uint32_t trie_root = 0;
  };
  std::vector<ChoiceTab> choices;
  // Prefix trie over arm source paths. Children always have a larger node
  // index than their parent (verified), so walks terminate. Kid rows are
  // dense by arm label; -1 = no edge.
  struct TrieNode {
    int32_t terminal = -1;  // arm index within the owning choice, or -1
    uint32_t kids_off = 0, kids_len = 0;
  };
  std::vector<TrieNode> trie;
  std::vector<int32_t> trie_kids;

  std::vector<std::string> custom_names;
  std::vector<uint8_t> byte_pool;

  // Provenance: per instruction, the plan node it was lowered from.
  std::vector<plan::PlanRef> origin;

  // Marshal / native-marshal modes: destination type bindings and the
  // convert program used by EmitOpaque/EmitCustom/LoadOpaque. dst_graph
  // must outlive the program.
  const mtype::Graph* dst_graph = nullptr;
  std::vector<mtype::Ref> dst_types;
  std::shared_ptr<const Program> fallback;

  // Native-marshal mode only: per-op image access descriptors plus the
  // layout they were compiled against. The verifier bounds-checks every
  // slot against src_layout->size so the engine can read without re-checking.
  struct NativeSlot {
    enum Flag : uint32_t { kSigned = 1, kBool = 2 };
    uint32_t src_off = 0;      // absolute byte offset into the image
    uint32_t width = 0;        // native bytes read (BlockCopy: span length)
    uint32_t layout_node = 0;  // ImageLayout node this access came from
    uint32_t flags = 0;
    uint32_t aux = 0;  // LoadInt/LoadEnum: wire width; LoadOpaque: fallback entry
  };
  std::vector<NativeSlot> natives;
  std::shared_ptr<const runtime::ImageLayout> src_layout;
};

// ---- typed verification errors ---------------------------------------------

enum class IrFault : uint8_t {
  NullPlan,        // kNullPlan reached while lowering
  AliasCycle,      // Alias chain that never reaches a real op
  BadOpcode,       // opcode invalid for the program's mode
  OperandRange,    // operand / table offset out of range
  BadPath,         // path invalid against the source Mtype
  UnguardedCycle,  // instruction cycle consuming no input
  MalformedShape,  // record skeleton not a single well-formed value
  EmptyChoice,     // choice with no arms
  DuplicateArm,    // two arms share a source path
  BadIntRange,     // lo > hi
  ModeMismatch,    // convert/marshal structure confusion
  BadEntry,        // entry instruction out of range / empty program
  NativeBounds,    // native access outside the declared layout / node
                   // disagreement (span/type mismatch)
};
[[nodiscard]] const char* to_string(IrFault f);

struct VerifyIssue {
  IrFault fault = IrFault::BadOpcode;
  uint32_t instr = 0;  // offending instruction (0 for program-level issues)
  std::string detail;
  [[nodiscard]] std::string to_string() const;
};

class IrError : public MbError {
 public:
  IrError(IrFault fault, const std::string& what)
      : MbError("planir: " + what), fault_(fault) {}
  [[nodiscard]] IrFault fault() const { return fault_; }

 private:
  IrFault fault_;
};

// ---- compilation ------------------------------------------------------------

/// Lower the plan rooted at `root` to a convert-mode program. Alias chains
/// are resolved away; only reachable nodes are compiled. Throws IrError on
/// structurally hopeless plans (null refs, pure alias cycles, duplicate
/// choice arms, skeletons that don't cover their fields).
[[nodiscard]] Program compile(const plan::PlanGraph& plan, plan::PlanRef root);

/// Lower to a marshal-mode (fused convert+encode) program targeting
/// `dst_type` in `dst_graph` (kept by pointer; must outlive the program).
/// Plan ops that pair statically with the destination Mtype become direct
/// Emit* ops; anything ambiguous falls back to EmitOpaque via an embedded
/// convert program, so output bytes always equal
/// wire::encode(dst_graph, dst_type, convert(in)).
[[nodiscard]] Program compile_marshal(const plan::PlanGraph& plan,
                                      plan::PlanRef root,
                                      const mtype::Graph& dst_graph,
                                      mtype::Ref dst_type);

/// Lower to a native-marshal program: loads read scalar fields straight out
/// of the NativeHeap image described by `layout` and emit wire bytes for
/// `dst_type`. A specializer pass collapses maximal contiguous spans whose
/// native bytes are provably identical to their wire encoding (matching
/// width, zero-based unsigned range, byte order, no failable checks) into
/// single BlockCopy ops. Plan subtrees that cannot be paired with both the
/// layout and the destination fall back to LoadOpaque (materialize the
/// subtree Value, run the embedded convert program, wire::encode), so
/// output is byte-identical to read-native → convert → encode by
/// construction. The engine additionally replays every read-time check
/// (annotated ranges, enum membership) up front, so the fused path fails
/// exactly where the two-phase path fails — even on fields the plan drops.
[[nodiscard]] Program compile_native_marshal(
    const plan::PlanGraph& plan, plan::PlanRef root,
    const mtype::Graph& dst_graph, mtype::Ref dst_type,
    std::shared_ptr<const runtime::ImageLayout> layout);

// ---- verification -----------------------------------------------------------

/// Structural verification; empty result = valid. Checks opcode/mode
/// agreement, every operand and table slice in range, record skeletons
/// (postfix simulation: exactly one value, leaf k is the k-th Leaf token),
/// trie acyclicity and arm coverage, integer ranges, and the absence of
/// unguarded cycles. Marshal programs additionally need dst bindings and a
/// valid embedded fallback program.
[[nodiscard]] std::vector<VerifyIssue> verify(const Program& p);

/// Deeper, graph-aware pass: additionally walks the source Mtype alongside
/// the program and flags field/arm paths that don't descend real Record
/// children / Choice arms (IrFault::BadPath). Advisory — the engine only
/// requires the structural pass.
[[nodiscard]] std::vector<VerifyIssue> verify_paths(const Program& p,
                                                    const mtype::Graph& src_graph,
                                                    mtype::Ref src_type);

/// Throw IrError for the first verify() issue, if any.
void require_valid(const Program& p);

// ---- tooling ----------------------------------------------------------------

/// Human-readable listing (`mbird ... plan --emit-ir`, tests).
[[nodiscard]] std::string disassemble(const Program& p);

}  // namespace mbird::planir
