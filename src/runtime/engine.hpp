// Process-wide execution-tier policy for PlanIR marshaling (DESIGN.md §4j).
//
// Two tiers execute the same verified programs with byte-identical
// output and identical fault ordering:
//
//   Threaded — the PlanIR engine (runtime/threaded.hpp): the one
//              interpreter of every program mode, with pre-decoded op
//              streams, computed-goto dispatch where the compiler supports
//              it, choice inline caches and SIMD range prologues. Pure
//              in-process; the default.
//   Compiled — dlopen'd stubs compiled from codegen::generate_native_marshaler
//              output via codegen::StubCache. Applies to native-marshal
//              programs only; ineligible programs or a missing toolchain
//              fall back to Threaded automatically.
//
// The tier is a process-global knob (the CLI's `--engine=threaded|compiled`
// flag) consumed at stub construction time, not per call: callers that
// build an rpc::NativeStub snapshot the tier then.
#pragma once

#include <string_view>

namespace mbird::runtime {

enum class EngineTier : unsigned char { Threaded, Compiled };

/// The configured tier (default EngineTier::Threaded).
[[nodiscard]] EngineTier engine_tier();
void set_engine_tier(EngineTier tier);

/// Parse "threaded" / "compiled"; false on anything else.
[[nodiscard]] bool parse_engine_tier(std::string_view name, EngineTier* out);
[[nodiscard]] const char* to_string(EngineTier tier);

}  // namespace mbird::runtime
