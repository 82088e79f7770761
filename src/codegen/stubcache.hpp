// Compiled-stub cache: the Compiled tier of the engine ladder (DESIGN.md
// §4j).
//
// A native-marshal program that generate_native_marshaler can express (no
// LoadOpaque / LoadEnum, ranges within 64 bits) is piped through the host C
// compiler into a shared object and dlopen'd; the resulting function
// marshals an image with zero interpreter involvement:
//
//   size_t mb_stub(const uint8_t *img, uint8_t *buf);  // count or (size_t)-1
//
// Stubs are keyed by a content digest of the generated C source (plus an
// ABI version), so the key is stable across processes for identical
// programs. Shared objects persist as <dir>/mb_<digest>.so next to the
// durable plan cache (ServiceCore::open_cache points the process cache at
// "<cache>.stubs"); a warm restart dlopen's without invoking the compiler.
// Compilation is atomic (temp file + rename), so concurrent processes
// racing on one key both end up with a valid object.
//
// get() returns nullptr for ineligible programs, a missing toolchain, or a
// failed compile — callers fall back to the threaded tier. Failures are
// negatively cached per key to keep the fallback cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace mbird::planir {
struct Program;
}  // namespace mbird::planir

namespace mbird::codegen {

/// A dlopen'd marshaling function; keeps its shared object pinned for the
/// stub's lifetime (share the pointer, not the handle).
class CompiledStub {
 public:
  using Fn = size_t (*)(const uint8_t* img, uint8_t* buf);

  ~CompiledStub();
  CompiledStub(const CompiledStub&) = delete;
  CompiledStub& operator=(const CompiledStub&) = delete;

  [[nodiscard]] Fn fn() const { return fn_; }
  /// Exact wire bytes the stub writes on success — size the buffer with
  /// this before calling fn().
  [[nodiscard]] size_t wire_size() const { return wire_size_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  friend class StubCache;
  CompiledStub(void* handle, Fn fn, size_t wire_size, std::string path)
      : handle_(handle), fn_(fn), wire_size_(wire_size),
        path_(std::move(path)) {}

  void* handle_;  // dlopen handle, closed on destruction
  Fn fn_;
  size_t wire_size_;
  std::string path_;
};

class StubCache {
 public:
  struct Stats {
    uint64_t hits = 0;       // served from the in-memory map
    uint64_t reloads = 0;    // dlopen'd an existing on-disk object
    uint64_t compiles = 0;   // invoked the host compiler
    uint64_t failures = 0;   // ineligible program / toolchain failure
  };

  StubCache() = default;

  /// The process-wide cache (what rpc::NativeStub consults).
  static StubCache& process();

  /// Where shared objects live. Defaults to <tmp>/mbird-stubs; the service
  /// core points it next to the durable plan cache.
  void set_dir(std::string dir);
  [[nodiscard]] std::string dir() const;

  /// Compile-or-load the stub for a native-marshal program. Returns nullptr
  /// when the program is ineligible for direct compilation or the toolchain
  /// fails; the caller falls back to an interpreted tier.
  [[nodiscard]] std::shared_ptr<const CompiledStub> get(
      const planir::Program& prog);

  [[nodiscard]] Stats stats() const;

  /// Content digest (hex) of the C source the cache would key this program
  /// by; empty for ineligible programs. Exposed for tests and tooling.
  [[nodiscard]] static std::string key_of(const planir::Program& prog);

 private:
  mutable std::mutex mu_;
  std::string dir_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledStub>> stubs_;
  Stats stats_;
};

}  // namespace mbird::codegen
