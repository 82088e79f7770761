// The VisualAge corpus: the paper's §5 trial of N highly inter-related
// classes mirrored across C++ and Java, with the annotation script that
// makes the mirrored pointers not-null. Every pair (e.hpp:NodeK,
// E.java:NodeK) is Equivalent by construction, which is the oracle the
// compile and serve workloads check verdicts against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stype/stype.hpp"
#include "support/diag.hpp"

namespace perfbench {

struct Corpus {
  int n = 0;
  mbird::DiagnosticEngine diags;  // outlives every ServiceCore built on it
  std::vector<mbird::stype::Module> modules;  // [0] C++, [1] Java
  std::vector<std::string> left_specs;        // e.hpp:NodeK
  std::vector<std::string> right_specs;       // E.java:NodeK
  // Set-up layer timings of this load (steady-clock ns).
  uint64_t cfront_parse_ns = 0;
  uint64_t javasrc_parse_ns = 0;
  uint64_t annotate_ns = 0;
};

/// C++ (`java == false`) or Java source of the N-class system.
[[nodiscard]] std::string vage_source(int n, bool java);

/// Parse and annotate both sides. Throws std::runtime_error on any
/// diagnostic error.
[[nodiscard]] std::unique_ptr<Corpus> load_corpus(int n);

/// A seeded permutation of 0..n-1: the pair order of the compile phases.
[[nodiscard]] std::vector<int> seeded_order(int n, uint64_t seed);

/// The batch manifest for `order` (one "<left> <right>" line per pair).
[[nodiscard]] std::string manifest_text(const Corpus& c,
                                        const std::vector<int>& order);

}  // namespace perfbench
