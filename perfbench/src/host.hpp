// Host facts recorded with every result, plus process-wide counters the
// workloads read: peak resident set and the operator-new allocation count.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Heap allocations (operator new calls, all threads) since process start.
/// Exact: the harness replaces the global operator new.
[[nodiscard]] uint64_t alloc_count();

[[nodiscard]] unsigned online_cpus();
[[nodiscard]] std::string cpu_model();
[[nodiscard]] std::string kernel_release();

/// Seconds on the steady clock since an arbitrary epoch.
[[nodiscard]] double now_s();

}  // namespace perfbench
