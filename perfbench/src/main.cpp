// mbird_perfbench: one run of one workload.
//
//   mbird_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--work-dir DIR] [--trace-out FILE]
//                   [--commit ID] [--build-type TYPE] [--smoke]
//
// Prints a "meta" JSON line (seed, host, build) and, as the last line of
// standard output, the result object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see workload.cpp). Exit status is 0 only when every check
// passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "host.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: mbird_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "                       [--work-dir DIR] [--trace-out FILE]\n"
               "                       [--commit ID] [--build-type TYPE] "
               "[--smoke]\nworkloads:");
  for (const auto& [name, fn] : workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out, commit = "unknown", build_type = "unknown";
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (a == "--trace") {
      cfg.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--build-type") {
      build_type = v;
    } else {
      return usage();
    }
  }
  WorkloadFn fn;
  for (const auto& [name, f] : workloads()) {
    if (name == workload) fn = f;
  }
  if (!fn || !have_seed || !have_seconds || !have_trace) return usage();
  std::filesystem::create_directories(cfg.work_dir);

  std::ostringstream meta;
  meta << "{\"workload\": " << json_string(workload)
       << ", \"seed\": " << cfg.seed << ", \"seconds\": " << number(cfg.seconds)
       << ", \"trace\": " << (cfg.trace ? 1 : 0)
       << ", \"nproc\": " << online_cpus()
       << ", \"cpu\": " << json_string(cpu_model())
       << ", \"kernel\": " << json_string(kernel_release())
       << ", \"build_type\": " << json_string(build_type)
       << ", \"commit\": " << json_string(commit) << "}";
  std::cout << "{\"meta\": " << meta.str() << "}" << std::endl;

  Result r;
  try {
    r = fn(cfg);
  } catch (const std::exception& e) {
    r.check(false, std::string("workload threw: ") + e.what());
  }
  if (r.attempted == 0) r.check(false, "no operation was attempted");

  const auto& names = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  std::ostringstream metrics;
  bool first = true;
  for (const auto& [name, unit] : names) {
    auto it = r.metrics.find(name);
    double v = 0;
    if (it != r.metrics.end()) {
      v = it->second;
    } else if (!cfg.trace) {
      r.check(false, "end-to-end metric " + name + " was not measured");
    }
    if (!std::isfinite(v)) {
      r.check(false, "metric " + name + " is not finite");
      v = -1;
    }
    metrics << (first ? "" : ", ") << json_string(name)
            << ": {\"value\": " << number(v)
            << ", \"unit\": " << json_string(unit) << "}";
    first = false;
  }
  for (const auto& e : r.errors) std::cerr << "check failed: " << e << '\n';

  if (cfg.trace && !trace_out.empty() &&
      !Tracer::get().write_chrome(trace_out, meta.str())) {
    std::cerr << "cannot write " << trace_out << '\n';
  }
  std::cout << "{\"correct\": " << (r.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(r.attempted, 1)
            << ", \"failed\": " << r.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return r.correct() ? 0 : 1;
}
