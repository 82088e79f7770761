#include "runtime/engine.hpp"

#include <atomic>

namespace mbird::runtime {

namespace {
std::atomic<EngineTier> g_tier{EngineTier::Threaded};
}  // namespace

EngineTier engine_tier() { return g_tier.load(std::memory_order_relaxed); }

void set_engine_tier(EngineTier tier) {
  g_tier.store(tier, std::memory_order_relaxed);
}

bool parse_engine_tier(std::string_view name, EngineTier* out) {
  if (name == "threaded") {
    *out = EngineTier::Threaded;
  } else if (name == "compiled") {
    *out = EngineTier::Compiled;
  } else {
    return false;
  }
  return true;
}

const char* to_string(EngineTier tier) {
  switch (tier) {
    case EngineTier::Threaded: return "threaded";
    case EngineTier::Compiled: return "compiled";
  }
  return "?";
}

}  // namespace mbird::runtime
