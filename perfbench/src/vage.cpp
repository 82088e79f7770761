#include "vage.hpp"

#include <sstream>
#include <stdexcept>

#include "annotate/script.hpp"
#include "cfront/cparser.hpp"
#include "javasrc/javaparser.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace mbird;

std::string vage_source(int n, bool java) {
  std::ostringstream os;
  for (int k = 0; k < n; ++k) {
    os << (java ? "public class " : "class ") << "Node" << k << " {\n";
    if (!java) os << "public:\n";
    os << "  int kind;\n  int line;\n  float weight;\n";
    if (k > 0) {
      os << "  Node" << (k - 1) << (java ? " prev;\n" : " *prev;\n");
      os << "  Node" << (k / 2) << (java ? " owner;\n" : " *owner;\n");
    }
    for (int m = 0; m < 10; ++m) {
      const char* ret = m % 3 == 0 ? "int" : (m % 3 == 1 ? "float" : "void");
      os << "  " << ret << " method" << m << "(int a"
         << (m % 2 ? ", float b" : "") << ");\n";
    }
    os << "}" << (java ? "" : ";") << "\n";
  }
  return os.str();
}

std::unique_ptr<Corpus> load_corpus(int n) {
  auto c = std::make_unique<Corpus>();
  c->n = n;
  const std::string csrc = vage_source(n, false);
  const std::string jsrc = vage_source(n, true);
  uint64_t t0 = mono_ns();
  c->modules.push_back(cfront::parse_c(csrc, "e.hpp", c->diags));
  uint64_t t1 = mono_ns();
  c->modules.push_back(javasrc::parse_java(jsrc, "E.java", c->diags));
  uint64_t t2 = mono_ns();
  const char* script =
      "annotate \"Node*.prev\" notnull;\nannotate \"Node*.owner\" notnull;\n";
  annotate::run_script(script, "b.mba", c->modules[0], c->diags);
  annotate::run_script(script, "b.mba", c->modules[1], c->diags);
  uint64_t t3 = mono_ns();
  if (c->diags.has_errors()) {
    throw std::runtime_error("corpus: " + c->diags.summary());
  }
  c->cfront_parse_ns = t1 - t0;
  c->javasrc_parse_ns = t2 - t1;
  c->annotate_ns = t3 - t2;
  for (int k = 0; k < n; ++k) {
    c->left_specs.push_back("e.hpp:Node" + std::to_string(k));
    c->right_specs.push_back("E.java:Node" + std::to_string(k));
  }
  return c;
}

std::vector<int> seeded_order(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) order[static_cast<size_t>(k)] = k;
  Rng rng(seed ^ 0x6f72646572ULL);  // "order"
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

std::string manifest_text(const Corpus& c, const std::vector<int>& order) {
  std::string out;
  for (int k : order) {
    out += c.left_specs[static_cast<size_t>(k)] + " " +
           c.right_specs[static_cast<size_t>(k)] + "\n";
  }
  return out;
}

}  // namespace perfbench
