#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "tool/mbird.hpp"

namespace mbird::tool {
namespace {

struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

class ToolTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "mbird_tool";
    std::system(("mkdir -p " + dir_).c_str());
    write(dir_ + "/fitter.h",
          "typedef float point[2];\n"
          "void fitter(point pts[], int count, point *start, point *end);\n");
    write(dir_ + "/App.java",
          "public class Point { private float x; private float y; }\n"
          "public class Line { private Point start; private Point end; }\n"
          "public class PointVector extends java.util.Vector;\n"
          "public interface JavaIdeal { Line fitter(PointVector pts); }\n");
    write(dir_ + "/fitter.mba",
          "annotate fitter.pts length param count;\n"
          "annotate fitter.start out;\nannotate fitter.end out;\n");
    write(dir_ + "/app.mba",
          "annotate Line.start notnull noalias;\n"
          "annotate Line.end notnull noalias;\n"
          "annotate PointVector element Point notnull-elements;\n"
          "annotate JavaIdeal.fitter.pts notnull;\n"
          "annotate JavaIdeal.fitter.return notnull;\n");
  }

  void write(const std::string& path, const std::string& text) {
    std::ofstream f(path);
    f << text;
  }

  std::vector<std::string> fitter_inputs() {
    return {"--c",      dir_ + "/fitter.h",   "--script", dir_ + "/fitter.mba",
            "--java",   dir_ + "/App.java",   "--script", dir_ + "/app.mba"};
  }

  std::string dir_;
};

TEST_F(ToolTest, UsageOnNoArgs) {
  auto r = run_cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST_F(ToolTest, ListShowsDeclarations) {
  auto args = fitter_inputs();
  args.push_back("list");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fitter"), std::string::npos);
  EXPECT_NE(r.out.find("JavaIdeal"), std::string::npos);
}

TEST_F(ToolTest, ShowPrintsDeclaration) {
  auto args = fitter_inputs();
  args.push_back("show");
  args.push_back("Line");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("class Line"), std::string::npos);
  EXPECT_NE(r.out.find("notnull"), std::string::npos);
}

TEST_F(ToolTest, MtypePrintsLoweredForm) {
  auto args = fitter_inputs();
  args.push_back("mtype");
  args.push_back("fitter");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("port(Record("), std::string::npos);
  EXPECT_NE(r.out.find("rec X0."), std::string::npos);
}

TEST_F(ToolTest, DiagramDrawsTree) {
  auto args = fitter_inputs();
  args.push_back("diagram");
  args.push_back("PointVector");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Rec X0"), std::string::npos);
  EXPECT_NE(r.out.find("^X0"), std::string::npos);
}

TEST_F(ToolTest, CompareEquivalent) {
  auto args = fitter_inputs();
  args.push_back("compare");
  args.push_back("JavaIdeal.fitter");
  args.push_back("fitter");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("equivalent"), std::string::npos);
}

TEST_F(ToolTest, CompareMismatchWithoutAnnotations) {
  // Only the collection element is annotated (needed to lower at all);
  // without the §3.4 annotations the declarations do NOT match.
  auto r = run_cli({"--c", dir_ + "/fitter.h", "--java", dir_ + "/App.java",
                    "--annotate", "annotate PointVector element Point;",
                    "compare", "JavaIdeal.fitter", "fitter"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("mismatch"), std::string::npos) << r.out << r.err;
}

TEST_F(ToolTest, CompareFailsCleanlyWhenLoweringImpossible) {
  // PointVector without an element annotation cannot lower; the CLI must
  // report the diagnostic and exit nonzero, not crash.
  auto r = run_cli({"--c", dir_ + "/fitter.h", "--java", dir_ + "/App.java",
                    "compare", "JavaIdeal.fitter", "fitter"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("element-type"), std::string::npos);
}

TEST_F(ToolTest, PlanPrints) {
  auto args = fitter_inputs();
  args.push_back("plan");
  args.push_back("JavaIdeal.fitter");
  args.push_back("fitter");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("port"), std::string::npos);
  EXPECT_NE(r.out.find("record"), std::string::npos);
}

TEST_F(ToolTest, GenWritesStubFiles) {
  auto args = fitter_inputs();
  args.insert(args.end(), {"gen", "JavaIdeal.fitter", "fitter", "--name",
                           "fitstub", "-o", dir_});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream h(dir_ + "/fitstub.h");
  EXPECT_TRUE(h.good());
  std::string text((std::istreambuf_iterator<char>(h)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("fitstub_convert"), std::string::npos);
}

TEST_F(ToolTest, InlineAnnotateWorks) {
  auto r = run_cli({"--c", dir_ + "/fitter.h", "--annotate",
                    "annotate fitter.start out;", "mtype", "fitter"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("start:"), std::string::npos);
}

TEST_F(ToolTest, SaveAndReloadProject) {
  auto args = fitter_inputs();
  args.push_back("save");
  args.push_back(dir_ + "/session.mbp");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;

  auto r2 = run_cli({"--project", dir_ + "/session.mbp", "compare",
                     "JavaIdeal.fitter", "fitter"});
  EXPECT_EQ(r2.code, 0) << r2.err;
  EXPECT_NE(r2.out.find("equivalent"), std::string::npos);
}

TEST_F(ToolTest, MissingFileReported) {
  auto r = run_cli({"--c", dir_ + "/nope.h", "list"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot read"), std::string::npos);
}

TEST_F(ToolTest, UnknownDeclReported) {
  auto r = run_cli({"--c", dir_ + "/fitter.h", "mtype", "ghost"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown declaration"), std::string::npos);
}

TEST_F(ToolTest, ModuleQualifiedAddressing) {
  auto args = fitter_inputs();
  args.push_back("mtype");
  args.push_back(dir_ + "/fitter.h:fitter");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
}

// ---- batch ------------------------------------------------------------------

TEST_F(ToolTest, BatchComparesManifestPairs) {
  // The duplicate pair exercises the shared program memo: whichever task
  // runs second fetches the compiled program instead of recompiling.
  write(dir_ + "/pairs.txt",
        "# equivalence pairs\n"
        "fitter JavaIdeal.fitter\n"
        "fitter JavaIdeal.fitter  # duplicate, should hit the cache\n"
        "\n"
        "Point Line\n");
  auto args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/pairs.txt", "--jobs", "2"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"pairs\": 3"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"equivalent\": 2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"mismatch\": 1"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"program_cached\": true"), std::string::npos)
      << "duplicate pair should reuse the compiled program: " << r.out;
  EXPECT_NE(r.out.find("\"cache\""), std::string::npos);
}

TEST_F(ToolTest, BatchWritesReportFile) {
  write(dir_ + "/pairs.txt", "fitter JavaIdeal.fitter\n");
  auto args = fitter_inputs();
  args.push_back("batch");
  args.push_back(dir_ + "/pairs.txt");
  args.push_back("--out");
  args.push_back(dir_ + "/report.json");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote"), std::string::npos);
  std::ifstream f(dir_ + "/report.json");
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("\"verdict\": \"equivalent\""), std::string::npos)
      << ss.str();
}

// Pulls the integer that follows `"key": ` out of a JSON blob; -1 when
// the key is absent.
long json_int_value(const std::string& text, const std::string& key) {
  auto pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1;
  pos = text.find(':', pos);
  return std::strtol(text.c_str() + pos + 1, nullptr, 10);
}

TEST_F(ToolTest, BatchReportEmbedsMetricsWithWarmCacheHits) {
  // The repeated pair resolves through the cross-pair cache on its second
  // appearance, so the report's embedded registry delta must show verdict
  // cache hits (ISSUE acceptance: nonzero crosscache counts on a warm run).
  write(dir_ + "/pairs.txt",
        "fitter JavaIdeal.fitter\n"
        "fitter JavaIdeal.fitter\n"
        "Point Line\n");
  auto args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/pairs.txt", "--jobs", "2"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"metrics\": {"), std::string::npos) << r.out;
  EXPECT_GT(json_int_value(r.out, "crosscache.verdict.hits"), 0) << r.out;
  EXPECT_GT(json_int_value(r.out, "compare.runs"), 0) << r.out;
  EXPECT_EQ(json_int_value(r.out, "batch.jobs"), 2) << r.out;
}

#ifndef MBIRD_OBS_OFF
TEST_F(ToolTest, TraceFlagWritesChromeJsonWithPairSpans) {
  write(dir_ + "/pairs.txt", "fitter JavaIdeal.fitter\nPoint Line\n");
  auto args = fitter_inputs();
  // The global flag is valid after the command too (acceptance shape:
  // `mbird batch --jobs 4 --trace trace.json`).
  args.insert(args.end(), {"batch", dir_ + "/pairs.txt", "--trace",
                           dir_ + "/trace.json"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(dir_ + "/trace.json");
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string trace = ss.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"batch.pair\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"verdict\""), std::string::npos)
      << "pair spans should carry verdict annotations: " << trace;
  EXPECT_NE(trace.find("\"memo\""), std::string::npos) << trace;
  // Structural sanity: balanced braces/brackets (the file must open in
  // chrome://tracing).
  long braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t k = 0; k < trace.size(); ++k) {
    char c = trace[k];
    if (in_string) {
      if (c == '\\') ++k;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++braces;
    else if (c == '}') --braces;
    else if (c == '[') ++brackets;
    else if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}
#endif  // MBIRD_OBS_OFF

TEST_F(ToolTest, MetricsFlagWritesSnapshotAndStatsPrettyPrintsIt) {
  auto args = fitter_inputs();
  args.insert(args.end(), {"--metrics", dir_ + "/metrics.json", "compare",
                           "JavaIdeal.fitter", "fitter"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;

  auto s = run_cli({"stats", dir_ + "/metrics.json"});
  EXPECT_EQ(s.code, 0) << s.err;
  EXPECT_NE(s.out.find("counters"), std::string::npos) << s.out;
  EXPECT_NE(s.out.find("compare.runs"), std::string::npos) << s.out;
  EXPECT_NE(s.out.find("histograms"), std::string::npos) << s.out;
}

TEST_F(ToolTest, StatsReadsBatchReportMetricsObject) {
  write(dir_ + "/pairs.txt", "fitter JavaIdeal.fitter\n");
  auto args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/pairs.txt", "--out",
                           dir_ + "/report.json"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;

  auto s = run_cli({"stats", dir_ + "/report.json"});
  EXPECT_EQ(s.code, 0) << s.err;
  EXPECT_NE(s.out.find("compare.runs"), std::string::npos) << s.out;

  auto bad = run_cli({"stats", dir_ + "/nope.json"});
  EXPECT_EQ(bad.code, 1);
}

TEST_F(ToolTest, DiagFormatJsonEmitsStructuredLines) {
  write(dir_ + "/broken.idl", "interface Broken { oops };\n");
  auto r = run_cli({"--diag-format=json", "--idl", dir_ + "/broken.idl",
                    "list"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("{\"severity\": \"error\""), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("\"line\": "), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("\"message\": \""), std::string::npos) << r.err;

  auto bad = run_cli({"--diag-format=yaml", "list"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("expects 'text' or 'json'"), std::string::npos);
  EXPECT_NE(bad.err.find("usage:"), std::string::npos) << bad.err;
}

TEST_F(ToolTest, EngineRejectsRemovedVmTier) {
  // `--engine` takes only `threaded` or `compiled`; anything else, `vm`
  // included, is a usage error naming both.
  auto r = run_cli({"--engine=vm", "list"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("expects 'threaded' or 'compiled', got 'vm'"),
            std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("--engine=threaded|compiled"), std::string::npos)
      << r.err;
}

TEST_F(ToolTest, BatchRejectsBadInputs) {
  // Unknown declaration in the manifest.
  write(dir_ + "/bad.txt", "fitter NoSuchDecl\n");
  auto args = fitter_inputs();
  args.push_back("batch");
  args.push_back(dir_ + "/bad.txt");
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown declaration"), std::string::npos);

  // Malformed manifest line.
  write(dir_ + "/malformed.txt", "just-one-token\n");
  args = fitter_inputs();
  args.push_back("batch");
  args.push_back(dir_ + "/malformed.txt");
  r = run_cli(args);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("expected"), std::string::npos);

  // Missing manifest file.
  args = fitter_inputs();
  args.push_back("batch");
  args.push_back(dir_ + "/nope.txt");
  r = run_cli(args);
  EXPECT_EQ(r.code, 1);

  // Non-numeric --jobs.
  write(dir_ + "/pairs.txt", "fitter JavaIdeal.fitter\n");
  args = fitter_inputs();
  args.push_back("batch");
  args.push_back(dir_ + "/pairs.txt");
  args.push_back("--jobs");
  args.push_back("lots");
  r = run_cli(args);
  EXPECT_EQ(r.code, 2);

  // Non-numeric --chunk.
  args = fitter_inputs();
  args.insert(args.end(),
              {"batch", dir_ + "/pairs.txt", "--chunk", "several"});
  r = run_cli(args);
  EXPECT_EQ(r.code, 2);

  // --jobs 0 is a usage error, not a silent coercion to 1.
  args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/pairs.txt", "--jobs", "0"});
  r = run_cli(args);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--jobs must be at least 1"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;

  // Negative counts read as non-numeric (the values are sizes).
  args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/pairs.txt", "--chunk", "-3"});
  r = run_cli(args);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("non-negative integer"), std::string::npos) << r.err;
}

// ---- streaming batch ---------------------------------------------------------

TEST_F(ToolTest, BatchEmptyManifestReportsNoPairs) {
  // Empty and comment-only manifests exit 2 with "no pairs" and emit no
  // report (there is nothing to stream).
  write(dir_ + "/empty.txt", "");
  auto args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/empty.txt"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("no pairs"), std::string::npos);
  EXPECT_EQ(r.out.find("\"pairs\""), std::string::npos) << r.out;

  write(dir_ + "/comments.txt", "# header\n\n   # another\n");
  args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/comments.txt"});
  r = run_cli(args);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("no pairs"), std::string::npos);
}

TEST_F(ToolTest, BatchMalformedLineMidStreamStillReportsPriorPairs) {
  // A malformed line mid-manifest stops ingestion, carries its LINE
  // NUMBER, and the report still covers every pair before the error —
  // exactly what an operator needs to resume a 100k-pair run.
  write(dir_ + "/midbad.txt",
        "fitter JavaIdeal.fitter\n"
        "Point Line\n"
        "only-one-token\n"
        "fitter JavaIdeal.fitter\n");
  auto args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/midbad.txt", "--jobs", "2"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("midbad.txt:3"), std::string::npos)
      << "error should carry the manifest line number: " << r.err;
  EXPECT_NE(r.err.find("expected"), std::string::npos);
  // The two pairs before the bad line are fully reported...
  EXPECT_NE(r.out.find("\"pairs\": 2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"verdict\": \"equivalent\""), std::string::npos);
  // ...and the summary records the manifest error with its line.
  EXPECT_NE(r.out.find("\"manifest_error\""), std::string::npos) << r.out;
  EXPECT_EQ(json_int_value(r.out, "line"), 3) << r.out;

  // Same mid-stream semantics for an unknown declaration (exit 1).
  write(dir_ + "/midunknown.txt",
        "fitter JavaIdeal.fitter\n"
        "fitter NoSuchDecl\n");
  args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/midunknown.txt"});
  r = run_cli(args);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("midunknown.txt:2"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("unknown declaration"), std::string::npos);
  EXPECT_NE(r.out.find("\"pairs\": 1"), std::string::npos) << r.out;
}

TEST_F(ToolTest, BatchReportIsInManifestOrderUnderParallelJobs) {
  // Per-pair records must appear in MANIFEST order even at --jobs 4 —
  // completion order is nondeterministic, report order is not. The
  // mismatch pair sits between two equivalent ones so a completion-order
  // writer would be caught by the verdict sequence.
  write(dir_ + "/ordered.txt",
        "fitter JavaIdeal.fitter\n"
        "Point Line\n"
        "fitter JavaIdeal.fitter\n"
        "Line Point\n");
  auto args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/ordered.txt", "--jobs", "4"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  std::vector<std::string> lefts = {"\"left\": \"fitter\"",
                                    "\"left\": \"Point\"",
                                    "\"left\": \"fitter\"",
                                    "\"left\": \"Line\""};
  size_t pos = 0;
  for (const auto& needle : lefts) {
    pos = r.out.find(needle, pos);
    ASSERT_NE(pos, std::string::npos) << r.out;
    ++pos;
  }
  // Summary records the streaming shape: one block, the auto chunk.
  EXPECT_EQ(json_int_value(r.out, "blocks"), 1) << r.out;
  EXPECT_GT(json_int_value(r.out, "chunk"), 0) << r.out;
}

TEST_F(ToolTest, BatchStreamsLargeManifestWithBoundedMemory) {
  // 10k-pair manifest (cycling 3 distinct pairs) spanning multiple
  // streaming blocks. Asserts the full pair count, multi-block
  // streaming, and that peak RSS stays far below what materializing
  // per-pair state for the whole manifest would need — the gauge is the
  // report's own getrusage reading.
  std::ofstream f(dir_ + "/big.txt");
  for (int k = 0; k < 10000; ++k) {
    f << (k % 3 == 0 ? "Point Line\n" : "fitter JavaIdeal.fitter\n");
  }
  f.close();
  auto args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/big.txt", "--jobs", "2", "--out",
                           dir_ + "/big_report.json"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream rep(dir_ + "/big_report.json");
  std::stringstream ss;
  ss << rep.rdbuf();
  const std::string report = ss.str();
  EXPECT_NE(report.find("\"pairs\": 10000"), std::string::npos);
  EXPECT_EQ(json_int_value(report, "blocks"), 3) << "10000 pairs / 4096";
  // Nearly every pair resolves through the cross-pair memo.
  EXPECT_GT(json_int_value(report, "memo_hits"), 9000);
  const long rss_kb = json_int_value(report, "peak_rss_kb");
  EXPECT_GT(rss_kb, 0) << report;
  // Generous ceiling (test binary + toolchain overhead included): the
  // point is O(block), not O(manifest) — a driver that materialized 10k
  // pair records + results would show up here long before 512MB.
  EXPECT_LT(rss_kb, 512 * 1024) << report;
}

// ---- durable cache + serve ---------------------------------------------------

TEST_F(ToolTest, BatchCacheFileWarmRestartMemoResolvesEverything) {
  // Record (port-free) pairs only: function pairs embed ports, whose
  // cache entries bind process-local graph refs and never persist — the
  // durable warm-restart contract covers portable entries.
  write(dir_ + "/pairs.txt",
        "Point Line\n"
        "Point Point\n"
        "Line Line\n");
  const std::string cache = dir_ + "/warm.mbc";
  std::remove(cache.c_str());  // TempDir persists across test runs
  auto args = fitter_inputs();
  args.insert(args.end(), {"batch", dir_ + "/pairs.txt", "--cache", cache});
  auto r1 = run_cli(args);
  EXPECT_EQ(r1.code, 0) << r1.err;
  EXPECT_NE(r1.out.find("\"store\": {"), std::string::npos) << r1.out;
  EXPECT_GT(json_int_value(r1.out, "appends"), 0) << r1.out;

  // Second PROCESS (fresh run_cli = fresh ServiceCore): every pair must
  // memo-resolve from the file, without the comparer.
  auto r2 = run_cli(args);
  EXPECT_EQ(r2.code, 0) << r2.err;
  EXPECT_EQ(json_int_value(r2.out, "memo_hits"), 3) << r2.out;
  // The comparer never ran: its counter is 0 or absent (-1) in the delta.
  EXPECT_LE(json_int_value(r2.out, "compare.runs"), 0) << r2.out;
}

TEST_F(ToolTest, CompareCacheFlagPersistsVerdicts) {
  const std::string cache = dir_ + "/cmp.mbc";
  auto args = fitter_inputs();
  args.insert(args.end(), {"compare", "Point", "Line", "--cache", cache});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 1) << r.err;  // mismatch is exit 1, with explanation
  EXPECT_NE(r.out.find("mismatch"), std::string::npos);

  args = fitter_inputs();
  args.insert(args.end(),
              {"compare", "fitter", "JavaIdeal.fitter", "--cache", cache});
  r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("equivalent"), std::string::npos);
}

TEST_F(ToolTest, ServeAnswersRequestFileAndRejectsUnknownOption) {
  write(dir_ + "/reqs.txt",
        "fitter JavaIdeal.fitter\n"
        "# comment\n"
        "fitter JavaIdeal.fitter\n");
  auto args = fitter_inputs();
  args.insert(args.end(), {"serve", "--requests", dir_ + "/reqs.txt",
                           "--cache", dir_ + "/serve.mbc"});
  auto r = run_cli(args);
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"verdict\": \"equivalent\""), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("\"served\": 2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"memo\": true"), std::string::npos)
      << "second request hits the memo: " << r.out;

  args = fitter_inputs();
  args.insert(args.end(), {"serve", "--wat"});
  r = run_cli(args);
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown serve option"), std::string::npos);

  args = fitter_inputs();
  args.insert(args.end(), {"serve", "--requests", dir_ + "/nope.txt"});
  r = run_cli(args);
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot read"), std::string::npos);
}

TEST_F(ToolTest, StatsExitsTwoOnUnparseableSnapshot) {
  // Exit 2 = bad snapshot (usage class), exit 1 = I/O — scripted consumers
  // rely on the distinction.
  write(dir_ + "/garbage.json", "{\"counters\": [this is not json\n");
  auto r = run_cli({"stats", dir_ + "/garbage.json"});
  EXPECT_EQ(r.code, 2) << r.out;
  EXPECT_NE(r.err.find("garbage.json"), std::string::npos) << r.err;

  write(dir_ + "/notjson.json", "hello world\n");
  auto h = run_cli({"stats", dir_ + "/notjson.json"});
  EXPECT_EQ(h.code, 2) << h.out;

  auto missing = run_cli({"stats", dir_ + "/nope.json"});
  EXPECT_EQ(missing.code, 1);
}

TEST_F(ToolTest, StatsRendersAllThreeInstrumentKinds) {
  write(dir_ + "/kinds.json",
        "{\n  \"counters\": {\"serve.requests\": 7},\n"
        "  \"gauges\": {\"rpc.reactor.queue_depth\": 3},\n"
        "  \"histograms\": {\"serve.latency_us\": {\"count\": 2, \"sum\": 10,"
        " \"p50\": 5, \"p95\": 6, \"p99\": 6, \"max\": 6}}\n}\n");
  auto r = run_cli({"stats", dir_ + "/kinds.json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("counters"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("serve.requests"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("gauges"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("rpc.reactor.queue_depth"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("histograms"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("serve.latency_us"), std::string::npos) << r.out;

  // A gauges-only snapshot must still render its one section.
  write(dir_ + "/gauges.json",
        "{\"counters\": {}, \"gauges\": {\"rpc.peer.7.inflight\": 2},"
        " \"histograms\": {}}");
  auto g = run_cli({"stats", dir_ + "/gauges.json"});
  EXPECT_EQ(g.code, 0) << g.err;
  EXPECT_NE(g.out.find("gauges"), std::string::npos) << g.out;
  EXPECT_NE(g.out.find("rpc.peer.7.inflight"), std::string::npos) << g.out;
}

TEST_F(ToolTest, StitchMergesTracesAlignsClocksAndDrawsFlows) {
  // Client file: epoch starts near 0, one rpc.call span [100, 150].
  write(dir_ + "/client.json",
        "{\"traceEvents\":[\n"
        "{\"name\":\"rpc.call\",\"cat\":\"mbird\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":100.000,\"dur\":50.000,\"args\":{"
        "\"trace_id\":\"00000000000000aa\",\"span_id\":\"0000000000000001\","
        "\"parent_span_id\":\"0000000000000000\"}}\n"
        "],\"displayTimeUnit\":\"ms\"}\n");
  // Daemon file: independent epoch (ts 9000), child of span 1.
  write(dir_ + "/daemon.json",
        "{\"traceEvents\":[\n"
        "{\"name\":\"serve.request\",\"cat\":\"mbird\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":9000.000,\"dur\":20.000,\"args\":{"
        "\"trace_id\":\"00000000000000aa\",\"span_id\":\"0000000000000002\","
        "\"parent_span_id\":\"0000000000000001\"}}\n"
        "],\"displayTimeUnit\":\"ms\"}\n");

  auto r = run_cli({"stats", "--stitch", dir_ + "/client.json",
                    dir_ + "/daemon.json", "-o", dir_ + "/merged.json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1 cross-process links"), std::string::npos) << r.out;

  std::ifstream f(dir_ + "/merged.json");
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string merged = ss.str();
  // Two process_name metadata rows, one per input file.
  EXPECT_NE(merged.find("\"process_name\""), std::string::npos) << merged;
  EXPECT_NE(merged.find("client.json"), std::string::npos) << merged;
  EXPECT_NE(merged.find("daemon.json"), std::string::npos) << merged;
  // The daemon span is re-clocked inside the client span: centered means
  // ts 100 + (50-20)/2 = 115.
  EXPECT_NE(merged.find("\"serve.request\",\"cat\":\"mbird\",\"ph\":\"X\","
                        "\"pid\":2,\"tid\":1,\"ts\":115.000"),
            std::string::npos)
      << merged;
  // Flow arrow endpoints keyed by the child span id.
  EXPECT_NE(merged.find("\"ph\":\"s\",\"id\":\"0x0000000000000002\""),
            std::string::npos)
      << merged;
  EXPECT_NE(merged.find("\"ph\":\"f\",\"bp\":\"e\","
                        "\"id\":\"0x0000000000000002\""),
            std::string::npos)
      << merged;
}

TEST_F(ToolTest, StitchRejectsBadInputs) {
  write(dir_ + "/ok.json",
        "{\"traceEvents\":[\n{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":1.0,\"dur\":1.0}\n],\"displayTimeUnit\":\"ms\"}\n");
  write(dir_ + "/bad.json", "not a trace\n");

  // Unparseable input: exit 2.
  auto r = run_cli({"stats", "--stitch", dir_ + "/ok.json",
                    dir_ + "/bad.json"});
  EXPECT_EQ(r.code, 2) << r.out;
  EXPECT_NE(r.err.find("bad.json"), std::string::npos) << r.err;

  // Fewer than two files: usage error.
  auto one = run_cli({"stats", "--stitch", dir_ + "/ok.json"});
  EXPECT_EQ(one.code, 2);
  EXPECT_NE(one.err.find("at least two"), std::string::npos) << one.err;

  // Missing file: I/O error, exit 1.
  auto io = run_cli({"stats", "--stitch", dir_ + "/ok.json",
                     dir_ + "/nope.json"});
  EXPECT_EQ(io.code, 1);
}

TEST_F(ToolTest, TopRejectsBadArguments) {
  auto r = run_cli({"top"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--connect"), std::string::npos) << r.err;

  auto unk = run_cli({"top", "--connect", "unix:/tmp/x.sock", "--wat"});
  EXPECT_EQ(unk.code, 2);
  EXPECT_NE(unk.err.find("unknown top option"), std::string::npos) << unk.err;

  // Unreachable daemon is a runtime failure, not a usage error.
  auto down = run_cli({"top", "--connect", "unix:/tmp/mbird-no-such.sock",
                       "--once", "--json", "--timeout", "500"});
  EXPECT_EQ(down.code, 1) << down.out;
}

}  // namespace
}  // namespace mbird::tool
