// Tests for gl_analyze (tools/analyze/): the lexer, the fixture corpus, the
// cross-file GL001 and GL010 resolution, GL020's scope walk, the baseline
// machinery, SARIF shape, and the incremental cache's invalidation behavior.
//
// The fixture corpus itself is exercised two ways: RunSelfTest (the same
// code path `gl_analyze --self-test` uses) and per-fixture assertions that
// positives fire exactly their rule and negatives stay clean.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/facts.h"
#include "analyze/lexer.h"
#include "gtest/gtest.h"

namespace gl::analyze {
namespace {

namespace fs = std::filesystem;

#ifndef GL_ANALYZE_FIXTURES_DIR
#error "tests/CMakeLists.txt must define GL_ANALYZE_FIXTURES_DIR"
#endif

std::string FixturesDir() { return GL_ANALYZE_FIXTURES_DIR; }

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

std::set<std::string> FiredRules(const std::string& path) {
  const std::string source = ReadFileOrDie(path);
  const std::vector<FileFacts> facts = {ExtractFacts(path, source)};
  std::set<std::string> fired;
  for (const Finding& f : Analyze(facts, AnalysisOptions{})) {
    fired.insert(f.rule_id);
  }
  return fired;
}

// Findings for in-memory sources, analyzed together.
std::vector<Finding> AnalyzeSources(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<FileFacts> facts;
  facts.reserve(sources.size());
  for (const auto& [path, src] : sources) {
    facts.push_back(ExtractFacts(path, src));
  }
  return Analyze(facts, AnalysisOptions{});
}

// A scratch directory unique to this test binary run.
class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("gl_analyze_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

// --- lexer -----------------------------------------------------------------

TEST(Lexer, RawStringsAndCommentsAreSingleTokens) {
  const std::vector<Token> toks = Lex(
      "auto s = R\"x(push_back( // not a comment)x\";\n"
      "// a real comment with new in it\n"
      "int n = 1'000'000;\n");
  int strings = 0;
  int comments = 0;
  int numbers = 0;
  for (const Token& t : toks) {
    strings += t.kind == TokKind::kString ? 1 : 0;
    comments += t.kind == TokKind::kComment ? 1 : 0;
    numbers += t.kind == TokKind::kNumber ? 1 : 0;
  }
  EXPECT_EQ(strings, 1);
  EXPECT_EQ(comments, 1);
  EXPECT_EQ(numbers, 1);  // digit separators stay inside one number token
  // Nothing inside the raw string or the comment leaks out as an ident.
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "push_back");
    if (t.kind == TokKind::kIdent) {
      EXPECT_NE(t.text, "new");
    }
  }
}

TEST(Lexer, PreprocessorContinuationsFoldIntoOneToken) {
  const std::vector<Token> toks = Lex(
      "#define GROW(v) \\\n  (v).push_back(0)\nint x;\n");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, TokKind::kPreprocessor);
  EXPECT_NE(toks[0].text.find("push_back"), std::string::npos);
  // The macro body never reads as structural tokens.
  const FileFacts facts = ExtractFacts("m.cc", "#define GROW(v) \\\n  (v).push_back(0)\nint x;\n");
  EXPECT_TRUE(facts.allocs.empty());
}

TEST(Lexer, TracksLinesAcrossMultilineTokens) {
  const std::vector<Token> toks = Lex("/* a\n b */\nint x;\n");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokKind::kComment);
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].text, "int");
  EXPECT_EQ(toks[1].line, 3);
}

// --- fixture corpus --------------------------------------------------------

TEST(Fixtures, SelfTestPasses) {
  std::ostringstream out;
  const int failures = RunSelfTest(FixturesDir(), AnalysisOptions{}, out);
  EXPECT_EQ(failures, 0) << out.str();
}

TEST(Fixtures, PositivesFireExactlyTheirRules) {
  for (const RuleInfo& r : Rules()) {
    std::string file = r.id;
    file[0] = 'g';
    file[1] = 'l';
    file += "_pos.cc";
    const std::set<std::string> fired =
        FiredRules(FixturesDir() + "/" + file);
    EXPECT_EQ(fired, std::set<std::string>{r.id}) << file;
  }
}

TEST(Fixtures, NegativesAreClean) {
  for (const RuleInfo& r : Rules()) {
    std::string file = r.id;
    file[0] = 'g';
    file[1] = 'l';
    file += "_neg.cc";
    EXPECT_TRUE(FiredRules(FixturesDir() + "/" + file).empty()) << file;
  }
}

// --- cross-file reachability (GL010) ---------------------------------------

TEST(HotPath, AllocationReachableAcrossFilesIsFound) {
  // Root in one file, allocation two hops away in another.
  const std::string a =
      "namespace x {\n"
      "void Helper(int n);\n"
      "int Bisect(int n) { Helper(n); return n; }\n"
      "}  // namespace x\n";
  const std::string b =
      "#include <vector>\n"
      "namespace x {\n"
      "void Leaf(int n) { std::vector<int> v(n, 0); (void)v; }\n"
      "void Helper(int n) { Leaf(n); }\n"
      "}  // namespace x\n";
  const std::vector<FileFacts> facts = {ExtractFacts("a.cc", a),
                                        ExtractFacts("b.cc", b)};
  const std::vector<Finding> findings = Analyze(facts, AnalysisOptions{});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL010");
  EXPECT_EQ(findings[0].path, "b.cc");
  // The message carries the whole chain from the root.
  EXPECT_NE(findings[0].message.find("Bisect -> Helper -> Leaf"),
            std::string::npos)
      << findings[0].message;
}

TEST(HotPath, FileLocalDefinitionShadowsForeignNameCollision) {
  // a.cc's root calls its own file-local Step(); c.cc has an unrelated
  // allocating Step(). Scoped resolution must not fuse the two graphs.
  const std::string a =
      "namespace x {\n"
      "void Step(int) {}\n"
      "int Bisect(int n) { Step(n); return n; }\n"
      "}  // namespace x\n";
  const std::string c =
      "#include <vector>\n"
      "namespace y {\n"
      "void Step(int n) { std::vector<int> v(n, 1); (void)v; }\n"
      "}  // namespace y\n";
  const std::vector<FileFacts> facts = {ExtractFacts("a.cc", a),
                                        ExtractFacts("c.cc", c)};
  EXPECT_TRUE(Analyze(facts, AnalysisOptions{}).empty());
}

TEST(HotPath, CustomRootSpecs) {
  const std::string src =
      "#include <vector>\n"
      "struct Engine {\n"
      "  void Run(int n) { std::vector<int> v(n, 0); (void)v; }\n"
      "};\n";
  AnalysisOptions opts;
  opts.hot_roots = {"Engine::"};
  const std::vector<FileFacts> facts = {ExtractFacts("e.cc", src)};
  const std::vector<Finding> findings = Analyze(facts, opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL010");
}

TEST(HotPath, LoopAllocInsideHotLoopFires) {
  // Bisect is a hot root, so GL010 flags every allocation in it, inside a
  // loop or not: the per-iteration buffer on line 5 is one of its sites.
  const std::string src =
      "#include <vector>\n"
      "int Bisect(int n) {\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    std::vector<int> tmp(8, 0);\n"  // allocates every iteration
      "    acc += tmp[0] + i;\n"
      "  }\n"
      "  return acc;\n"
      "}\n";
  bool fired = false;
  for (const Finding& f : AnalyzeSources({{"s.cc", src}})) {
    fired = fired || (f.rule_id == "GL010" && f.line == 5);
  }
  EXPECT_TRUE(fired) << "allocation in a hot loop not flagged";
}

// --- baseline --------------------------------------------------------------

TEST(Baseline, SuppressesByFingerprintAndReportsStale) {
  const std::string fixture = FixturesDir() + "/gl010_pos.cc";
  const std::vector<FileFacts> facts = {
      ExtractFacts(fixture, ReadFileOrDie(fixture))};
  const std::vector<Finding> all = Analyze(facts, AnalysisOptions{});
  ASSERT_GT(all.size(), 1u);

  // Baseline the first finding by its (rule, line text) fingerprint with a
  // bare-filename path — the finding carries the full fixture path, so this
  // exercises the '/'-boundary suffix match and the absence of line numbers
  // from the key. The second entry names the analyzed file but matches
  // nothing, so it is stale; the third names a file this run did not
  // analyze, so it cannot be judged and is not stale.
  TempDir tmp;
  const std::string bl = tmp.Path("baseline.txt");
  WriteFileOrDie(bl, "# justification\n" + all[0].rule_id + "|gl010_pos.cc|" +
                         all[0].line_text +
                         "\nGL010|fixtures/gl010_pos.cc|int* p = new int;\n"
                         "GL010|some/other/file.cc|int* p = new int;\n");
  Baseline baseline;
  std::string err;
  ASSERT_TRUE(LoadBaseline(bl, &baseline, &err)) << err;
  ASSERT_EQ(baseline.entries.size(), 3u);

  const BaselineResult r = ApplyBaseline(all, baseline, {fixture});
  EXPECT_EQ(r.suppressed, 1);
  EXPECT_EQ(r.fresh.size(), all.size() - 1);
  ASSERT_EQ(r.stale.size(), 1u);
  EXPECT_EQ(r.stale[0].path, "fixtures/gl010_pos.cc");
  // Analyzing the other file too makes its dead entry stale as well.
  EXPECT_EQ(ApplyBaseline(all, baseline, {fixture, "/x/some/other/file.cc"})
                .stale.size(),
            2u);
}

TEST(Baseline, MalformedLinesAreRejected) {
  TempDir tmp;
  const std::string bl = tmp.Path("bad.txt");
  WriteFileOrDie(bl, "GL010 no pipes here\n");
  Baseline baseline;
  std::string err;
  EXPECT_FALSE(LoadBaseline(bl, &baseline, &err));
  EXPECT_NE(err.find("malformed"), std::string::npos);
}

// --- SARIF -----------------------------------------------------------------

TEST(Sarif, CarriesRuleIdsAndLocations) {
  const std::string fixture = FixturesDir() + "/gl011_pos.cc";
  const std::vector<FileFacts> facts = {
      ExtractFacts(fixture, ReadFileOrDie(fixture))};
  const std::string sarif = ToSarif(Analyze(facts, AnalysisOptions{}));
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"GL011\""), std::string::npos);
  EXPECT_NE(sarif.find("gl011_pos.cc"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":"), std::string::npos);
  // All four rules are declared in the driver even when fewer fire.
  for (const RuleInfo& r : Rules()) {
    EXPECT_NE(sarif.find(r.id), std::string::npos);
  }
}

// --- facts serialization round-trip ----------------------------------------

TEST(Facts, SerializationRoundTrips) {
  const std::string fixture = FixturesDir() + "/gl010_pos.cc";
  const FileFacts facts = ExtractFacts(fixture, ReadFileOrDie(fixture));
  std::string blob;
  SerializeFacts(facts, &blob);
  FileFacts back;
  ASSERT_TRUE(DeserializeFacts(blob, &back));
  std::string blob2;
  SerializeFacts(back, &blob2);
  EXPECT_EQ(blob, blob2);
  EXPECT_EQ(back.functions.size(), facts.functions.size());
  EXPECT_EQ(back.allocs.size(), facts.allocs.size());
  EXPECT_EQ(back.calls.size(), facts.calls.size());
}

TEST(Facts, DeserializeRejectsGarbage) {
  FileFacts f;
  EXPECT_FALSE(DeserializeFacts("Z\tnot\ta\trecord\n", &f));
  EXPECT_FALSE(DeserializeFacts("F\tonly_two\tcols\n", &f));

  // Well-formed records that point outside their file: a return flow of
  // function 7 in a file with no functions, and allocation kind 42.
  EXPECT_FALSE(DeserializeFacts("T\t7\tv:x\t3\n", &f));
  const std::string one_fn = "F\tf\t\t1\t\t1\tvoid f() {}\n";
  ASSERT_TRUE(DeserializeFacts(one_fn + "A\t0\t0\tnew\t1\tnew\n", &f));
  EXPECT_FALSE(DeserializeFacts(one_fn + "A\t0\t42\tnew\t1\tnew\n", &f));

  // A real blob with one return flow moved past the function list: the
  // analysis would index `functions` with it, so it has to be re-extracted.
  const std::string fixture = FixturesDir() + "/gl014_pos.cc";
  std::string blob;
  SerializeFacts(ExtractFacts(fixture, ReadFileOrDie(fixture)), &blob);
  ASSERT_TRUE(DeserializeFacts(blob, &f));
  const std::size_t func = blob.find("\nT\t");
  ASSERT_NE(func, std::string::npos);
  blob.replace(func + 3, blob.find('\t', func + 3) - (func + 3), "9999");
  EXPECT_FALSE(DeserializeFacts(blob, &f));
}

// --- incremental cache -----------------------------------------------------

TEST(Cache, WarmRunReusesFactsAndEditInvalidates) {
  TempDir tmp;
  const std::string src_path = tmp.Path("unit.cc");
  const std::string cache = tmp.Path("cache");
  WriteFileOrDie(src_path,
                 "#include <vector>\n"
                 "int Bisect(int n) { std::vector<int> v(n, 0); return n; }\n");

  CacheStats cold;
  std::string err;
  std::vector<FileFacts> facts =
      LoadFacts({src_path}, cache, &cold, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(cold.files_lexed, 1);
  EXPECT_EQ(cold.files_cached, 0);
  EXPECT_EQ(Analyze(facts, AnalysisOptions{}).size(), 1u);

  CacheStats warm;
  facts = LoadFacts({src_path}, cache, &warm, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(warm.files_lexed, 0);
  EXPECT_EQ(warm.files_cached, 1);
  EXPECT_EQ(Analyze(facts, AnalysisOptions{}).size(), 1u);

  // Touch without change: rewriting identical bytes bumps the mtime, but
  // the content hash rescues the cache entry.
  WriteFileOrDie(src_path,
                 "#include <vector>\n"
                 "int Bisect(int n) { std::vector<int> v(n, 0); return n; }\n");
  CacheStats touched;
  facts = LoadFacts({src_path}, cache, &touched, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(touched.files_lexed, 0);
  EXPECT_EQ(touched.files_cached, 1);

  // Content edit: the hash changes, the entry is re-extracted, and the new
  // facts reflect the fix.
  WriteFileOrDie(src_path,
                 "#include <vector>\n"
                 "int Bisect(int n) { std::vector<int> w; (void)w; return n; }\n");
  CacheStats edited;
  facts = LoadFacts({src_path}, cache, &edited, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(edited.files_lexed, 1);
  EXPECT_TRUE(Analyze(facts, AnalysisOptions{}).empty());
}

TEST(Cache, MissingFileIsReportedNotFatal) {
  TempDir tmp;
  CacheStats stats;
  std::string err;
  const std::vector<FileFacts> facts =
      LoadFacts({tmp.Path("nope.cc")}, "", &stats, &err);
  EXPECT_TRUE(facts.empty());
  EXPECT_NE(err.find("nope.cc"), std::string::npos);
}

// --- GL014: units-of-measure dataflow --------------------------------------

TEST(Units, CrossFileCallBindingMixesDimensions) {
  const std::string callee =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double Headroom(double budget_w GL_UNITS(watts)) {\n"
      "  return 300.0 - budget_w;\n"
      "}\n"
      "}  // namespace x\n";
  const std::string caller =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double Headroom(double budget_w);\n"
      "double Slack() {\n"
      "  double window GL_UNITS(ms) = 5000.0;\n"
      "  return Headroom(window);\n"
      "}\n"
      "}  // namespace x\n";
  const std::vector<Finding> findings =
      AnalyzeSources({{"callee.cc", callee}, {"caller.cc", caller}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL014");
  EXPECT_EQ(findings[0].path, "caller.cc");
  EXPECT_NE(findings[0].message.find("declared watts"), std::string::npos);
}

TEST(Units, ConsistentArithmeticIsClean) {
  const std::string src =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double Total(double idle_w GL_UNITS(watts)) {\n"
      "  double dynamic_w GL_UNITS(watts) = 40.0;\n"
      "  return idle_w + dynamic_w;\n"
      "}\n"
      "}  // namespace x\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

TEST(Units, MixedDimensionBinopFires) {
  const std::string src =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double Bad(double idle_w GL_UNITS(watts),\n"
      "           double epoch_ms GL_UNITS(ms)) {\n"
      "  return idle_w + epoch_ms;\n"
      "}\n"
      "}  // namespace x\n";
  const std::vector<Finding> findings = AnalyzeSources({{"s.cc", src}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL014");
  EXPECT_NE(findings[0].message.find("mix dimensions"), std::string::npos);
}

TEST(Units, AnyParamAbsorbsAllDimensionsWithoutConflict) {
  // The GL_UNITS(any) helper takes watts in one caller and ms in another;
  // `any` erases the dimension instead of joining to conflict, so neither
  // the bindings nor downstream uses of the return value fire.
  const std::string src =
      "#define GL_UNITS(d)\n"
      "namespace x {\n"
      "double FiniteOrZero(double v GL_UNITS(any)) {\n"
      "  return v < 0.0 ? 0.0 : v;\n"
      "}\n"
      "double CheckW(double idle_w GL_UNITS(watts)) {\n"
      "  return FiniteOrZero(idle_w);\n"
      "}\n"
      "double CheckT(double epoch_ms GL_UNITS(ms)) {\n"
      "  return FiniteOrZero(epoch_ms);\n"
      "}\n"
      "}  // namespace x\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

// --- GL016: determinism taint ----------------------------------------------

TEST(Taint, ClockThroughCrossFileHelperReachesHash) {
  // MonotonicMicros is the sanctioned obs clock, so GL009 stays quiet: the
  // one finding is the flow into the hash.
  const std::string helper =
      "namespace x {\n"
      "unsigned long long TickStamp() {\n"
      "  const unsigned long long t = MonotonicMicros();\n"
      "  return t;\n"
      "}\n"
      "}  // namespace x\n";
  const std::string snapshot =
      "namespace x {\n"
      "unsigned long long TickStamp();\n"
      "void Snapshot(StateHash& h) {\n"
      "  const unsigned long long stamp = TickStamp();\n"
      "  h.MixU64(stamp);\n"
      "}\n"
      "}  // namespace x\n";
  const std::vector<Finding> findings =
      AnalyzeSources({{"helper.cc", helper}, {"snapshot.cc", snapshot}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL016");
  EXPECT_EQ(findings[0].path, "snapshot.cc");
  EXPECT_NE(findings[0].message.find("MixU64"), std::string::npos);
}

TEST(Taint, DeterministicDataAtSinkIsClean) {
  const std::string src =
      "#include <vector>\n"
      "namespace x {\n"
      "void Snapshot(StateHash& h, const std::vector<double>& loads) {\n"
      "  const unsigned long long placed = loads.size();\n"
      "  h.MixU64(placed);\n"
      "}\n"
      "}  // namespace x\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", src}}).empty());
}

// --- GL001: cross-file unordered iteration ----------------------------------

TEST(UnorderedIter, HeaderMemberAndReturnTypeResolveAcrossFiles) {
  const std::string header =
      "#include <unordered_map>\n"
      "class Index {\n"
      " public:\n"
      "  int Sum() const;\n"
      " private:\n"
      "  std::unordered_map<int, int> counts_;\n"
      "};\n"
      "std::unordered_map<int, int> Neighbors();\n";
  const std::string source =
      "#include \"index.h\"\n"
      "int Index::Sum() const {\n"
      "  int total = 0;\n"
      "  for (const auto& [k, n] : counts_) total += n;\n"
      "  const auto groups = Neighbors();\n"
      "  for (const auto& kv : groups) total += kv.second;\n"
      "  return total;\n"
      "}\n";
  const std::vector<Finding> findings =
      AnalyzeSources({{"index.h", header}, {"index.cc", source}});
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule_id, "GL001");
    EXPECT_EQ(f.path, "index.cc");
  }
  // Alone, the .cc cannot tell what counts_ and Neighbors() are.
  EXPECT_TRUE(AnalyzeSources({{"index.cc", source}}).empty());
}

// --- facts round-trip of the dataflow records --------------------------------

TEST(Facts, DataflowRecordsRoundTrip) {
  for (const char* name : {"/gl001_pos.cc", "/gl002_pos.cc", "/gl014_pos.cc",
                           "/gl016_pos.cc"}) {
    const std::string fixture = FixturesDir() + name;
    const FileFacts facts = ExtractFacts(fixture, ReadFileOrDie(fixture));
    std::string blob;
    SerializeFacts(facts, &blob);
    FileFacts back;
    ASSERT_TRUE(DeserializeFacts(blob, &back)) << name;
    std::string blob2;
    SerializeFacts(back, &blob2);
    EXPECT_EQ(blob, blob2) << name;
    EXPECT_EQ(back.unit_decls.size(), facts.unit_decls.size()) << name;
    EXPECT_EQ(back.binops.size(), facts.binops.size()) << name;
    EXPECT_EQ(back.call_args.size(), facts.call_args.size()) << name;
    EXPECT_EQ(back.taint_seeds.size(), facts.taint_seeds.size()) << name;
    EXPECT_EQ(back.loops.size(), facts.loops.size()) << name;
    EXPECT_EQ(back.unordered_names.size(), facts.unordered_names.size())
        << name;
    EXPECT_EQ(back.rule_hits.size(), facts.rule_hits.size()) << name;
  }
  // The record kinds are actually present in the corpus.
  const FileFacts units = ExtractFacts(
      FixturesDir() + "/gl014_pos.cc",
      ReadFileOrDie(FixturesDir() + "/gl014_pos.cc"));
  EXPECT_FALSE(units.unit_decls.empty());
  EXPECT_FALSE(units.binops.empty());
  const FileFacts loops = ExtractFacts(
      FixturesDir() + "/gl001_pos.cc",
      ReadFileOrDie(FixturesDir() + "/gl001_pos.cc"));
  EXPECT_FALSE(loops.taint_seeds.empty());
  EXPECT_FALSE(loops.loops.empty());
  EXPECT_FALSE(loops.unordered_names.empty());
  const FileFacts rng = ExtractFacts(
      FixturesDir() + "/gl002_pos.cc",
      ReadFileOrDie(FixturesDir() + "/gl002_pos.cc"));
  EXPECT_FALSE(rng.rule_hits.empty());
}

// --- GL020: a narrowing cast needs a check in an enclosing scope -------------

constexpr const char* kVertexIndexPrelude =
    "#include <cstdint>\n"
    "using VertexIndex = std::int32_t;\n";

TEST(Narrowing, NeedsACheckInScope) {
  const std::string unchecked =
      std::string(kVertexIndexPrelude) +
      "VertexIndex Id(std::size_t p) {\n"
      "  return static_cast<VertexIndex>(p);\n"
      "}\n";
  const std::vector<Finding> findings =
      AnalyzeSources({{"s.cc", unchecked}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "GL020");

  const std::string checked =
      std::string(kVertexIndexPrelude) +
      "VertexIndex Id(std::size_t p, std::size_t hi) {\n"
      "  GOLDILOCKS_CHECK(p < hi);\n"
      "  return static_cast<VertexIndex>(p);\n"
      "}\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", checked}}).empty());

  // An early exit's condition grants to the scope that holds the `if`.
  const std::string early_exit =
      std::string(kVertexIndexPrelude) +
      "VertexIndex Id(std::size_t p) {\n"
      "  if (p >= 100) return 0;\n"
      "  return static_cast<VertexIndex>(p);\n"
      "}\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", early_exit}}).empty());

  // A loop condition grants inside a lambda body as it does in a function
  // body (the chunk-lambda loops of the coarsener and the FM gain pass).
  const std::string chunk_loop =
      std::string(kVertexIndexPrelude) +
      "#include <vector>\n"
      "void Fill(std::vector<VertexIndex>& out, std::size_t n) {\n"
      "  const auto fill = [&](std::size_t begin, std::size_t end) {\n"
      "    for (std::size_t i = begin; i < end; ++i) {\n"
      "      out[i] = static_cast<VertexIndex>(i);\n"
      "    }\n"
      "  };\n"
      "  fill(0, n);\n"
      "}\n";
  EXPECT_TRUE(AnalyzeSources({{"s.cc", chunk_loop}}).empty());
}

TEST(Narrowing, CheckInAClosedScopeDoesNotGuard) {
  // Each check sits in a scope that has closed before the cast (the taken
  // branch, a braceless if body, another case arm, a lambda body), so the
  // cast still narrows unchecked.
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"braced branch",
       "VertexIndex Id(std::size_t p, bool fast) {\n"
       "  if (fast) {\n"
       "    GOLDILOCKS_CHECK(p < 100);\n"
       "  }\n"
       "  return static_cast<VertexIndex>(p);\n"
       "}\n"},
      {"braceless if",
       "VertexIndex Id(std::size_t p, bool fast) {\n"
       "  if (fast) GOLDILOCKS_CHECK(p < 100);\n"
       "  return static_cast<VertexIndex>(p);\n"
       "}\n"},
      {"case arm",
       "VertexIndex Id(std::size_t p, int mode) {\n"
       "  switch (mode) {\n"
       "    case 0: GOLDILOCKS_CHECK(p < 100); break;\n"
       "    case 1:\n"
       "      return static_cast<VertexIndex>(p);\n"
       "  }\n"
       "  return 0;\n"
       "}\n"},
      {"lambda body",
       "VertexIndex Id(std::size_t p) {\n"
       "  const auto check = [&] { GOLDILOCKS_CHECK(p < 100); };\n"
       "  check();\n"
       "  return static_cast<VertexIndex>(p);\n"
       "}\n"},
  };
  for (const auto& [shape, body] : shapes) {
    const std::vector<Finding> findings = AnalyzeSources(
        {{"s.cc", std::string(kVertexIndexPrelude) + body}});
    ASSERT_EQ(findings.size(), 1u) << shape;
    EXPECT_EQ(findings[0].rule_id, "GL020") << shape;
    EXPECT_EQ(findings[0].line_text, "return static_cast<VertexIndex>(p);")
        << shape;
  }
}

// --- cache invalidation on config change --------------------------------------

TEST(Cache, ConfigHashChangeInvalidatesWholeCache) {
  TempDir tmp;
  const std::string src_path = tmp.Path("unit.cc");
  const std::string cache = tmp.Path("cache");
  WriteFileOrDie(src_path,
                 "#include <vector>\n"
                 "int Bisect(int n) { std::vector<int> v(n, 0); return n; }\n");

  CacheStats cold;
  std::string err;
  (void)LoadFacts({src_path}, cache, &cold, &err, /*config_hash=*/7);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(cold.files_lexed, 1);

  // Same config: warm.
  CacheStats warm;
  (void)LoadFacts({src_path}, cache, &warm, &err, /*config_hash=*/7);
  EXPECT_EQ(warm.files_cached, 1);
  EXPECT_EQ(warm.files_lexed, 0);

  // Different config (a rule set, hence an extractor, that changed): the
  // whole cache is stale even though no source changed.
  CacheStats changed;
  (void)LoadFacts({src_path}, cache, &changed, &err, /*config_hash=*/8);
  EXPECT_EQ(changed.files_cached, 0);
  EXPECT_EQ(changed.files_lexed, 1);

  // And the new config re-warms on the next run.
  CacheStats rewarm;
  (void)LoadFacts({src_path}, cache, &rewarm, &err, /*config_hash=*/8);
  EXPECT_EQ(rewarm.files_cached, 1);
}

}  // namespace
}  // namespace gl::analyze
