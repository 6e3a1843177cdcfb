// Tests for tcprx_check: lexer/config/structure units, each rule against its
// must-flag/must-pass fixture pair under tests/analysis/fixtures/, and a golden
// end-to-end run of the whole fixture set with the project's compiled-in config.
//
// Fixtures are analyzed under a synthetic src/<layer>/ display path so the layer
// rules fire; the files themselves are never compiled.

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/analyzer.h"

namespace tcprx::analysis {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string SourcePath(const std::string& rel) {
  return std::string(TCPRX_SOURCE_DIR) + "/" + rel;
}

// One rule's fixture pair plus the display path the pair is analyzed under.
struct FixtureCase {
  const char* rule;         // rule id expected from must_flag
  const char* dir;          // fixtures subdirectory
  const char* flag_name;    // must-flag file name
  const char* pass_name;    // must-pass file name
  const char* display_path; // synthetic repo path fed to Analyze
  int min_findings;         // at least this many findings of `rule` in must_flag
};

const FixtureCase kCases[] = {
    {"determinism", "determinism", "must_flag.cc", "must_pass.cc",
     "src/tcp/fixture.cc", 4},
    {"layering", "layering", "must_flag.cc", "must_pass.cc",
     "src/nic/fixture.cc", 2},
    {"guard", "guard", "must_flag.h", "must_pass.h", "src/util/fixture.h", 1},
    {"byteorder", "byteorder", "must_flag.cc", "must_pass.cc",
     "src/tcp/fixture.cc", 2},
    {"charge", "charge", "must_flag.cc", "must_pass.cc", "src/tcp/fixture.cc", 2},
    {"charge", "charge-writer", "must_flag.cc", "must_pass.cc", "src/tcp/fixture.cc", 1},
    {"smp-share", "smp-share", "must_flag.h", "must_pass.h",
     "src/smp/fixture.h", 2},
};

std::vector<Finding> CheckFixture(const std::string& rel,
                                  const std::string& display_path) {
  const std::string contents = ReadFile(SourcePath("tests/analysis/fixtures/" + rel));
  const AnalyzedFile file = Analyze(display_path, contents);
  std::vector<Finding> findings;
  CheckAll(file, ProjectConfig(), findings);
  return findings;
}

// ---- lexer ------------------------------------------------------------------------

TEST(Lexer, TokenizesWordsAndConsumesCommentsAndStrings) {
  const LexedFile lex = Lex("int x = 7; // rand()\nconst char* s = \"time(0)\";\n");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "time");
  }
  ASSERT_GE(lex.tokens.size(), 5u);
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_TRUE(lex.tokens[0].is_word);
}

TEST(Lexer, RawStringsAreConsumedWhole) {
  const LexedFile lex = Lex("auto s = R\"(rand() \" time(0))\"; int y;");
  bool saw_y = false;
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "rand");
    saw_y |= t.text == "y";
  }
  EXPECT_TRUE(saw_y);
}

TEST(Lexer, SameLineAnnotationCoversOnlyItsLine) {
  const LexedFile lex = Lex("int a;  // tcprx-check: allow(charge)\nint b;\n");
  EXPECT_TRUE(lex.AllowedAt("charge", 1));
  EXPECT_FALSE(lex.AllowedAt("charge", 2));
}

TEST(Lexer, StandaloneAnnotationBlockCoversNextCodeLine) {
  const LexedFile lex = Lex(
      "// tcprx-check: allow(charge, byteorder) -- reason line one\n"
      "// continues on a second comment line\n"
      "\n"
      "memcpy(a, b, n);\n");
  EXPECT_TRUE(lex.AllowedAt("charge", 4));
  EXPECT_TRUE(lex.AllowedAt("byteorder", 4));
  EXPECT_FALSE(lex.AllowedAt("charge", 5));
}

TEST(Lexer, ExtractsIncludesAndGuards) {
  const LexedFile lex = Lex(
      "#ifndef FOO_H_\n#define FOO_H_\n"
      "#include \"src/tcp/tcp_types.h\"\n#include <vector>\n#endif\n");
  EXPECT_TRUE(lex.has_ifndef_guard);
  ASSERT_EQ(lex.includes.size(), 2u);
  EXPECT_EQ(lex.includes[0].path, "src/tcp/tcp_types.h");
  EXPECT_FALSE(lex.includes[0].angled);
  EXPECT_TRUE(lex.includes[1].angled);

  EXPECT_TRUE(Lex("#pragma once\nint x;\n").has_pragma_once);
  EXPECT_FALSE(Lex("int x;\n#ifndef A\n#define A\n#endif\n").has_ifndef_guard);
}

// ---- config -----------------------------------------------------------------------

TEST(Config, RealConfigHasEveryRuleSection) {
  const Config& config = ProjectConfig();
  EXPECT_FALSE(config.determinism_banned_calls.empty());
  EXPECT_FALSE(config.determinism_banned_types.empty());
  EXPECT_FALSE(config.layer_allow.empty());
  EXPECT_FALSE(config.byteorder_banned.empty());
  EXPECT_FALSE(config.charge_layers.empty());
  EXPECT_FALSE(config.charge_primitives.empty());
  EXPECT_FALSE(config.smp_shared_classes.empty());
  // Every layer named on the right of an allow edge is itself a known layer.
  for (const auto& [layer, allowed] : config.layer_allow) {
    for (const std::string& target : allowed) {
      EXPECT_EQ(config.layer_allow.count(target), 1u)
          << layer << " allows unknown layer " << target;
    }
  }
}

// ---- structure --------------------------------------------------------------------

TEST(Structure, ClassifiesNamespaceClassAndFunction) {
  const LexedFile lex = Lex(
      "namespace n {\n"
      "class Widget {\n"
      " public:\n"
      "  int Get() const { return v_; }\n"
      " private:\n"
      "  int v_ = 0;\n"
      "};\n"
      "}  // namespace n\n");
  const StructureInfo info = BuildStructure(lex.tokens);
  std::multiset<ScopeKind> kinds;
  for (const Region& r : info.regions) {
    kinds.insert(r.kind);
  }
  EXPECT_EQ(kinds.count(ScopeKind::kNamespace), 1u);
  EXPECT_EQ(kinds.count(ScopeKind::kClass), 1u);
  EXPECT_EQ(kinds.count(ScopeKind::kFunction), 1u);
  for (const Region& r : info.regions) {
    if (r.kind == ScopeKind::kClass) {
      EXPECT_EQ(r.name, "Widget");
    }
  }
}

// ---- per-rule fixture pairs -------------------------------------------------------

TEST(Fixtures, MustFlagFilesProduceTheirRulesFindings) {
  for (const FixtureCase& c : kCases) {
    const auto findings =
        CheckFixture(std::string(c.dir) + "/" + c.flag_name, c.display_path);
    int of_rule = 0;
    for (const Finding& f : findings) {
      EXPECT_EQ(f.rule, c.rule) << FormatFinding(f) << " (unexpected rule in "
                                << c.dir << "/" << c.flag_name << ")";
      of_rule += f.rule == c.rule ? 1 : 0;
    }
    EXPECT_GE(of_rule, c.min_findings) << c.dir << "/" << c.flag_name;
  }
}

TEST(Fixtures, MustPassFilesAreClean) {
  for (const FixtureCase& c : kCases) {
    const auto findings =
        CheckFixture(std::string(c.dir) + "/" + c.pass_name, c.display_path);
    for (const Finding& f : findings) {
      ADD_FAILURE() << "unexpected finding in " << c.dir << "/" << c.pass_name
                    << ": " << FormatFinding(f);
    }
  }
}

// ---- golden end-to-end run --------------------------------------------------------

// The full must-flag fixture set, formatted, must match the checked-in golden
// file exactly — locking message wording and line attribution, not just counts.
TEST(Fixtures, GoldenEndToEndRun) {
  std::string actual;
  for (const FixtureCase& c : kCases) {
    for (const Finding& f :
         CheckFixture(std::string(c.dir) + "/" + c.flag_name, c.display_path)) {
      // Prefix with the fixture dir so identical display paths stay distinct.
      actual += std::string(c.dir) + "/" + c.flag_name + ": " + FormatFinding(f) + "\n";
    }
  }
  const std::string expected = ReadFile(SourcePath("tests/analysis/fixtures/golden.txt"));
  EXPECT_EQ(actual, expected)
      << "golden mismatch; if the change is intentional, update "
         "tests/analysis/fixtures/golden.txt to:\n"
      << actual;
}

}  // namespace
}  // namespace tcprx::analysis
