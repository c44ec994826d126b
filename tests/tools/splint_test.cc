/**
 * @file
 * Unit tests for the splint lint library: every rule on good/bad
 * snippets, the allow mechanism, the JSON report schema, the
 * committed fixtures (self-test), and -- the gate that matters -- the
 * real source tree linting clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "splint/splint.h"

namespace
{

using sp::splint::Diagnostic;
using sp::splint::lintSource;
using sp::splint::lintTree;

std::vector<std::string>
ruleIds(const std::vector<Diagnostic> &diagnostics)
{
    std::vector<std::string> ids;
    for (const Diagnostic &diag : diagnostics)
        ids.push_back(diag.rule);
    return ids;
}

size_t
countRule(const std::vector<Diagnostic> &diagnostics, const char *rule)
{
    const std::vector<std::string> ids = ruleIds(diagnostics);
    return static_cast<size_t>(std::count(ids.begin(), ids.end(), rule));
}

std::string
describe(const std::vector<Diagnostic> &diagnostics)
{
    return sp::splint::toText(diagnostics);
}

TEST(SplintRuleTable, IdsAreUniqueAndFullyDescribed)
{
    std::set<std::string> seen;
    for (const sp::splint::Rule &rule : sp::splint::rules()) {
        EXPECT_TRUE(seen.insert(rule.id).second)
            << "duplicate rule id " << rule.id;
        EXPECT_NE(std::string(rule.summary), "") << rule.id;
        EXPECT_NE(std::string(rule.fixit), "") << rule.id;
        EXPECT_EQ(sp::splint::findRule(rule.id), &rule);
    }
    EXPECT_EQ(sp::splint::findRule("no-such-rule"), nullptr);
}

TEST(SplintNoRawThread, FiresOnThreadAsyncAndPthread)
{
    const auto diags = lintSource(
        "src/sys/x.cc",
        "#include <thread>\n"
        "void f() { std::thread t([]{}); t.join(); }\n"
        "void g() { auto r = std::async([]{}); }\n"
        "void h() { pthread_create(nullptr, nullptr, nullptr, "
        "nullptr); }\n");
    EXPECT_EQ(countRule(diags, "no-raw-thread"), 3u) << describe(diags);
    EXPECT_EQ(diags[0].line, 2u);
    EXPECT_EQ(diags[0].severity, sp::splint::Severity::Error);
}

TEST(SplintNoRawThread, ThreadPoolTUIsExempt)
{
    const std::string text = "std::thread worker;\n";
    EXPECT_TRUE(lintSource("src/common/thread_pool.cc", text).empty());
    EXPECT_TRUE(lintSource("src/common/thread_pool.h", text).empty());
    EXPECT_EQ(countRule(lintSource("src/sim/x.cc", text),
                        "no-raw-thread"),
              1u);
}

TEST(SplintNoRawThread, CommentsAndStringsDoNotFire)
{
    const auto diags = lintSource(
        "src/sys/x.cc",
        "// prose about std::thread is fine\n"
        "/* std::async in a block comment\n"
        "   spanning lines */\n"
        "const char *s = \"std::thread inside a string\";\n");
    EXPECT_TRUE(diags.empty()) << describe(diags);
}

TEST(SplintNoNondeterminism, FiresOnlyInSimulationPaths)
{
    const std::string text =
        "unsigned f() { return rand(); }\n"
        "auto t = std::chrono::steady_clock::now();\n"
        "std::random_device rd;\n";
    for (const char *path :
         {"src/sys/a.cc", "src/cache/b.cc", "src/data/c.cc"}) {
        const auto diags = lintSource(path, text);
        EXPECT_EQ(countRule(diags, "no-nondeterminism"), 3u)
            << path << "\n"
            << describe(diags);
    }
    // Out of scope: drivers and benches may time things.
    EXPECT_TRUE(lintSource("bench/fig.cc", text).empty());
    EXPECT_TRUE(lintSource("src/metrics/t.cc", text).empty());
}

TEST(SplintNoNondeterminism, JustifiedAllowSuppresses)
{
    const auto diags = lintSource(
        "src/data/store.cc",
        "// splint:allow(no-nondeterminism): names a temp file only\n"
        "unsigned nonce = std::random_device{}();\n");
    EXPECT_TRUE(diags.empty()) << describe(diags);
}

TEST(SplintNoNondeterminism, UnjustifiedAllowDoesNotSuppress)
{
    const auto diags = lintSource(
        "src/data/store.cc",
        "// splint:allow(no-nondeterminism)\n"
        "unsigned nonce = std::random_device{}();\n");
    EXPECT_EQ(countRule(diags, "allow-justification"), 1u)
        << describe(diags);
    EXPECT_EQ(countRule(diags, "no-nondeterminism"), 1u)
        << describe(diags);
}

TEST(SplintHotPath, AllocFiresOnlyInsideMarkedRegion)
{
    const auto diags = lintSource(
        "src/core/x.cc",
        "void f(std::vector<int> &v) {\n"
        "    v.push_back(1);\n" // outside: fine
        "    // splint:hot-path-begin(loop)\n"
        "    v.push_back(2);\n"       // line 4: violation
        "    int *p = new int(3);\n"  // line 5: violation
        "    std::cout << *p;\n"      // line 6: violation
        "    // splint:hot-path-end\n"
        "    v.push_back(4);\n" // outside again: fine
        "}\n");
    EXPECT_EQ(countRule(diags, "hot-path-alloc"), 3u) << describe(diags);
    EXPECT_EQ(diags[0].line, 4u);
    EXPECT_EQ(diags[1].line, 5u);
    EXPECT_EQ(diags[2].line, 6u);
}

TEST(SplintHotPath, AllowedScratchGrowthInsideRegion)
{
    const auto diags = lintSource(
        "src/core/x.cc",
        "// splint:hot-path-begin(loop)\n"
        "// splint:allow(hot-path-alloc): capacity retained\n"
        "v.push_back(2);\n"
        "// splint:hot-path-end\n");
    EXPECT_TRUE(diags.empty()) << describe(diags);
}

TEST(SplintHotPath, MarkerImbalanceIsReported)
{
    const auto unclosed = lintSource(
        "src/core/x.cc", "// splint:hot-path-begin(loop)\nint x;\n");
    EXPECT_EQ(countRule(unclosed, "hot-path-marker"), 1u)
        << describe(unclosed);

    const auto stray =
        lintSource("src/core/x.cc", "int x;\n// splint:hot-path-end\n");
    EXPECT_EQ(countRule(stray, "hot-path-marker"), 1u)
        << describe(stray);

    const auto nested = lintSource(
        "src/core/x.cc",
        "// splint:hot-path-begin(outer)\n"
        "// splint:hot-path-begin(inner)\n"
        "// splint:hot-path-end\n");
    EXPECT_EQ(countRule(nested, "hot-path-marker"), 1u)
        << describe(nested);
}

TEST(SplintHotPath, FaultPointInsideRegionFires)
{
    const auto diags = lintSource(
        "src/cache/x.cc",
        "SP_FAULT_POINT(\"outside.is.fine\");\n"
        "// splint:hot-path-begin(classify)\n"
        "SP_FAULT_POINT(\"cache.classify\");\n" // line 3: violation
        "// splint:hot-path-end\n");
    EXPECT_EQ(countRule(diags, "hot-path-alloc"), 1u) << describe(diags);
    EXPECT_EQ(diags[0].line, 3u);
}

TEST(SplintIoStatus, ProcessKillersFireOnlyInDataPaths)
{
    const std::string text =
        "void f() {\n"
        "    if (bad) std::exit(1);\n"     // line 2
        "    panicIf(worse, \"no\");\n"    // line 3
        "    if (worst) std::terminate();\n" // line 4
        "}\n";
    const auto diags = lintSource("src/data/x.cc", text);
    EXPECT_EQ(countRule(diags, "io-status"), 3u) << describe(diags);
    // Out of scope: the sweep layer and common both have legitimate
    // panics (invariants), policed by review instead.
    EXPECT_EQ(countRule(lintSource("src/sys/x.cc", text), "io-status"),
              0u);
    EXPECT_EQ(
        countRule(lintSource("src/common/x.cc", text), "io-status"),
        0u);
}

TEST(SplintIoStatus, JustifiedAllowSuppressesAPanic)
{
    const auto diags = lintSource(
        "src/data/x.cc",
        "// splint:allow(io-status): bounds check, a bug not I/O\n"
        "panicIf(i >= n, \"out of range\");\n");
    EXPECT_TRUE(diags.empty()) << describe(diags);
}

TEST(SplintIoStatus, DiscardedStatusCallFires)
{
    const auto diags = lintSource(
        "src/sys/x.cc",
        "void f(Dataset &d, Store *s) {\n"
        "    d.saveTo(\"x\");\n"              // line 2: discarded
        "    s->store.saveTo(\"x\");\n"       // line 3: discarded
        "    io::d.saveTo(\"x\");\n"          // line 4: discarded
        "}\n");
    EXPECT_EQ(countRule(diags, "io-status"), 3u) << describe(diags);
    EXPECT_EQ(diags[0].line, 2u);
}

TEST(SplintIoStatus, ConsumedStatusCallsDoNotFire)
{
    const auto diags = lintSource(
        "src/sys/x.cc",
        "void f(Dataset &d) {\n"
        "    const auto s = d.saveTo(\"x\");\n"     // assigned
        "    if (!d.saveTo(\"x\").ok()) return;\n"  // tested
        "    return d.saveTo(\"x\");\n"             // returned
        "}\n"
        "sp::Status\n"
        "Dataset::saveTo(const std::string &path) const\n" // definition
        "{\n"
        "    return sp::Status();\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "io-status"), 0u) << describe(diags);
}

TEST(SplintAllow, UnknownRuleIsReported)
{
    const auto diags = lintSource(
        "src/sys/x.cc",
        "// splint:allow(not-a-rule): some justification\n");
    EXPECT_EQ(countRule(diags, "allow-unknown-rule"), 1u)
        << describe(diags);
}

TEST(SplintJson, SchemaFieldsAndEscaping)
{
    const auto diags = lintSource(
        "src/sys/x.cc", "void f() { std::thread t([]{}); }\n");
    ASSERT_EQ(diags.size(), 1u);
    const std::string json = sp::splint::toJson(diags);
    EXPECT_NE(json.find("\"tool\":\"splint\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"file\":\"src/sys/x.cc\""), std::string::npos);
    EXPECT_NE(json.find("\"line\":1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\":\"no-raw-thread\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
    EXPECT_NE(json.find("\"message\":"), std::string::npos);
    EXPECT_NE(json.find("\"fixit\":"), std::string::npos);

    const std::string empty = sp::splint::toJson({});
    EXPECT_NE(empty.find("\"count\":0"), std::string::npos);
    EXPECT_NE(empty.find("\"violations\":[]"), std::string::npos);

    // Quotes and backslashes in diagnostics must stay valid JSON.
    Diagnostic hostile;
    hostile.file = "src\\odd\"path.cc";
    hostile.rule = "no-raw-thread";
    hostile.message = "say \"hi\"";
    const std::string escaped = sp::splint::toJson({hostile});
    EXPECT_NE(escaped.find("src\\\\odd\\\"path.cc"), std::string::npos);
    EXPECT_NE(escaped.find("say \\\"hi\\\""), std::string::npos);
}

TEST(SplintProjectRules, FixtureTreesTripKernelAndSpecRules)
{
    const auto kernel = lintTree(
        std::string(SPLINT_FIXTURES_DIR) + "/tree_bad_kernel");
    EXPECT_EQ(countRule(kernel, "kernel-registration"), 1u)
        << describe(kernel);
    EXPECT_EQ(kernel.front().line, 0u); // project-level diagnostic

    const auto spec =
        lintTree(std::string(SPLINT_FIXTURES_DIR) + "/tree_bad_spec");
    EXPECT_EQ(countRule(spec, "spec-doc"), 1u) << describe(spec);
    EXPECT_NE(spec.front().message.find("'zap="), std::string::npos)
        << describe(spec);
}

TEST(SplintSelfTest, CommittedFixturesProveEveryRule)
{
    std::ostringstream log;
    EXPECT_TRUE(sp::splint::selfTest(SPLINT_FIXTURES_DIR, log))
        << log.str();
}

// The acceptance gate, also wired as the splint_tree ctest target:
// the real tree has zero violations.
TEST(SplintTree, RealSourceTreeIsClean)
{
    const auto diags = lintTree(SPLINT_SOURCE_ROOT);
    EXPECT_TRUE(diags.empty()) << describe(diags);
    EXPECT_FALSE(sp::splint::hasErrors(diags));
}

} // namespace
