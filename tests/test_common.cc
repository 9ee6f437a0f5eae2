/**
 * @file
 * Unit tests for the common utilities: RNG determinism, StatSet
 * arithmetic, Table formatting and the JSON writer/reader.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace tango {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; i++) {
        const float v = r.uniform();
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(Rng, UniformBounds)
{
    Rng r(9);
    for (int i = 0; i < 1000; i++) {
        const float v = r.uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng r(11);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; i++) {
        const double v = r.gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BelowStaysBelow)
{
    Rng r(5);
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    EXPECT_EQ(s.get("x"), 0.0);
    s.add("x", 2.0);
    s.add("x", 3.0);
    EXPECT_EQ(s.get("x"), 5.0);
    EXPECT_TRUE(s.has("x"));
    EXPECT_FALSE(s.has("y"));
}

TEST(StatSet, MergeAccumulates)
{
    StatSet a, b;
    a.set("x", 1.0);
    a.set("y", 2.0);
    b.set("y", 3.0);
    b.set("z", 4.0);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 1.0);
    EXPECT_EQ(a.get("y"), 5.0);
    EXPECT_EQ(a.get("z"), 4.0);
}

TEST(StatSet, ScaleMultipliesEverything)
{
    StatSet s;
    s.set("a", 2.0);
    s.set("b", 3.0);
    s.scale(2.5);
    EXPECT_EQ(s.get("a"), 5.0);
    EXPECT_EQ(s.get("b"), 7.5);
}

TEST(StatSet, SumPrefix)
{
    StatSet s;
    s.set("op.add", 10.0);
    s.set("op.mul", 5.0);
    s.set("opx", 100.0);
    s.set("evt.l2", 7.0);
    EXPECT_EQ(s.sumPrefix("op."), 15.0);
    EXPECT_EQ(s.sumPrefix("evt."), 7.0);
    EXPECT_EQ(s.sumPrefix("zz."), 0.0);
}

TEST(StatSet, AppendMatchesSet)
{
    // append() is set() with an end() hint: in order it is O(1), out of
    // order or repeated it must still land exactly where set() would.
    const std::vector<std::pair<std::string, double>> seq = {
        {"a.x", 1}, {"b.y", 2}, {"c.z", 3}, {"0.first", 4}, {"b.y", 5}};
    StatSet appended, set;
    for (const auto &[name, v] : seq) {
        appended.append(name, v);
        set.set(name, v);
    }
    EXPECT_EQ(appended.all(), set.all());
    EXPECT_EQ(appended.get("b.y"), 5.0);
}

TEST(Table, AlignsAndCounts)
{
    Table t("demo");
    t.header({"a", "bbbb"});
    t.row({"x", "1"});
    t.row({"yy", "22"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("bbbb"), std::string::npos);
    EXPECT_NE(out.find("yy"), std::string::npos);
}

TEST(Table, CsvFormat)
{
    Table t("csv");
    t.header({"a", "b"});
    t.row({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("1,2"), std::string::npos);
    EXPECT_NE(os.str().find("# csv"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(0.5, 1), "50.0%");
}

TEST(Logging, TimestampShape)
{
    // "YYYY-MM-DDTHH:MM:SS.mmmZ" — 24 characters, fixed layout.
    const std::string ts = logTimestampUtc();
    ASSERT_EQ(ts.size(), 24u);
    EXPECT_EQ(ts[4], '-');
    EXPECT_EQ(ts[10], 'T');
    EXPECT_EQ(ts[13], ':');
    EXPECT_EQ(ts[19], '.');
    EXPECT_EQ(ts[23], 'Z');
}

TEST(Logging, PlainLineHasTimestampAndTag)
{
    ::unsetenv("TANGO_LOG_JSON");
    const std::string line = logLine("warn", "disk full");
    ASSERT_GT(line.size(), 26u);
    EXPECT_EQ(line[0], '[');
    EXPECT_EQ(line[25], ']');
    EXPECT_EQ(line.substr(26), " warn: disk full");
}

TEST(Logging, JsonLineMode)
{
    ::setenv("TANGO_LOG_JSON", "1", 1);
    EXPECT_TRUE(logJsonMode());
    const std::string line = logLine("info", "a \"quoted\" \\ message");
    ::unsetenv("TANGO_LOG_JSON");
    EXPECT_FALSE(logJsonMode());

    json::Reader::Value v;
    ASSERT_NO_THROW(v = json::Reader(line).parse());
    ASSERT_EQ(v.kind, json::Reader::Value::Kind::Obj);
    EXPECT_EQ(v.strOr("level"), "info");
    EXPECT_EQ(v.strOr("msg"), "a \"quoted\" \\ message");
    EXPECT_EQ(v.strOr("ts").size(), 24u);
}

TEST(Logging, JsonModeRequiresExactlyOne)
{
    ::setenv("TANGO_LOG_JSON", "0", 1);
    EXPECT_FALSE(logJsonMode());
    ::setenv("TANGO_LOG_JSON", "yes", 1);
    EXPECT_FALSE(logJsonMode());
    ::unsetenv("TANGO_LOG_JSON");
}

// ------------------------------------------------------------------- json

/** The message of the exception Reader(text).parse() throws, or "". */
std::string
parseError(const std::string &text)
{
    try {
        json::Reader(text).parse();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

std::string
printfDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

TEST(Json, WriterMatchesPrintfAndToString)
{
    // The writer's bytes are the wire and disk-spill format: they must
    // stay exactly printf("%.17g") and std::to_string, over random bit
    // patterns (subnormals, inf and nan included) and the edge values.
    std::vector<double> doubles = {
        0.0, -0.0, 1.0, 0.1, 1e21, 1e-7, 123456789012345678.0,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()};
    std::vector<uint64_t> ints = {0, 1, 9, 10, 99, 100,
                                  std::numeric_limits<uint64_t>::max()};
    Rng rng(2019);
    for (int i = 0; i < 200000; i++) {
        const uint64_t bits = (uint64_t(rng.next()) << 32) ^ rng.next();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        doubles.push_back(d);
        ints.push_back(bits >> (i % 64));
    }
    for (double d : doubles) {
        std::string out;
        json::appendDouble(out, d);
        ASSERT_EQ(out, printfDouble(d));
        if (std::isnan(d))
            continue;
        // ...and the reader returns the very same double.
        const double back = json::Reader(out).parse().num;
        ASSERT_EQ(std::memcmp(&back, &d, sizeof d), 0) << out;
    }
    for (uint64_t v : ints) {
        std::string out;
        json::appendU64(out, v);
        ASSERT_EQ(out, std::to_string(v));
    }
}

TEST(Json, InfAndNanRoundTrip)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::string doc;
    json::ObjWriter o(doc);
    o.num("inf", inf);
    o.num("ninf", -inf);
    o.num("nan", nan);
    o.num("nnan", -nan);
    o.close();
    EXPECT_EQ(doc, R"({"inf":inf,"ninf":-inf,"nan":nan,"nnan":-nan})");

    const json::Reader::Value v = json::Reader(doc).parse();
    EXPECT_EQ(v.numOr("inf"), inf);
    EXPECT_EQ(v.numOr("ninf"), -inf);
    EXPECT_TRUE(std::isnan(v.numOr("nan")));
    EXPECT_FALSE(std::signbit(v.numOr("nan")));
    EXPECT_TRUE(std::isnan(v.numOr("nnan")));
    EXPECT_TRUE(std::signbit(v.numOr("nnan")));
    // null is still null, and other n-words are still errors.
    EXPECT_EQ(json::Reader("null").parse().kind,
              json::Reader::Value::Kind::Null);
    EXPECT_NE(parseError("nope"), "");
}

TEST(Json, OutOfRangeNumbersRejected)
{
    for (const char *text : {"1e999", "-1e999", "[1e-999]"})
        EXPECT_NE(parseError(text).find("json: number out of range"),
                  std::string::npos)
            << text;
    // Values no uint64_t holds fall back to the default, never UB.
    const json::Reader::Value v =
        json::Reader(R"({"a":-1,"b":1e300,"c":-nan,"d":42.9})").parse();
    EXPECT_EQ(v.u64Or("a", 7), 7u);
    EXPECT_EQ(v.u64Or("b", 7), 7u);
    EXPECT_EQ(v.u64Or("c", 7), 7u);
    EXPECT_EQ(v.u64Or("d", 7), 42u);
}

TEST(Json, NestingDepthCapped)
{
    const unsigned cap = json::Reader::kMaxDepth;
    const std::string ok =
        std::string(cap, '[') + std::string(cap, ']');
    EXPECT_EQ(parseError(ok), "");
    const std::string deep =
        std::string(cap + 1, '[') + std::string(cap + 1, ']');
    EXPECT_NE(parseError(deep).find("json: nesting too deep"),
              std::string::npos);
    // A frame-sized run of '[' throws instead of overflowing the stack.
    EXPECT_NE(parseError(std::string(1 << 20, '[')).find("nesting too deep"),
              std::string::npos);
    EXPECT_NE(parseError(std::string(1 << 20, '{')), "");
}

TEST(Json, StringEscapesRoundTrip)
{
    const std::string s = "plain \"quoted\" back\\slash\nline\ttab\x01 end";
    std::string doc;
    json::appendEscaped(doc, s);
    EXPECT_EQ(json::Reader(doc).parse().str, s);
    EXPECT_EQ(json::Reader(R"("a\/b\u0041\r")").parse().str, "a/bA\r");
    EXPECT_NE(parseError(R"("unterminated)"), "");
    EXPECT_NE(parseError(R"("bad \q escape")"), "");
    EXPECT_NE(parseError("\"trailing backslash\\"), "");
    // \u takes exactly four hex digits: no spaces, no sign, no fewer.
    for (const char *text :
         {R"("\u 7a!")", R"("\u-001")", R"("\u7zzz")", R"("\u41")"})
        EXPECT_NE(parseError(text).find("json: bad \\u escape"),
                  std::string::npos)
            << text;
    EXPECT_EQ(json::Reader(R"("A")").parse().str, "A");
}

TEST(Json, NumberMatchesFromCharsBitForBit)
{
    // number() reads short plain integers itself; every token must
    // still give from_chars' exact double, at and past the 15-digit
    // edge of that path too.
    std::vector<std::string> tokens = {
        "0", "-0", "7", "007", "-42", "999999999999999",
        "-999999999999999", "9999999999999999", "9007199254740993",
        "18446744073709551615", "12.5", "3e2", "-1E-3", "123456789012345e3"};
    Rng rng(15);
    for (int i = 0; i < 20000; i++) {
        const uint64_t bits = (uint64_t(rng.next()) << 32) ^ rng.next();
        tokens.push_back(std::to_string(bits >> (i % 64)));
        tokens.push_back("-" + tokens.back());
    }
    for (const std::string &t : tokens) {
        double want = 0.0;
        std::from_chars(t.data(), t.data() + t.size(), want);
        const double got = json::Reader(t).number();
        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << t;
        // Inside a document, the token ends where from_chars stops.
        const json::Reader::Value arr = json::Reader("[" + t + ",1]").parse();
        ASSERT_EQ(arr.arr.size(), 2u) << t;
        ASSERT_EQ(std::memcmp(&arr.arr[0].num, &want, sizeof want), 0) << t;
    }
}

TEST(Json, PullReaderWalksMembersAndElements)
{
    const std::string doc =
        R"({"plain":1.5,"esc\u0041ped":[1,-2e3,inf],"plain":"x"})";
    json::Reader p(doc);
    std::vector<std::string> keys;
    std::vector<double> nums;
    p.members([&](std::string_view key) {
        keys.emplace_back(key);
        if (p.peek() == '[')
            p.elements([&] { nums.push_back(p.number()); });
        else
            p.value();
    });
    p.end();
    EXPECT_EQ(keys, (std::vector<std::string>{"plain", "escAped", "plain"}));
    EXPECT_EQ(nums, (std::vector<double>{
                        1, -2000, std::numeric_limits<double>::infinity()}));

    // A key without escapes is a view into the buffer, not a copy.
    json::Reader q(doc);
    std::string scratch;
    q.expect('{');
    const std::string_view k = q.stringView(scratch);
    EXPECT_EQ(k, "plain");
    EXPECT_TRUE(k.data() > doc.data() && k.data() < doc.data() + doc.size());
    EXPECT_TRUE(scratch.empty());

    EXPECT_THROW(json::Reader(R"("1")").number(), std::runtime_error);
    EXPECT_THROW(json::Reader("{\"a\":1 \"b\":2}").members(
                     [](std::string_view) {}),
                 std::runtime_error);
    // A repeated key: the last one wins in a Value tree too.
    EXPECT_EQ(json::Reader(doc).parse().strOr("plain"), "x");
}

} // namespace
} // namespace tango
