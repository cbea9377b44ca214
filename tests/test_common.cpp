/**
 * @file
 * Unit tests for the common substrate: aligned buffers, RNG, options.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/options.h"
#include "common/rng.h"
#include "common/timer.h"
#include "sampling/neighbor_sampler.h"

namespace graphite {
namespace {

TEST(AlignedBuffer, AllocatesAlignedZeroedStorage)
{
    AlignedBuffer<float> buf(100);
    ASSERT_EQ(buf.size(), 100u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    for (float v : buf)
        EXPECT_EQ(v, 0.0f);
}

TEST(AlignedBuffer, EmptyBufferIsSafe)
{
    AlignedBuffer<int> buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.data(), nullptr);
    buf.zero(); // must not crash
}

TEST(AlignedBuffer, CopyPreservesContents)
{
    AlignedBuffer<int> a(16);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<int>(i * 3);
    AlignedBuffer<int> b(a);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(b[i], a[i]);
    b[0] = 999;
    EXPECT_EQ(a[0], 0); // deep copy
}

TEST(AlignedBuffer, MoveTransfersOwnership)
{
    AlignedBuffer<int> a(8);
    a[3] = 42;
    int *ptr = a.data();
    AlignedBuffer<int> b(std::move(a));
    EXPECT_EQ(b.data(), ptr);
    EXPECT_EQ(b[3], 42);
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, CopyAssignReplacesContents)
{
    AlignedBuffer<int> a(4);
    a[0] = 7;
    AlignedBuffer<int> b(2);
    b = a;
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 7);
}

TEST(AlignedBuffer, ResizeZeroes)
{
    AlignedBuffer<int> a(4);
    a[0] = 7;
    a.resize(32);
    ASSERT_EQ(a.size(), 32u);
    for (int v : a)
        EXPECT_EQ(v, 0);
}

TEST(Rng, Splitmix64MatchesKnownValues)
{
    // Reference values of Vigna's splitmix64 from state 0 and 1; the
    // per-request sampling seeds, the hot cache's shard hash and Rng's
    // seeding all derive from it, so none of them may move.
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ull);
    EXPECT_EQ(requestSeed(0), splitmix64(0));
    EXPECT_EQ(Rng(1).next(), 0xb3f2af6d0fc710c5ull);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.uniformInt(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u); // all values reachable
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0;
    double sumSq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sumSq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sumSq / n, 1.0, 0.05);
}

TEST(Options, ParsesEqualsAndSpaceForms)
{
    Options opts("test");
    opts.add("alpha", "1", "help");
    opts.add("name", "x", "help");
    opts.add("flag", "false", "help");
    const char *argv[] = {"prog", "--alpha=42", "--name", "hello",
                          "--flag"};
    opts.parse(5, const_cast<char **>(argv));
    EXPECT_EQ(opts.getInt("alpha"), 42);
    EXPECT_EQ(opts.getString("name"), "hello");
    EXPECT_TRUE(opts.getBool("flag"));
}

TEST(Options, DefaultsApplyWhenUnset)
{
    Options opts("test");
    opts.add("rate", "0.5", "help");
    const char *argv[] = {"prog"};
    opts.parse(1, const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(opts.getDouble("rate"), 0.5);
}

TEST(Options, NegativeValuesParseInBothForms)
{
    Options opts("test");
    opts.add("bias", "0", "help");
    opts.add("rate", "0.0", "help");
    // The space form used to mistake "-3" for the next flag.
    const char *argv[] = {"prog", "--bias", "-3", "--rate", "-0.25"};
    opts.parse(5, const_cast<char **>(argv));
    EXPECT_EQ(opts.getInt("bias"), -3);
    EXPECT_DOUBLE_EQ(opts.getDouble("rate"), -0.25);
}

TEST(Options, NegativeValueEqualsForm)
{
    Options opts("test");
    opts.add("bias", "0", "help");
    const char *argv[] = {"prog", "--bias=-7"};
    opts.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(opts.getInt("bias"), -7);
}

TEST(Options, SpaceFormStillTreatsFlagAsBoolean)
{
    Options opts("test");
    opts.add("flag", "false", "help");
    opts.add("other", "false", "help");
    // "--other" is not a value, so "--flag" takes its boolean form.
    const char *argv[] = {"prog", "--flag", "--other"};
    opts.parse(3, const_cast<char **>(argv));
    EXPECT_TRUE(opts.getBool("flag"));
    EXPECT_TRUE(opts.getBool("other"));
}

TEST(OptionsDeathTest, EmptyEqualsValueIsFatal)
{
    Options opts("test");
    opts.add("path", "x", "help");
    const char *argv[] = {"prog", "--path="};
    // An explicit "=" with nothing after it used to silently clear the
    // option; now it is a configuration error.
    EXPECT_DEATH(opts.parse(2, const_cast<char **>(argv)),
                 "empty value");
}

TEST(Options, RepeatedFlagLastWins)
{
    Options opts("test");
    opts.add("alpha", "1", "help");
    const char *argv[] = {"prog", "--alpha=2", "--alpha", "5"};
    opts.parse(4, const_cast<char **>(argv));
    EXPECT_EQ(opts.getInt("alpha"), 5);
}

TEST(Options, GetDefaultSurvivesParse)
{
    Options opts("test");
    opts.add("alpha", "1", "help");
    const char *argv[] = {"prog", "--alpha=42"};
    opts.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(opts.getInt("alpha"), 42);
    EXPECT_EQ(opts.getDefault("alpha"), "1");
}

/** Options with one option @p name (default @p value), after @p args. */
Options
withOption(const char *name, const char *value,
           std::vector<const char *> args = {})
{
    Options opts("test");
    opts.add(name, value, "help");
    args.insert(args.begin(), "prog");
    opts.parse(static_cast<int>(args.size()),
               const_cast<char **>(args.data()));
    return opts;
}

TEST(Options, BooleanWordsParseBothWays)
{
    for (const char *word : {"true", "1", "yes", "on"})
        EXPECT_TRUE(withOption("flag", word).getBool("flag")) << word;
    for (const char *word : {"false", "0", "no", "off"})
        EXPECT_FALSE(withOption("flag", word).getBool("flag")) << word;
}

TEST(Options, CountsAndPrefixedIntegersParse)
{
    EXPECT_EQ(withOption("n", "64").getCount("n", 1), 64u);
    EXPECT_EQ(withOption("n", "0").getCount("n"), 0u);
    EXPECT_EQ(withOption("n", "0x10").getInt("n"), 16);
    EXPECT_DOUBLE_EQ(withOption("q", "1e3").getDouble("q"), 1000.0);
}

TEST(OptionsDeathTest, MalformedNumbersAreFatalNamingTheFlag)
{
    EXPECT_DEATH(withOption("max-batch", "1", {"--max-batch=64x"})
                     .getInt("max-batch"),
                 "--max-batch: '64x' is not an integer");
    EXPECT_DEATH(withOption("qps", "1", {"--qps=abc"}).getDouble("qps"),
                 "--qps: 'abc' is not a number");
    EXPECT_DEATH(withOption("qps", "1", {"--qps=5.0ms"}).getDouble("qps"),
                 "--qps: '5.0ms' is not a number");
    // An empty value can only come from a registered default.
    EXPECT_DEATH(withOption("n", "").getInt("n"),
                 "--n: '' is not an integer");
    EXPECT_DEATH(withOption("n", "99999999999999999999").getInt("n"),
                 "--n: '99999999999999999999' is out of range");
    EXPECT_DEATH(withOption("q", "1e999").getDouble("q"),
                 "--q: '1e999' is out of range");
}

TEST(OptionsDeathTest, UnknownBooleanWordIsFatal)
{
    EXPECT_DEATH(withOption("compare", "false", {"--compare=maybe"})
                     .getBool("compare"),
                 "--compare: 'maybe' is not a boolean");
}

TEST(OptionsDeathTest, CountBelowItsMinimumIsFatal)
{
    EXPECT_DEATH(withOption("requests", "1", {"--requests=-1"})
                     .getCount("requests"),
                 "--requests must be >= 0 \\(got -1\\)");
    EXPECT_DEATH(withOption("max-batch", "1", {"--max-batch=0"})
                     .getCount("max-batch", 1),
                 "--max-batch must be >= 1 \\(got 0\\)");
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer timer;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + i * 0.5;
    EXPECT_GE(timer.seconds(), 0.0);
    EXPECT_LT(timer.seconds(), 10.0);
}

} // namespace
} // namespace graphite
