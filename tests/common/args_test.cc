/** @file ArgParser unit tests. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/args.h"
#include "common/logging.h"

namespace sp
{
namespace
{

ArgParser
makeParser()
{
    ArgParser args("test tool");
    args.addString("name", "default", "a string flag");
    args.addInt("count", 7, "an int flag");
    args.addDouble("rate", 0.5, "a double flag");
    args.addBool("verbose", "a switch");
    return args;
}

bool
parse(ArgParser &args, std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, DefaultsApplyWithoutFlags)
{
    ArgParser args = makeParser();
    EXPECT_TRUE(parse(args, {}));
    EXPECT_EQ(args.getString("name"), "default");
    EXPECT_EQ(args.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(args.getDouble("rate"), 0.5);
    EXPECT_FALSE(args.getBool("verbose"));
}

TEST(Args, SpaceSeparatedValues)
{
    ArgParser args = makeParser();
    EXPECT_TRUE(parse(args, {"--name", "alice", "--count", "42",
                             "--rate", "1.25"}));
    EXPECT_EQ(args.getString("name"), "alice");
    EXPECT_EQ(args.getInt("count"), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("rate"), 1.25);
}

TEST(Args, EqualsSeparatedValues)
{
    ArgParser args = makeParser();
    EXPECT_TRUE(parse(args, {"--name=bob", "--count=3", "--rate=-2e-3"}));
    EXPECT_EQ(args.getString("name"), "bob");
    EXPECT_EQ(args.getInt("count"), 3);
    EXPECT_DOUBLE_EQ(args.getDouble("rate"), -2e-3);
    // Integer flags are counts: digits only, so a negative value is
    // refused instead of wrapping when a driver casts it to unsigned.
    ArgParser args2 = makeParser();
    EXPECT_THROW(parse(args2, {"--count=-3"}), FatalError);
}

TEST(Args, BoolSwitchForms)
{
    ArgParser args = makeParser();
    EXPECT_TRUE(parse(args, {"--verbose"}));
    EXPECT_TRUE(args.getBool("verbose"));

    ArgParser args2 = makeParser();
    EXPECT_TRUE(parse(args2, {"--verbose=false"}));
    EXPECT_FALSE(args2.getBool("verbose"));
}

TEST(Args, HelpShortCircuits)
{
    ArgParser args = makeParser();
    EXPECT_FALSE(parse(args, {"--help"}));
    ArgParser args2 = makeParser();
    EXPECT_FALSE(parse(args2, {"-h"}));
}

TEST(Args, UnknownFlagFatal)
{
    ArgParser args = makeParser();
    EXPECT_THROW(parse(args, {"--bogus", "1"}), FatalError);
}

TEST(Args, MissingValueFatal)
{
    ArgParser args = makeParser();
    EXPECT_THROW(parse(args, {"--count"}), FatalError);
}

TEST(Args, MalformedNumbersFatal)
{
    ArgParser args = makeParser();
    EXPECT_THROW(parse(args, {"--count", "seven"}), FatalError);
    ArgParser args2 = makeParser();
    EXPECT_THROW(parse(args2, {"--rate", "fast"}), FatalError);
}

TEST(Args, TrailingGarbageNumbersFatal)
{
    ArgParser args = makeParser();
    EXPECT_THROW(parse(args, {"--count=12abc"}), FatalError);
    ArgParser args2 = makeParser();
    EXPECT_THROW(parse(args2, {"--count="}), FatalError);
    ArgParser args3 = makeParser();
    EXPECT_THROW(parse(args3, {"--rate", "1.5x"}), FatalError);
}

TEST(Args, OverflowingNumbersFatal)
{
    // Accepting a clamped out-of-range value would silently hand a
    // typo'd value (e.g. an extra digit on --jobs) to the pool sizing.
    ArgParser args = makeParser();
    EXPECT_THROW(parse(args, {"--count", "99999999999999999999"}),
                 FatalError);
    ArgParser args2 = makeParser();
    EXPECT_THROW(parse(args2, {"--count", "-99999999999999999999"}),
                 FatalError);
    ArgParser args3 = makeParser();
    EXPECT_THROW(parse(args3, {"--rate", "1e999"}), FatalError);
    // Digits beyond int64: getInt() could not return them unwrapped.
    ArgParser args5 = makeParser();
    EXPECT_THROW(parse(args5, {"--count", "9223372036854775808"}),
                 FatalError);

    // Underflow to a representable subnormal is not an error.
    ArgParser args4 = makeParser();
    EXPECT_TRUE(parse(args4, {"--rate", "1e-310"}));
    EXPECT_GT(args4.getDouble("rate"), 0.0);
}

ArgParser
makeJobsParser()
{
    ArgParser args("jobs tool");
    args.addInt("jobs", 0, "worker threads");
    return args;
}

TEST(Args, ParseJobsAcceptsSaneWidths)
{
    ArgParser args = makeJobsParser();
    EXPECT_TRUE(parse(args, {}));
    EXPECT_EQ(parseJobsArg(args), 0u); // default: all cores

    ArgParser args2 = makeJobsParser();
    EXPECT_TRUE(parse(args2, {"--jobs", "16"}));
    EXPECT_EQ(parseJobsArg(args2), 16u);
}

TEST(Args, ParseJobsRejectsNegativeWidths)
{
    // Refused while parsing, like every negative integer flag.
    ArgParser args = makeJobsParser();
    EXPECT_THROW(parse(args, {"--jobs", "-2"}), FatalError);
}

TEST(Args, ParseJobsRejectsAbsurdWidths)
{
    // In range for int64 but would wrap the pool into terathreads.
    ArgParser args = makeJobsParser();
    EXPECT_TRUE(parse(args, {"--jobs", "4294967296000"}));
    EXPECT_THROW(parseJobsArg(args), FatalError);

    ArgParser args2 = makeJobsParser();
    const std::string above_max = std::to_string(kMaxJobs + 1);
    EXPECT_TRUE(parse(args2, {"--jobs", above_max.c_str()}));
    EXPECT_THROW(parseJobsArg(args2), FatalError);
}

TEST(Args, PositionalArgumentsRejected)
{
    ArgParser args = makeParser();
    EXPECT_THROW(parse(args, {"stray"}), FatalError);
}

TEST(Args, WrongTypeAccessPanics)
{
    ArgParser args = makeParser();
    parse(args, {});
    EXPECT_THROW(args.getInt("name"), PanicError);
    EXPECT_THROW(args.getString("count"), PanicError);
    EXPECT_THROW(args.getBool("rate"), PanicError);
}

TEST(Args, UnregisteredAccessPanics)
{
    ArgParser args = makeParser();
    parse(args, {});
    EXPECT_THROW(args.getString("nothere"), PanicError);
}

TEST(Args, UsageListsFlags)
{
    ArgParser args = makeParser();
    const std::string usage = args.usage();
    EXPECT_NE(usage.find("--name"), std::string::npos);
    EXPECT_NE(usage.find("--count"), std::string::npos);
    EXPECT_NE(usage.find("a switch"), std::string::npos);
}

} // namespace
} // namespace sp
