/**
 * @file
 * The recoverable-error taxonomy (common/status.h): Status,
 * StatusError and the failWith/failIf helpers. These types carry every
 * environmental failure in src/data, so their semantics -- what is ok,
 * what panics, what the classified message looks like -- are contract.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/status.h"

namespace sp
{
namespace
{

TEST(Status, DefaultConstructedIsOk)
{
    const Status status;
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::Ok);
    EXPECT_EQ(status.message(), "");
    EXPECT_EQ(status.toString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    const Status status =
        Status::error(ErrorCode::NoSpace, "disk full writing 'x'");
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::NoSpace);
    EXPECT_EQ(status.message(), "disk full writing 'x'");
    EXPECT_EQ(status.toString(), "no-space: disk full writing 'x'");
}

TEST(Status, ErrorWithOkCodeIsAProgrammerError)
{
    EXPECT_THROW(Status::error(ErrorCode::Ok, "nope"), PanicError);
}

TEST(Status, CodeNamesAreStableKebabCase)
{
    // The names appear in JSON reports and log lines; renaming one is
    // a compatibility break, so pin every spelling.
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::IoError), "io-error");
    EXPECT_STREQ(errorCodeName(ErrorCode::NoSpace), "no-space");
    EXPECT_STREQ(errorCodeName(ErrorCode::NotFound), "not-found");
    EXPECT_STREQ(errorCodeName(ErrorCode::Corrupt), "corrupt");
    EXPECT_STREQ(errorCodeName(ErrorCode::Truncated), "truncated");
    EXPECT_STREQ(errorCodeName(ErrorCode::VersionMismatch),
                 "version-mismatch");
    EXPECT_STREQ(errorCodeName(ErrorCode::FaultInjected),
                 "fault-injected");
}

TEST(StatusError, CarriesStatusAndFormatsWhat)
{
    const StatusError error(
        Status::error(ErrorCode::Corrupt, "bad magic"));
    EXPECT_EQ(error.status().code(), ErrorCode::Corrupt);
    EXPECT_STREQ(error.what(), "corrupt: bad magic");
}

TEST(StatusError, IsCatchableAsFatalError)
{
    // Legacy recovery sites catch FatalError; StatusError must keep
    // travelling those paths.
    try {
        throw StatusError(
            Status::error(ErrorCode::NotFound, "no such trace"));
    } catch (const FatalError &error) {
        EXPECT_STREQ(error.what(), "not-found: no such trace");
        return;
    }
    FAIL() << "StatusError did not convert to FatalError";
}

TEST(StatusError, FailWithFormatsLikeTheLoggingLayer)
{
    try {
        failWith(ErrorCode::Truncated, "'", "t.sptrace",
                 "' cut at batch ", 7);
    } catch (const StatusError &error) {
        EXPECT_EQ(error.status().code(), ErrorCode::Truncated);
        EXPECT_EQ(error.status().message(),
                  "'t.sptrace' cut at batch 7");
        return;
    }
    FAIL() << "failWith did not throw StatusError";
}

TEST(StatusError, FailIfOnlyThrowsWhenTheConditionHolds)
{
    EXPECT_NO_THROW(failIf(false, ErrorCode::IoError, "unused"));
    EXPECT_THROW(failIf(true, ErrorCode::IoError, "boom"), StatusError);
}

} // namespace
} // namespace sp
