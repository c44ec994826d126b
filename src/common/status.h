/**
 * @file
 * Recoverable-error taxonomy: sp::Status and its exception carrier
 * sp::StatusError.
 *
 * The logging layer (common/logging.h) distinguishes *who is at
 * fault*: fatal() for the user, panic() for the library. This header
 * adds the third class the first two cannot express: **environmental
 * failures** -- a disk filling up mid-publish, a trace truncated by a
 * crashed writer, a failed mmap -- where nobody is at fault and the
 * right response is usually *degradation* (regenerate the trace, fall
 * back to the slower tier), not process death.
 *
 * Policy, enforced by the splint `io-status` rule over src/data:
 *
 *   - environmental failure  -> a load throws StatusError and a save
 *                               returns sp::Status; callers catch or
 *                               check, then degrade or surface it,
 *                               never std::terminate.
 *   - user error             -> fatal()   (bad config, bad flags)
 *   - programmer error       -> panic()   (violated invariant; the
 *                               one thing that may stay a panic on an
 *                               IO path, with a justifying
 *                               splint:allow)
 *
 * Status is [[nodiscard]] and splint flags bare calls to the
 * Status-returning IO entry point (saveTo), so an ignored
 * environmental failure is a lint error, not a latent surprise.
 */

#ifndef SP_COMMON_STATUS_H
#define SP_COMMON_STATUS_H

#include <sstream>
#include <string>
#include <utility>

#include "common/logging.h"

namespace sp
{

/** Classified cause of an environmental failure. */
enum class ErrorCode
{
    Ok = 0,
    IoError,         //!< open/read/write/stat/mmap/rename failed
    NoSpace,         //!< ENOSPC-family: disk full during a write
    NotFound,        //!< the file does not exist
    Corrupt,         //!< structural validation failed (magic, fields,
                     //!< interior indices)
    Truncated,       //!< file shorter than its header describes
    VersionMismatch, //!< valid trace, unsupported format version
    FaultInjected,   //!< a deterministic SP_FAULT_POINT fired here
};

/** Stable lowercase spelling ("io-error", "no-space", ...). */
const char *errorCodeName(ErrorCode code);

/** Success or a classified environmental failure with a message. */
class [[nodiscard]] Status
{
  public:
    /** Default: success. */
    Status() = default;

    /** A failure; `code` must not be ErrorCode::Ok. */
    static Status
    error(ErrorCode code, std::string message)
    {
        panicIf(code == ErrorCode::Ok,
                "Status::error called with ErrorCode::Ok");
        Status status;
        status.code_ = code;
        status.message_ = std::move(message);
        return status;
    }

    bool
    ok() const
    {
        return code_ == ErrorCode::Ok;
    }

    ErrorCode
    code() const
    {
        return code_;
    }

    const std::string &
    message() const
    {
        return message_;
    }

    /** "ok", or "<code-name>: <message>". */
    std::string
    toString() const
    {
        if (ok())
            return "ok";
        return std::string(errorCodeName(code_)) + ": " + message_;
    }

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * Exception form of a classified failure, thrown by the trace loads
 * (TraceDataset::open, ...). Derives FatalError so
 * every `catch (const FatalError &)` recovery site keeps working while
 * code that degrades catches StatusError and reads the taxonomy
 * instead of parsing message strings.
 */
class StatusError : public FatalError
{
  public:
    explicit StatusError(Status status)
        : FatalError(status.toString()), status_(std::move(status))
    {
    }

    const Status &
    status() const
    {
        return status_;
    }

  private:
    Status status_;
};

/** Throw a classified environmental failure (gem5-style formatting). */
template <typename... Args>
[[noreturn]] void
failWith(ErrorCode code, const Args &...args)
{
    std::ostringstream os;
    detail::formatInto(os, args...);
    throw StatusError(Status::error(code, os.str()));
}

/** failWith when `cond` holds. */
template <typename... Args>
void
failIf(bool cond, ErrorCode code, const Args &...args)
{
    if (cond)
        failWith(code, args...);
}

} // namespace sp

#endif // SP_COMMON_STATUS_H
