#include "common/status.h"

namespace sp
{

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::Ok:
        return "ok";
    case ErrorCode::IoError:
        return "io-error";
    case ErrorCode::NoSpace:
        return "no-space";
    case ErrorCode::NotFound:
        return "not-found";
    case ErrorCode::Corrupt:
        return "corrupt";
    case ErrorCode::Truncated:
        return "truncated";
    case ErrorCode::VersionMismatch:
        return "version-mismatch";
    case ErrorCode::FaultInjected:
        return "fault-injected";
    }
    panic("unhandled ErrorCode ", static_cast<int>(code));
}

} // namespace sp
