#include "common/spec_number.h"

#include <charconv>
#include <cmath>

#include "common/logging.h"

namespace sp::common
{

double
parseSpecDouble(const char *grammar, const std::string &key,
                const std::string &value)
{
    // from_chars, unlike strtod, skips no blanks and reads no hex.
    double parsed = 0.0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    fatalIf(ec != std::errc() || ptr != end || !std::isfinite(parsed),
            grammar, ": bad number '", value, "' for key '", key,
            "' (expected a finite decimal)");
    return parsed;
}

std::string
shortestDouble(double value)
{
    char buffer[32];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return ec == std::errc() ? std::string(buffer, end)
                             : std::to_string(value);
}

} // namespace sp::common
