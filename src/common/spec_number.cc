#include "common/spec_number.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <type_traits>

#include "common/logging.h"

namespace sp::common
{

namespace
{

template <class Number>
Number
readNumber(const char *grammar, const std::string &key,
           const std::string &value)
{
    // from_chars, unlike strtod/stoull, skips no blanks and reads no
    // '+' or hex; the unsigned overloads take digits only.
    Number parsed{};
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    fatalIf(ec != std::errc() || ptr != end ||
                !std::isfinite(static_cast<double>(parsed)),
            grammar, ": bad number '", value, "' for key '", key,
            std::is_floating_point_v<Number>
                ? "' (expected a finite decimal)"
                : "' (expected a non-negative decimal integer)");
    return parsed;
}

bool
readFlag(const char *grammar, const std::string &key,
         const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    fatalIf(value != "0" && value != "false" && value != "no", grammar,
            ": bad flag '", value, "' for key '", key,
            "' (expected 0 or 1)");
    return false;
}

template <class... Visitors>
struct Overloaded : Visitors...
{
    using Visitors::operator()...;
};

} // namespace

std::string
shortestDouble(double value)
{
    char buffer[32];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    return ec == std::errc() ? std::string(buffer, end)
                             : std::to_string(value);
}

void
OptionValue::read(const char *grammar, const std::string &key,
                  const std::string &value) const
{
    std::visit(
        Overloaded{
            [&](std::optional<double> *field) {
                *field = readNumber<double>(grammar, key, value);
            },
            [&](bool *field) { *field = readFlag(grammar, key, value); },
            [&](std::string *field) {
                fatalIf(value.empty(), grammar, ": key '", key,
                        "' needs a value");
                *field = value;
            },
            [&](const Custom &custom) { custom.read(value); },
            [&](auto *number) { // double, uint32_t, uint64_t
                *number = readNumber<std::remove_pointer_t<decltype(number)>>(
                    grammar, key, value);
            }},
        field_);
}

std::string
OptionValue::print() const
{
    return std::visit(
        Overloaded{
            [](const double *field) { return shortestDouble(*field); },
            [](const std::optional<double> *field) {
                return field->has_value() ? shortestDouble(**field) : "";
            },
            [](const bool *field) {
                return std::string(*field ? "1" : "0");
            },
            [](const std::string *field) { return *field; },
            [](const Custom &custom) { return custom.print(); },
            [](const auto *integer) { return std::to_string(*integer); }},
        field_);
}

std::set<std::string>
parseOptions(const char *grammar, const std::string &text,
             const std::vector<Option> &rows)
{
    std::set<std::string> given;
    std::stringstream items(text);
    std::string item;
    while (std::getline(items, item, ',')) {
        const size_t eq = item.find('=');
        fatalIf(eq == std::string::npos, grammar,
                ": expected key=value, got '", item, "' in '", text, "'");
        const std::string key = item.substr(0, eq);
        const auto row = std::find_if(
            rows.begin(), rows.end(),
            [&key](const Option &option) { return key == option.key; });
        if (row == rows.end()) {
            std::string keys;
            for (const Option &option : rows)
                keys += (keys.empty() ? "" : "/") +
                        std::string(option.key);
            fatal(grammar, ": unknown key '", key, "' in '", text,
                  "' (keys: ", keys, ")");
        }
        // Reject duplicates instead of letting the last one win: a
        // typo like policy=lfu,policy=lru would otherwise silently run
        // something other than what is on the screen.
        fatalIf(!given.insert(key).second, grammar, ": duplicate key '",
                key, "' in '", text, "' (each option may appear once)");
        row->value.read(grammar, key, item.substr(eq + 1));
    }
    return given;
}

} // namespace sp::common
