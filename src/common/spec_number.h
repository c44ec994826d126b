/**
 * @file
 * The one option-list grammar, "key=value,key=value", shared by the
 * system specs ("static:cache=0.05"), the workload specs
 * ("drift_amp=0.2,drift_period=8") and the SP_FAULTS schedules
 * ("after=2,every=3").
 *
 * A grammar is a table of Option rows, each binding a key to the field
 * it sets. parseOptions() splits the list at ',', rejects an item
 * without '=', an unknown key (the message lists the table) and a
 * duplicate key, and reads each value by its field's type:
 *
 *   double, optional<double>  finite decimal (fixed or scientific,
 *                             optional leading '-')
 *   uint32_t, uint64_t        decimal integer (digits only)
 *   bool                      flag: 0/1 (also false/true, no/yes)
 *   std::string               non-empty text (a file path)
 *   Custom, named()           any other reader/printer pair
 *
 * Values are never trimmed, so blanks, '+', hex, inf and nan are
 * rejected for every key. OptionValue::print() writes the form a
 * summary uses, and parseOptions() reads it back to the same value.
 */

#ifndef SP_COMMON_SPEC_NUMBER_H
#define SP_COMMON_SPEC_NUMBER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

namespace sp::common
{

/** Shortest representation that a decimal field reads back exactly. */
std::string shortestDouble(double value);

/** The field one grammar row reads into and prints from. */
class OptionValue
{
  public:
    /** A reader that fatal()s on bad text, and its printer. */
    struct Custom
    {
        std::function<void(const std::string &)> read;
        std::function<std::string()> print;
    };

    OptionValue(double &field) : field_(&field) {}
    OptionValue(std::optional<double> &field) : field_(&field) {}
    OptionValue(uint32_t &field) : field_(&field) {}
    OptionValue(uint64_t &field) : field_(&field) {}
    OptionValue(bool &field) : field_(&field) {}
    OptionValue(std::string &field) : field_(&field) {}
    OptionValue(Custom custom) : field_(std::move(custom)) {}

    /** Set the field from `value`; fatal() when it does not read. */
    void read(const char *grammar, const std::string &key,
              const std::string &value) const;

    /** The field in summary form (an unset optional prints ""). */
    std::string print() const;

  private:
    std::variant<double *, std::optional<double> *, uint32_t *,
                 uint64_t *, bool *, std::string *, Custom>
        field_;
};

/** An enum field read by `from_name` (which fatal()s on unknown
 *  names) and printed by `name`. */
template <class Enum, class FromName, class Name>
OptionValue::Custom
named(Enum &field, FromName from_name, Name name)
{
    return {[&field, from_name](const std::string &v) {
                field = from_name(v);
            },
            [&field, name] { return std::string(name(field)); }};
}

/** One grammar row: `key=` sets the field `value` refers to. */
struct Option
{
    const char *key;
    OptionValue value;
    /** Caller-defined group (the system grammar's option set). */
    unsigned group = 0;
};

/**
 * Parse the option list `text` against `rows`; fatal()s with
 * "<grammar>: ..." on any malformed item. Returns the keys given.
 */
std::set<std::string> parseOptions(const char *grammar,
                                   const std::string &text,
                                   const std::vector<Option> &rows);

} // namespace sp::common

#endif // SP_COMMON_SPEC_NUMBER_H
