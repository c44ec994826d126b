#include "sys/spec.h"

#include "common/logging.h"
#include "common/spec_number.h"
#include "sys/registry.h"

namespace sp::sys
{

namespace
{

/** The system grammar: each key, the field it sets and its option
 *  set, in summary order. */
std::vector<common::Option>
optionTable(SystemSpec &spec)
{
    constexpr auto kCache = static_cast<unsigned>(OptionSet::Cache);
    constexpr auto kPad = static_cast<unsigned>(OptionSet::Scratchpad);
    constexpr auto kServe = static_cast<unsigned>(OptionSet::Serve);
    ScratchPipeOptions &pad = spec.scratchpipe;
    ServeOptions &serve = spec.serve;
    data::ArrivalConfig &arrival = spec.serve.arrival;
    const common::OptionValue::Custom refresh = {
        [&serve](const std::string &value) {
            serve.dynamic_refresh = value != "static";
            if (serve.dynamic_refresh)
                serve.policy = cache::policyFromName(value);
        },
        [&serve] {
            return std::string(serve.dynamic_refresh
                                   ? cache::policyName(serve.policy)
                                   : "static");
        }};
    return {
        {"cache", spec.cache_fraction, kCache},
        {"policy",
         common::named(pad.policy, cache::policyFromName,
                       cache::policyName),
         kPad},
        {"past", pad.past_window, kPad},
        {"future", pad.future_window, kPad},
        {"warm", pad.warm_start, kPad},
        {"bound", pad.enforce_capacity_bound, kPad},
        {"overlap", pad.overlap_planning, kPad},
        {"shard", pad.plan_shards, kPad},
        {"probe",
         common::named(pad.probe, cache::probeModeFromName,
                       cache::probeModeName),
         kPad},
        {"arrival",
         common::named(arrival.kind, data::arrivalKindFromName,
                       data::arrivalKindName),
         kServe},
        {"rate", arrival.rate, kServe},
        {"batch_max", serve.batch_max, kServe},
        {"budget_us", serve.budget_us, kServe},
        {"refresh", refresh, kServe},
        {"burst_x", arrival.burst_x, kServe},
        {"burst_on_us", arrival.burst_on_us, kServe},
        {"burst_off_us", arrival.burst_off_us, kServe},
    };
}

/** Is a key of `set` given? C++ callers set cache_fraction
 *  directly, so it is the record for the cache set. */
bool
isGiven(const SystemSpec &spec, OptionSet set)
{
    return set == OptionSet::Cache ? spec.cache_fraction.has_value()
                                   : spec.given.contains(set);
}

/** How validate() names a system that lacks each option set. */
constexpr std::pair<OptionSet, const char *> kLacks[] = {
    {OptionSet::Cache, "has no GPU cache"},
    {OptionSet::Scratchpad, "has no scratchpad"},
    {OptionSet::Serve, "does not serve requests"},
};

} // namespace

SystemSpec
SystemSpec::parse(const std::string &text)
{
    SystemSpec spec;
    const size_t colon = text.find(':');
    spec.name = text.substr(0, colon);
    fatalIf(spec.name.empty(), "system spec: empty system name in '",
            text, "'");
    if (colon == std::string::npos)
        return spec;

    const std::vector<common::Option> rows = optionTable(spec);
    const std::set<std::string> keys =
        common::parseOptions("system spec", text.substr(colon + 1), rows);
    for (const common::Option &row : rows)
        if (keys.contains(row.key))
            spec.given.insert(static_cast<OptionSet>(row.group));
    // Diagnosed here, not at build time: rate=0 would divide every
    // Poisson inter-arrival gap by zero.
    fatalIf(spec.serve.arrival.rate <= 0.0,
            "system spec: 'rate' must be a positive request rate "
            "(requests/second), got ", spec.serve.arrival.rate);
    fatalIf(spec.serve.batch_max == 0,
            "system spec: 'batch_max' must be at least 1");
    return spec;
}

SystemSpec
SystemSpec::withCache(const std::string &name, double fraction)
{
    SystemSpec spec;
    spec.name = name;
    spec.cache_fraction = fraction;
    return spec;
}

std::string
SystemSpec::summary() const
{
    SystemSpec fields = *this; // the table binds mutable fields
    std::string text = name;
    char separator = ':';
    for (const common::Option &row : optionTable(fields)) {
        if (!isGiven(*this, static_cast<OptionSet>(row.group)))
            continue;
        text += separator + std::string(row.key) + '=' +
                row.value.print();
        separator = ',';
    }
    return text;
}

void
SystemSpec::validate() const
{
    const Registry::Entry &entry = Registry::entry(name);
    for (const auto &[set, lacks] : kLacks) {
        if (!isGiven(*this, set) || entry.options.contains(set))
            continue;
        const std::vector<std::string> set_keys = keys({set});
        std::string list;
        for (const std::string &key : set_keys)
            list += (list.empty() ? "" : "/") + key;
        fatal("system '", name, "' ", lacks, "; ", list,
              set_keys.size() == 1 ? " does" : " do", " not apply");
    }
    if (cache_fraction.has_value()) {
        // Written as !(in range) so NaN is rejected too.
        fatalIf(!(*cache_fraction > 0.0 && *cache_fraction <= 1.0),
                "cache fraction must be in (0, 1], got ",
                *cache_fraction);
    }
    if (entry.options.contains(OptionSet::Serve)) {
        const std::string problem = serveOptions().validationError();
        fatalIf(!problem.empty(), "system '", name, "': ", problem);
    }
}

ScratchPipeOptions
SystemSpec::scratchPipeOptions(bool pipelined) const
{
    ScratchPipeOptions options = scratchpipe;
    options.pipelined = pipelined;
    if (cache_fraction.has_value())
        options.cache_fraction = *cache_fraction;
    return options;
}

ServeOptions
SystemSpec::serveOptions() const
{
    ServeOptions options = serve;
    if (cache_fraction.has_value())
        options.cache_fraction = *cache_fraction;
    return options;
}

std::vector<std::string>
SystemSpec::keys(const std::set<OptionSet> &sets)
{
    SystemSpec fields;
    std::vector<std::string> keys;
    for (const common::Option &row : optionTable(fields))
        if (sets.contains(static_cast<OptionSet>(row.group)))
            keys.push_back(row.key);
    return keys;
}

} // namespace sp::sys
