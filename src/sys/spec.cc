#include "sys/spec.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/spec_number.h"
#include "sys/registry.h"

namespace sp::sys
{

namespace
{

double
parseDouble(const std::string &key, const std::string &value)
{
    return common::parseSpecDouble("system spec", key, value);
}

uint32_t
parseWindow(const std::string &key, const std::string &value)
{
    const double parsed = parseDouble(key, value);
    // Bounds-check before the cast: double -> uint32_t is UB outside
    // [0, 2^32).
    fatalIf(!(parsed >= 0.0 && parsed <= 4294967295.0) ||
                parsed != std::floor(parsed),
            "system spec: '", key, "' must be a small non-negative "
            "integer, got '", value, "'");
    return static_cast<uint32_t>(parsed);
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    fatal("system spec: '", key, "' expects 0/1, got '", value, "'");
}

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

    std::stringstream options(text.substr(colon + 1));
    std::string item;
    std::vector<std::string> seen;
    while (std::getline(options, item, ',')) {
        const size_t eq = item.find('=');
        fatalIf(eq == std::string::npos,
                "system spec: expected key=value, got '", item, "' in '",
                text, "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        // Reject duplicates instead of letting the last one win: a
        // typo like policy=lfu,policy=lru would otherwise silently
        // simulate a different system than the one on the screen.
        fatalIf(std::find(seen.begin(), seen.end(), key) != seen.end(),
                "system spec: duplicate key '", key, "' in '", text,
                "' (each option may appear once)");
        seen.push_back(key);
        if (key == "cache") {
            spec.cache_fraction = parseDouble(key, value);
        } else if (key == "policy") {
            spec.scratchpipe.policy = cache::policyFromName(value);
            spec.scratchpipe_tuned = true;
        } else if (key == "past") {
            spec.scratchpipe.past_window = parseWindow(key, value);
            spec.scratchpipe_tuned = true;
        } else if (key == "future") {
            spec.scratchpipe.future_window = parseWindow(key, value);
            spec.scratchpipe_tuned = true;
        } else if (key == "warm") {
            spec.scratchpipe.warm_start = parseBool(key, value);
            spec.scratchpipe_tuned = true;
        } else if (key == "bound") {
            spec.scratchpipe.enforce_capacity_bound = parseBool(key, value);
            spec.scratchpipe_tuned = true;
        } else if (key == "overlap") {
            spec.scratchpipe.overlap_planning = parseBool(key, value);
            spec.scratchpipe_tuned = true;
        } else if (key == "shard") {
            spec.scratchpipe.plan_shards = parseWindow(key, value);
            spec.scratchpipe_tuned = true;
        } else if (key == "probe") {
            spec.scratchpipe.probe = cache::probeModeFromName(value);
            spec.scratchpipe_tuned = true;
        } else if (key == "arrival") {
            spec.serve.arrival.kind = data::arrivalKindFromName(value);
            spec.serve_tuned = true;
        } else if (key == "rate") {
            spec.serve.arrival.rate = parseDouble(key, value);
            // Diagnosed here, not at build time: rate=0 would divide
            // every Poisson inter-arrival gap by zero.
            fatalIf(spec.serve.arrival.rate <= 0.0,
                    "system spec: 'rate' must be a positive request "
                    "rate (requests/second), got '", value, "'");
            spec.serve_tuned = true;
        } else if (key == "batch_max") {
            spec.serve.batch_max = parseWindow(key, value);
            fatalIf(spec.serve.batch_max == 0,
                    "system spec: 'batch_max' must be at least 1");
            spec.serve_tuned = true;
        } else if (key == "budget_us") {
            spec.serve.budget_us = parseDouble(key, value);
            spec.serve_tuned = true;
        } else if (key == "refresh") {
            if (value == "static") {
                spec.serve.dynamic_refresh = false;
            } else {
                spec.serve.dynamic_refresh = true;
                spec.serve.policy = cache::policyFromName(value);
            }
            spec.serve_tuned = true;
        } else if (key == "burst_x") {
            spec.serve.arrival.burst_x = parseDouble(key, value);
            spec.serve_tuned = true;
        } else if (key == "burst_on_us") {
            spec.serve.arrival.burst_on_us = parseDouble(key, value);
            spec.serve_tuned = true;
        } else if (key == "burst_off_us") {
            spec.serve.arrival.burst_off_us = parseDouble(key, value);
            spec.serve_tuned = true;
        } else {
            fatal("system spec: unknown key '", key, "' in '", text,
                  "' (cache/policy/past/future/warm/bound/overlap/"
                  "shard/probe or serving keys arrival/rate/batch_max/"
                  "budget_us/refresh/burst_x/burst_on_us/"
                  "burst_off_us)");
        }
    }
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
    std::ostringstream os;
    os << name;
    char separator = ':';
    const auto emit = [&](const std::string &key, const std::string &v) {
        os << separator << key << '=' << v;
        separator = ',';
    };
    if (cache_fraction.has_value()) {
        // Shortest round-trip representation ("0.02", not "0.020000").
        emit("cache", common::shortestDouble(*cache_fraction));
    }
    if (scratchpipe_tuned) {
        emit("policy", cache::policyName(scratchpipe.policy));
        emit("past", std::to_string(scratchpipe.past_window));
        emit("future", std::to_string(scratchpipe.future_window));
        emit("warm", scratchpipe.warm_start ? "1" : "0");
        emit("bound", scratchpipe.enforce_capacity_bound ? "1" : "0");
        emit("overlap", scratchpipe.overlap_planning ? "1" : "0");
        emit("shard", std::to_string(scratchpipe.plan_shards));
        emit("probe", cache::probeModeName(scratchpipe.probe));
    }
    if (serve_tuned) {
        emit("arrival", data::arrivalKindName(serve.arrival.kind));
        emit("rate", common::shortestDouble(serve.arrival.rate));
        emit("batch_max", std::to_string(serve.batch_max));
        emit("budget_us", common::shortestDouble(serve.budget_us));
        emit("refresh", serve.dynamic_refresh
                            ? cache::policyName(serve.policy)
                            : "static");
        emit("burst_x", common::shortestDouble(serve.arrival.burst_x));
        emit("burst_on_us", common::shortestDouble(serve.arrival.burst_on_us));
        emit("burst_off_us",
             common::shortestDouble(serve.arrival.burst_off_us));
    }
    return os.str();
}

void
SystemSpec::validate() const
{
    const Registry::Entry &entry = Registry::entry(name);
    if (cache_fraction.has_value()) {
        fatalIf(!entry.uses_cache_fraction, "system '", name,
                "' has no GPU cache; remove cache=", *cache_fraction,
                " (it was silently ignored by the legacy factory)");
        // Written as !(in range) so NaN is rejected too.
        fatalIf(!(*cache_fraction > 0.0 && *cache_fraction <= 1.0),
                "cache fraction must be in (0, 1], got ",
                *cache_fraction);
    }
    fatalIf(scratchpipe_tuned && !entry.uses_scratchpipe_options,
            "system '", name, "' has no scratchpad; "
            "policy/past/future/warm/bound/overlap/shard/probe do not "
            "apply");
    fatalIf(serve_tuned && !entry.uses_serve_options,
            "system '", name, "' does not serve requests; "
            "arrival/rate/batch_max/budget_us/refresh/burst_x/"
            "burst_on_us/burst_off_us do not apply");
    if (entry.uses_serve_options) {
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

} // namespace sp::sys
