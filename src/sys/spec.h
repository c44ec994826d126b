/**
 * @file
 * Declarative description of one system design point to evaluate.
 *
 * A SystemSpec names a registered system plus every tunable the legacy
 * positional factory could not express: the cache fraction where it
 * applies, and the full ScratchPipeOptions surface (policy, windows,
 * warm start, capacity bound) for the scratchpad systems. Specs parse
 * from compact strings so CLI flags, bench sweeps and tests share one
 * grammar:
 *
 *   "hybrid"
 *   "static:cache=0.02"
 *   "scratchpipe:cache=0.05,policy=lfu,past=4,future=2,warm=0"
 *   "serve:rate=500000,arrival=bursty,batch_max=16,budget_us=300,
 *    refresh=lru"                     (online serving: open-loop
 *                                      arrivals, admission batching,
 *                                      two-tier cache; see
 *                                      sys/serving.h)
 *
 * Each key belongs to one option set (cache=, the scratchpad keys, the
 * serving keys), and each registered system lists the sets it takes;
 * `spsim --list-systems` prints every system's keys from the table in
 * spec.cc. validate() is registry-aware: setting `cache=` on a system
 * that has no cache (hybrid, multigpu) is a hard error, not a silent
 * no-op -- the exact footgun the positional factory shipped with --
 * and so is any other key of a set the system does not take.
 */

#ifndef SP_SYS_SPEC_H
#define SP_SYS_SPEC_H

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sys/scratchpipe_sys.h"
#include "sys/serving.h"

namespace sp::sys
{

/** The groups of spec keys; a system takes some of them. */
enum class OptionSet : unsigned
{
    Cache,      //!< the cache/scratchpad capacity fraction
    Scratchpad, //!< scratchpad tunables (strawman, scratchpipe)
    Serve,      //!< online serving tunables (serve)
};

/** Parsed, validated description of one system to build and run. */
struct SystemSpec
{
    /** Registry key ("hybrid", "static", "strawman", "scratchpipe",
     *  "multigpu", or any later-registered system). */
    std::string name = "scratchpipe";

    /** GPU cache/scratchpad capacity as a fraction of each table.
     *  Unset means the system's default; setting it for a cache-less
     *  system is a validation error. */
    std::optional<double> cache_fraction;

    /** Scratchpad tunables for the scratchpipe/strawman systems.
     *  `pipelined` is ignored (the name decides it); `cache_fraction`
     *  inside is superseded by the field above when that is set. */
    ScratchPipeOptions scratchpipe;

    /** Serving tunables for the serve system family. `cache_fraction`
     *  inside is superseded by the field above when that is set. */
    ServeOptions serve;

    /** The option sets parse() saw a key of. summary() prints every
     *  key of a given set, and validate() rejects a given set the
     *  system does not take; `cache=` counts as given whenever
     *  cache_fraction is set. */
    std::set<OptionSet> given;

    /**
     * Parse "name[:key=value,...]". fatal() on unknown keys or
     * malformed values; the system name itself is checked by
     * validate()/Registry::build.
     */
    static SystemSpec parse(const std::string &text);

    /** Convenience: `name` with `cache=fraction` (sweep helper). */
    static SystemSpec withCache(const std::string &name, double fraction);

    /** Canonical spec string (round-trips through parse()). */
    std::string summary() const;

    /**
     * Registry-aware validation: the name must be registered, the
     * system must take every given option set, and a set cache
     * fraction must lie in (0, 1]. fatal() with an
     * actionable message (including nearest-name suggestions for
     * typos) otherwise.
     */
    void validate() const;

    /** The cache fraction to build with (`fallback` when unset). */
    double cacheFractionOr(double fallback) const
    {
        return cache_fraction.value_or(fallback);
    }

    /** ScratchPipeOptions with the spec's cache fraction folded in. */
    ScratchPipeOptions scratchPipeOptions(bool pipelined) const;

    /** ServeOptions with the spec's cache fraction folded in. */
    ServeOptions serveOptions() const;

    /** Every key of the option sets `sets`, in summary order. */
    static std::vector<std::string> keys(const std::set<OptionSet> &sets);
};

} // namespace sp::sys

#endif // SP_SYS_SPEC_H
