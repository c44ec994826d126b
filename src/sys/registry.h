/**
 * @file
 * String-keyed table of system models.
 *
 * Each system has one row in the table in registry.cc: a stable
 * CLI-friendly key ("hybrid", "scratchpipe", ...), a one-line
 * description, the spec option sets it takes (they drive SystemSpec
 * validation and `spsim --list-systems`) and a builder. Drivers build
 * systems by name:
 *
 *   auto system = sys::Registry::build(spec, model, hardware);
 *   RunResult r = system->simulate(dataset, stats, iters, warmup);
 *
 * A new system adds one row and is immediately reachable from spsim,
 * every bench, and the ExperimentRunner with no driver changes.
 *
 * Unknown names fail with a nearest-name suggestion so a typo like
 * "scratchpip" points at the intended system instead of a bare list.
 */

#ifndef SP_SYS_REGISTRY_H
#define SP_SYS_REGISTRY_H

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/hardware_config.h"
#include "sys/spec.h"
#include "sys/system.h"
#include "sys/system_config.h"

namespace sp::sys
{

/** The name -> builder table of system models. */
class Registry
{
  public:
    /** Factory signature every system provides. */
    using Builder = std::function<std::unique_ptr<System>(
        const ModelConfig &, const sim::HardwareConfig &,
        const SystemSpec &)>;

    /** One registered system. */
    struct Entry
    {
        /** CLI key, e.g. "scratchpipe". */
        std::string name;
        /** One-line description for --list-systems. */
        std::string description;
        /** The spec option sets this system takes. */
        std::set<OptionSet> options;
        Builder build;
    };

    /** Build a system for `spec` (spec.name keys the lookup).
     *  fatal() with a suggestion when the name is unknown; runs
     *  spec.validate() first so misuse fails before construction. */
    static std::unique_ptr<System> build(const SystemSpec &spec,
                                         const ModelConfig &model,
                                         const sim::HardwareConfig &hw);

    /** Registered names, sorted. */
    static std::vector<std::string> names();

    /** Entry for `name`; fatal() with a suggestion when unknown. */
    static const Entry &entry(const std::string &name);

    /** Nearest registered name by edit distance (empty when none is
     *  plausibly close). */
    static std::string suggest(const std::string &name);
};

} // namespace sp::sys

#endif // SP_SYS_REGISTRY_H
