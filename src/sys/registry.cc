#include "sys/registry.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace sp::sys
{

// Defined next to each system's implementation; called once from
// instance(). Central dispatch (rather than static initialisers in
// each .cc) keeps registration immune to static-library dead
// stripping: a driver that only links the registry still sees every
// system.
void registerHybridSystem(Registry &registry);
void registerStaticCacheSystem(Registry &registry);
void registerScratchPipeSystems(Registry &registry);
void registerMultiGpuSystem(Registry &registry);
void registerServingSystem(Registry &registry);

Registry &
Registry::instance()
{
    // Magic static: the builtin registrations complete (thread-safely)
    // before any caller can observe the instance.
    static Registry registry = [] {
        Registry built;
        registerHybridSystem(built);
        registerStaticCacheSystem(built);
        registerScratchPipeSystems(built);
        registerMultiGpuSystem(built);
        registerServingSystem(built);
        return built;
    }();
    return registry;
}

void
Registry::addEntry(Entry entry)
{
    panicIf(entry.name.empty(), "registry: entry without a name");
    panicIf(!entry.build, "registry: system '", entry.name,
            "' has no builder");
    panicIf(entries_.count(entry.name) != 0,
            "registry: duplicate system '", entry.name, "'");
    entries_.emplace(entry.name, std::move(entry));
}

std::unique_ptr<System>
Registry::build(const SystemSpec &spec, const ModelConfig &model,
                const sim::HardwareConfig &hw)
{
    spec.validate();
    return entry(spec.name).build(model, hw, spec);
}

std::vector<std::string>
Registry::names()
{
    std::vector<std::string> names;
    for (const auto &[name, entry] : instance().entries_)
        names.push_back(name);
    return names;
}

const Registry::Entry &
Registry::entry(const std::string &name)
{
    const auto &entries = instance().entries_;
    const auto found = entries.find(name);
    if (found != entries.end())
        return found->second;

    std::ostringstream known;
    for (const auto &n : names())
        known << (known.tellp() > 0 ? "/" : "") << n;
    const std::string nearest = suggest(name);
    if (!nearest.empty())
        fatal("unknown system '", name, "' -- did you mean '", nearest,
              "'? (", known.str(), ")");
    fatal("unknown system '", name, "' (", known.str(), ")");
}

bool
Registry::contains(const std::string &name)
{
    return instance().entries_.count(name) != 0;
}

namespace
{

/** Levenshtein distance, O(|a|*|b|). */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> row(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        size_t diagonal = row[0];
        row[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            const size_t substitute =
                diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
            diagonal = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
        }
    }
    return row[b.size()];
}

} // namespace

std::string
Registry::suggest(const std::string &name)
{
    std::string best;
    size_t best_distance = 0;
    for (const auto &candidate : names()) {
        const size_t distance = editDistance(name, candidate);
        if (best.empty() || distance < best_distance) {
            best = candidate;
            best_distance = distance;
        }
    }
    // Only suggest plausible typos, not arbitrary replacements.
    const size_t cutoff = std::max<size_t>(2, name.size() / 3);
    return best_distance <= cutoff ? best : std::string();
}

} // namespace sp::sys
