#include "sys/registry.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "sys/hybrid.h"
#include "sys/multigpu.h"
#include "sys/scratchpipe_sys.h"
#include "sys/serving.h"
#include "sys/static_sys.h"

namespace sp::sys
{

namespace
{

/** Every system, one row each. */
const std::vector<Registry::Entry> &
systems()
{
    using Hw = sim::HardwareConfig;
    static const std::vector<Registry::Entry> table = {
        {"hybrid", "CPU-resident embeddings, GPU MLPs, no cache (Fig. 4a)",
         /*options=*/{},
         [](const ModelConfig &model, const Hw &hw,
            const SystemSpec &) -> std::unique_ptr<System> {
             return std::make_unique<HybridCpuGpu>(model, hw);
         }},
        {"multigpu", "8x V100 model-parallel GPU-only trainer (Section VI-F)",
         /*options=*/{},
         [](const ModelConfig &model, const Hw &hw,
            const SystemSpec &) -> std::unique_ptr<System> {
             return std::make_unique<MultiGpuSystem>(model, hw);
         }},
        {"scratchpipe",
         "dynamic always-hit GPU scratchpad, six-stage pipeline "
         "(Section IV-C)",
         {OptionSet::Cache, OptionSet::Scratchpad},
         [](const ModelConfig &model, const Hw &hw,
            const SystemSpec &spec) -> std::unique_ptr<System> {
             return std::make_unique<ScratchPipeSystem>(
                 model, hw, spec.scratchPipeOptions(true));
         }},
        {"serve",
         "online inference serving: open-loop arrivals, latency-budget "
         "admission batching, GPU embedding cache over a host parameter "
         "server (HugeCTR-HPS-style), SLO percentiles",
         {OptionSet::Cache, OptionSet::Serve},
         [](const ModelConfig &model, const Hw &hw,
            const SystemSpec &spec) -> std::unique_ptr<System> {
             return std::make_unique<ServingSystem>(model, hw,
                                                    spec.serveOptions());
         }},
        {"static",
         "CPU-GPU with a static top-N GPU cache (Fig. 4b, Yin et al. "
         "baseline)",
         {OptionSet::Cache},
         [](const ModelConfig &model, const Hw &hw,
            const SystemSpec &spec) -> std::unique_ptr<System> {
             return std::make_unique<StaticCacheSystem>(
                 model, hw, spec.cacheFractionOr(0.10));
         }},
        {"strawman", "dynamic scratchpad, sequential stages (Section IV-B)",
         {OptionSet::Cache, OptionSet::Scratchpad},
         [](const ModelConfig &model, const Hw &hw,
            const SystemSpec &spec) -> std::unique_ptr<System> {
             return std::make_unique<ScratchPipeSystem>(
                 model, hw, spec.scratchPipeOptions(false));
         }},
    };
    return table;
}

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
    for (const Entry &entry : systems())
        names.push_back(entry.name);
    std::sort(names.begin(), names.end());
    return names;
}

const Registry::Entry &
Registry::entry(const std::string &name)
{
    for (const Entry &entry : systems()) {
        if (entry.name == name)
            return entry;
    }

    std::ostringstream known;
    for (const auto &n : names())
        known << (known.tellp() > 0 ? "/" : "") << n;
    const std::string nearest = suggest(name);
    if (!nearest.empty())
        fatal("unknown system '", name, "' -- did you mean '", nearest,
              "'? (", known.str(), ")");
    fatal("unknown system '", name, "' (", known.str(), ")");
}

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
