/**
 * @file
 * Scenario: analysing a recorded training trace.
 *
 * The paper's Section III characterisation -- measure a dataset's
 * embedding-access locality, then predict cache behaviour -- as a
 * reusable tool. We record a trace to disk (the binary format any
 * production dataloader could emit), reopen it, fit its top-2%
 * coverage to the nearest locality preset, and report the static
 * cache size needed for a target hit rate versus what ScratchPipe
 * would need.
 */

#include <cstdio>
#include <string>

#include "core/controller.h"
#include "data/access_stats.h"
#include "data/dataset.h"

using namespace sp;

int
main()
{
    // 1. Record: a dataloader writes its sparse-ID stream.
    data::TraceConfig config;
    config.num_tables = 4;
    config.rows_per_table = 500'000;
    config.lookups_per_table = 10;
    config.batch_size = 1024;
    config.locality = data::Locality::Low; // unknown to the analyser
    config.seed = 555;
    const std::string path = "/tmp/scratchpipe_example_trace.bin";
    {
        const data::TraceDataset recorded(config, 30);
        const Status saved = recorded.saveTo(path);
        if (!saved.ok()) {
            std::fprintf(stderr, "%s\n", saved.toString().c_str());
            return 1;
        }
        std::printf("recorded 30 mini-batches to %s\n", path.c_str());
    }

    // 2. Reopen and characterise.
    const data::TraceDataset trace = data::TraceDataset::open(path);
    data::AccessStats stats(trace.config().num_tables,
                            trace.config().rows_per_table);
    stats.addDataset(trace);

    std::printf("\nper-table characterisation:\n");
    for (size_t t = 0; t < trace.config().num_tables; ++t) {
        const double top2 = stats.coverage(t, 0.02);
        // Nearest preset by top-2% coverage distance.
        data::Locality best = data::Locality::Random;
        double best_gap = 1e9;
        for (auto preset : data::kAllLocalities) {
            const double gap =
                std::abs(top2 - data::expectedTop2PercentCoverage(preset));
            if (gap < best_gap) {
                best_gap = gap;
                best = preset;
            }
        }
        std::printf("  table %zu: %llu unique rows touched, top-2%% "
                    "coverage %.1f%% -> looks like '%s'\n",
                    t,
                    static_cast<unsigned long long>(stats.uniqueRows(t)),
                    100.0 * top2, data::localityName(best));
    }

    // 3. What would a static cache need for 90% hits?
    std::printf("\nstatic cache size required for a 90%% hit rate:\n");
    for (size_t t = 0; t < trace.config().num_tables; ++t) {
        double fraction = 1.0;
        for (double f = 0.01; f <= 1.0; f += 0.01) {
            if (stats.coverage(t, f) >= 0.90) {
                fraction = f;
                break;
            }
        }
        std::printf("  table %zu: %.0f%% of the table\n", t,
                    100.0 * fraction);
    }

    // 4. ScratchPipe needs only the in-flight window, regardless.
    const uint32_t slots = core::ScratchPipeController::worstCaseSlots(
        3, 2, trace.config().idsPerTable());
    std::printf("\nScratchPipe always-hit guarantee needs just %u "
                "slots/table (%.2f%% of the table) -- independent of "
                "locality.\n",
                slots,
                100.0 * slots /
                    static_cast<double>(trace.config().rows_per_table));

    std::remove(path.c_str());
    return 0;
}
