/**
 * @file
 * Quickstart: the ScratchPipe library in ~60 lines.
 *
 * 1. Describe a recommendation model + synthetic trace (ModelConfig).
 * 2. Train it functionally with the pipelined ScratchPipe runtime and
 *    verify against the sequential reference -- bit-identical.
 * 3. Ask the timing models how the same workload behaves at the
 *    paper's full 40 GB geometry on a Xeon + V100 server.
 */

#include <cstdio>

#include "sys/experiment.h"
#include "sys/functional.h"

using namespace sp;

int
main()
{
    // ---- 1. A small, fully materialised model --------------------
    sys::ModelConfig model = sys::ModelConfig::functionalScale();
    model.trace.locality = data::Locality::Medium;
    model.trace.seed = 7;

    constexpr uint64_t kIterations = 40;
    data::TraceDataset dataset(model.trace, kIterations);

    // ---- 2. Train with ScratchPipe; check against the reference ---
    sys::FunctionalScratchPipeTrainer scratchpipe(
        model, sys::ScratchPipeOptions{.cache_fraction = 0.25});
    const auto sp_run = scratchpipe.train(dataset, kIterations);

    sys::FunctionalHybridTrainer reference(model);
    const auto ref_run = reference.train(dataset, kIterations);

    bool identical = true;
    for (size_t t = 0; t < model.trace.num_tables; ++t) {
        identical &= emb::EmbeddingTable::identical(
            scratchpipe.tables()[t], reference.tables()[t]);
    }
    std::printf("trained %llu iterations | loss %.4f -> %.4f | "
                "scratchpad hit rate %.1f%%\n",
                static_cast<unsigned long long>(kIterations),
                sp_run.initialLoss(), sp_run.finalLoss(),
                100.0 * scratchpipe.hitRate());
    std::printf("bit-identical to sequential training: %s\n",
                identical ? "yes" : "NO (bug!)");

    // ---- 3. Paper-scale what-if on the modeled testbed ------------
    sys::ModelConfig paper = sys::ModelConfig::paperDefault();
    paper.trace.locality = data::Locality::Medium;
    sys::ExperimentOptions options;
    options.iterations = 10;
    options.warmup = 10;
    const sys::ExperimentRunner runner(
        paper, sim::HardwareConfig::paperTestbed(), options);

    std::printf("\npaper-scale iteration time (Medium locality, 10%% "
                "cache):\n");
    const auto results =
        runner.runAll({sys::SystemSpec::parse("hybrid"),
                       sys::SystemSpec::parse("static:cache=0.10"),
                       sys::SystemSpec::parse("scratchpipe:cache=0.10")});
    for (const auto &result : results) {
        std::printf("  %-16s %7.2f ms/iter\n", result.system_name.c_str(),
                    1e3 * result.seconds_per_iteration);
    }
    return 0;
}
