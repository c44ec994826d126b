#include "sys/experiment.h"

#include "common/fault.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/trace_store.h"
#include "sys/registry.h"

namespace sp::sys
{

namespace
{

/** Extra batches beyond warmup+measure for the future-window
 *  look-ahead (matches the seed drivers' "+2"). */
constexpr uint64_t kLookahead = 2;

} // namespace

ExperimentRunner::ExperimentRunner(const ModelConfig &model,
                                   const sim::HardwareConfig &hardware,
                                   const ExperimentOptions &options)
    : model_(model), hardware_(hardware), options_(options)
{
    fatalIf(options_.iterations == 0,
            "experiment needs at least one measured iteration");
    model_.validate();
    const uint64_t batches =
        options_.warmup + options_.iterations + kLookahead;
    if (!options_.replay_path.empty()) {
        // Replay: the recorded file is the trace. Its embedded config
        // replaces the model's trace geometry so the systems, batch
        // statistics and capacity bounds all see the recorded stream's
        // true shape; the trace cache never participates.
        SP_FAULT_POINT("dataset.replay.open");
        dataset_ = std::make_unique<data::TraceDataset>(
            data::TraceDataset::open(options_.replay_path, batches));
        fatalIf(dataset_->numBatches() < batches, "replay file '",
                options_.replay_path, "' holds only ",
                dataset_->numBatches(), " batches; warmup ",
                options_.warmup, " + iterations ", options_.iterations,
                " + look-ahead ", kLookahead, " needs ", batches);
        model_.trace = dataset_->config();
        model_.validate();
        stats_ = std::make_unique<BatchStats>(
            *dataset_, options_.warmup + options_.iterations);
        return;
    }
    // With the process-wide trace cache on (drivers enable it; see
    // data/trace_store.h), warm starts mmap a published trace instead
    // of regenerating it -- batch contents are identical either way,
    // so every downstream result is bit-identical.
    if (data::TraceStore::cacheEnabled()) {
        dataset_ = std::make_unique<data::TraceDataset>(
            data::TraceStore().acquire(model_.trace, batches));
    } else {
        dataset_ = std::make_unique<data::TraceDataset>(model_.trace,
                                                        batches);
    }
    stats_ = std::make_unique<BatchStats>(
        *dataset_, options_.warmup + options_.iterations);
}

RunResult
ExperimentRunner::run(const SystemSpec &spec) const
{
    SP_FAULT_POINT("experiment.run");
    const auto system = Registry::build(spec, model_, hardware_);
    return system->simulate(*dataset_, *stats_, options_.iterations,
                            options_.warmup);
}

RunResult
ExperimentRunner::run(const std::string &spec_text) const
{
    return run(SystemSpec::parse(spec_text));
}

size_t
ExperimentRunner::effectiveJobs() const
{
    return options_.jobs > 0 ? options_.jobs
                             : common::ThreadPool::defaultThreads();
}

std::vector<RunResult>
ExperimentRunner::runAll(const std::vector<SystemSpec> &specs) const
{
    // Validate everything up front so a bad spec fails fast on the
    // caller's thread, before any simulation starts.
    for (const auto &spec : specs)
        spec.validate();

    std::vector<RunResult> results(specs.size());
    // Failure isolation: one spec's error lands in its result slot
    // instead of aborting the sweep (unless fail_fast). Panics pass
    // through -- an invariant violation means nothing downstream is
    // trustworthy. The slot-i-from-call-i write pattern keeps failed
    // sweeps exactly as deterministic as clean ones.
    const auto runOne = [this, &specs, &results](size_t i) {
        if (options_.fail_fast) {
            results[i] = run(specs[i]);
            return;
        }
        try {
            results[i] = run(specs[i]);
        } catch (const PanicError &) {
            throw;
        } catch (const std::exception &e) {
            results[i] = RunResult();
            results[i].system_name = specs[i].summary();
            results[i].error = e.what();
        }
    };

    const size_t jobs = effectiveJobs();
    if (specs.size() <= 1 || jobs <= 1) {
        for (size_t i = 0; i < specs.size(); ++i)
            runOne(i);
        return results;
    }

    // Fan the specs out over the shared global pool, capped at `jobs`
    // concurrent systems (caller + jobs-1 helpers). This replaces the
    // old unbounded thread-per-spec spawn -- a 40-spec sweep no
    // longer oversubscribes the host 40 ways -- without stacking a
    // second pool on top of the one the inner sites (trace
    // generation, per-table planning) already use. parallelFor
    // rethrows the first error (with fail_fast that is the first
    // failing spec; otherwise only panics and injected
    // "thread_pool.task" faults reach it).
    common::ThreadPool::global().parallelFor(specs.size(), runOne,
                                             jobs - 1);
    return results;
}

} // namespace sp::sys
