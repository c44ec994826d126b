/**
 * @file
 * spsim: command-line driver for the system models.
 *
 * Run any registered system -- or several at once, over the same
 * trace -- at any geometry/locality/cache size and get per-iteration
 * latency breakdowns, hit rate, energy and training cost.
 *
 *   spsim --list-systems
 *   spsim --system scratchpipe --locality low --cache 0.05
 *   spsim --system scratchpipe:policy=lfu,past=4 --format json
 *   spsim --system hybrid,static:cache=0.02,scratchpipe --jobs 8
 *
 * --system takes a comma-separated list of system specs (see
 * sys/spec.h for the grammar); all of them run over one shared
 * workload via sys::ExperimentRunner. --format selects an aligned
 * table, CSV, or a JSON array of RunResult objects.
 *
 * Failure contract: a spec whose simulation fails is reported (JSON
 * "error" field, stderr message) while the rest of the sweep
 * completes, unless --fail-fast aborts at the first failure. Exit
 * codes: 0 every spec succeeded, 1 usage/configuration error, 2 every
 * spec failed (or --fail-fast aborted), 3 some specs failed.
 * --faults/SP_FAULTS arm the deterministic fault injector
 * (common/fault.h) for chaos-testing those paths.
 */

#include <iostream>
#include <sstream>
#include <vector>

#include "common/args.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/trace_store.h"
#include "data/workload.h"
#include "metrics/cost.h"
#include "metrics/energy.h"
#include "metrics/table_printer.h"
#include "sys/experiment.h"
#include "sys/registry.h"

using namespace sp;

namespace
{

/** Split a --system list such as "hybrid,scratchpipe:policy=lfu,future=2"
 *  into specs. Spec option lists also use commas, so a comma-separated
 *  piece continues the current spec when it is a bare "key=value"
 *  option (an '=' and no ':'), and starts a new spec otherwise. */
std::vector<std::string>
splitSpecs(const std::string &text)
{
    std::vector<std::string> specs;
    std::string current;
    std::stringstream stream(text);
    std::string piece;
    while (std::getline(stream, piece, ',')) {
        const bool option = piece.find('=') != std::string::npos &&
                            piece.find(':') == std::string::npos;
        if (current.empty() || !option) {
            if (!current.empty())
                specs.push_back(current);
            current = piece;
        } else {
            current += "," + piece;
        }
    }
    if (!current.empty())
        specs.push_back(current);
    fatalIf(specs.empty(), "--system: no system specs in '", text, "'");
    return specs;
}

void
listSystems()
{
    metrics::TablePrinter table({"system", "description", "keys"});
    for (const auto &name : sys::Registry::names()) {
        const sys::Registry::Entry &entry = sys::Registry::entry(name);
        std::string keys;
        for (const std::string &key : sys::SystemSpec::keys(entry.options))
            keys += (keys.empty() ? "" : ",") + key;
        table.addRow({name, entry.description, keys.empty() ? "-" : keys});
    }
    table.print(std::cout);
}

void
printDetailed(const sys::RunResult &result, const std::string &spec_name,
              const sim::HardwareConfig &hw, bool csv)
{
    if (result.failed()) {
        metrics::TablePrinter table({"metric", "value"});
        table.addRow({"system", result.system_name});
        table.addRow({"status", "failed: " + result.error});
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
        return;
    }
    metrics::TablePrinter table({"metric", "value"});
    table.addRow({"system", result.system_name});
    table.addRow({"iteration (ms)",
                  metrics::TablePrinter::num(
                      1e3 * result.seconds_per_iteration, 3)});
    for (const auto &stage : result.breakdown.stages()) {
        table.addRow({"  " + stage.name + " (ms)",
                      metrics::TablePrinter::num(1e3 * stage.seconds, 3)});
    }
    if (result.hit_rate >= 0.0) {
        table.addRow({"hit rate",
                      metrics::TablePrinter::num(100.0 * result.hit_rate,
                                                 2) +
                          "%"});
    }
    if (!result.bottleneck.empty())
        table.addRow({"bottleneck", result.bottleneck});
    if (result.serving.enabled) {
        const auto &serving = result.serving;
        table.addRow({"requests served",
                      std::to_string(serving.requests)});
        if (serving.dropped > 0)
            table.addRow({"requests dropped",
                          std::to_string(serving.dropped)});
        table.addRow({"offered rate (req/s)",
                      metrics::TablePrinter::num(serving.offered_rate,
                                                 0)});
        table.addRow({"achieved rate (req/s)",
                      metrics::TablePrinter::num(serving.achieved_rate,
                                                 0)});
        table.addRow({"latency p50 (ms)",
                      metrics::TablePrinter::num(1e3 * serving.p50, 3)});
        table.addRow({"latency p99 (ms)",
                      metrics::TablePrinter::num(1e3 * serving.p99, 3)});
        table.addRow({"latency p999 (ms)",
                      metrics::TablePrinter::num(1e3 * serving.p999,
                                                 3)});
        table.addRow({"latency mean (ms)",
                      metrics::TablePrinter::num(1e3 * serving.mean,
                                                 3)});
        table.addRow({"latency max (ms)",
                      metrics::TablePrinter::num(1e3 * serving.max, 3)});
        table.addRow({"queue depth mean",
                      metrics::TablePrinter::num(
                          serving.mean_queue_depth, 2)});
        table.addRow({"queue depth max",
                      metrics::TablePrinter::num(serving.max_queue_depth,
                                                 0)});
        table.addRow({"batch fill mean",
                      metrics::TablePrinter::num(serving.mean_batch_fill,
                                                 2)});
    }
    table.addRow({"GPU bytes (GB)",
                  metrics::TablePrinter::num(result.gpu_bytes / 1e9, 2)});

    const metrics::EnergyModel energy(hw);
    table.addRow({"energy (J/iter)",
                  metrics::TablePrinter::num(
                      energy.iterationEnergy(result.busy), 2)});
    const auto instance = spec_name == "multigpu"
                              ? metrics::AwsInstance::p3_16xlarge()
                              : metrics::AwsInstance::p3_2xlarge();
    table.addRow(
        {"$ / 1M iters (" + instance.name + ")",
         metrics::TablePrinter::num(
             metrics::trainingCost(instance, result.seconds_per_iteration,
                                   1'000'000),
             2)});

    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

void
printComparison(const std::vector<sys::SystemSpec> &specs,
                const std::vector<sys::RunResult> &results,
                const sim::HardwareConfig &hw, bool csv)
{
    const metrics::EnergyModel energy(hw);
    metrics::TablePrinter table({"system", "spec", "iter_ms", "hit_rate",
                                 "bottleneck", "gpu_GB", "J_per_iter",
                                 "usd_per_1M"});
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &result = results[i];
        if (result.failed()) {
            // The error text itself goes to stderr; the table keeps
            // its column discipline.
            table.addRow({result.system_name, specs[i].summary(),
                          "failed", "-", "-", "-", "-", "-"});
            continue;
        }
        const auto instance = specs[i].name == "multigpu"
                                  ? metrics::AwsInstance::p3_16xlarge()
                                  : metrics::AwsInstance::p3_2xlarge();
        table.addRow(
            {result.system_name, specs[i].summary(),
             metrics::TablePrinter::num(
                 1e3 * result.seconds_per_iteration, 3),
             result.hit_rate >= 0.0
                 ? metrics::TablePrinter::num(100.0 * result.hit_rate, 2) +
                       "%"
                 : "-",
             result.bottleneck.empty() ? "-" : result.bottleneck,
             metrics::TablePrinter::num(result.gpu_bytes / 1e9, 2),
             metrics::TablePrinter::num(
                 energy.iterationEnergy(result.busy), 2),
             metrics::TablePrinter::num(
                 metrics::trainingCost(
                     instance, result.seconds_per_iteration, 1'000'000),
                 2)});
    }
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("spsim: simulate RecSys training systems on the "
                   "modeled Xeon+V100 testbed");
    args.addString("system", "scratchpipe",
                   "comma-separated system specs, e.g. "
                   "hybrid,static:cache=0.02,scratchpipe:policy=lfu");
    args.addString("locality", "medium", "random|low|medium|high");
    args.addDouble("cache", 0.10, "GPU cache fraction of each table");
    args.addInt("tables", 8, "number of embedding tables");
    args.addInt("rows", 10'000'000, "rows per table");
    args.addInt("dim", 128, "embedding dimension");
    args.addInt("lookups", 20, "gathers per table per sample");
    args.addInt("batch", 2048, "mini-batch size");
    args.addInt("iterations", 10, "measured iterations");
    args.addInt("warmup", 5, "warm-up iterations");
    args.addInt("seed", 42, "trace seed");
    args.addString("workload", "",
                   "workload shaping spec, e.g. 'drift_amp=0.4,"
                   "drift_period=8,burst_frac=0.3,burst_period=16,"
                   "burst_len=2,burst_ranks=512', or 'replay=FILE' to "
                   "run a recorded trace (see data/workload.h)");
    args.addString("format", "table", "table|csv|json");
    args.addInt("jobs", 0,
                "worker threads for every parallel site (trace "
                "generation, per-table planning, sweeps); "
                "0 = all cores, 1 = fully serial");
    args.addBool("no-trace-cache",
                 "regenerate the trace instead of serving it from the "
                 "content-addressed cache (SP_TRACE_CACHE, default "
                 ".sp-trace-cache/)");
    args.addString("faults", "",
                   "arm the deterministic fault injector, e.g. "
                   "'trace_store.publish.rename:after=1;"
                   "dataset.open.mmap:p=0.5,seed=7' (also via SP_FAULTS)");
    args.addBool("fail-fast",
                 "abort the sweep at the first failing spec (exit 2) "
                 "instead of completing the rest (exit 3)");
    args.addBool("list-systems", "print registered systems and exit");

    try {
        if (!args.parse(argc, argv)) {
            std::cout << args.usage();
            return 0;
        }
        if (args.getBool("list-systems")) {
            listSystems();
            return 0;
        }
        const std::string format = args.getString("format");
        fatalIf(format != "table" && format != "csv" && format != "json",
                "--format expects table|csv|json, got '", format, "'");

        std::vector<sys::SystemSpec> specs;
        for (const auto &text : splitSpecs(args.getString("system"))) {
            sys::SystemSpec spec = sys::SystemSpec::parse(text);
            // A --cache flag typed on the command line applies to every
            // spec that doesn't set its own; systems without a cache
            // reject it in validate() rather than silently ignoring it.
            if (args.wasSet("cache") && !spec.cache_fraction.has_value())
                spec.cache_fraction = args.getDouble("cache");
            spec.validate();
            specs.push_back(std::move(spec));
        }

        sys::ModelConfig model = sys::ModelConfig::paperDefault();
        model.trace.num_tables =
            static_cast<size_t>(args.getInt("tables"));
        model.trace.rows_per_table =
            static_cast<uint64_t>(args.getInt("rows"));
        model.trace.lookups_per_table =
            static_cast<size_t>(args.getInt("lookups"));
        model.trace.batch_size =
            static_cast<size_t>(args.getInt("batch"));
        model.trace.locality =
            data::localityFromName(args.getString("locality"));
        model.trace.seed = static_cast<uint64_t>(args.getInt("seed"));
        model.embedding_dim = static_cast<size_t>(args.getInt("dim"));
        // --workload: shaping keys reconfigure the generator; replay=
        // substitutes a recorded file for generation entirely (the
        // file's embedded config overrides the geometry flags above).
        const data::WorkloadSpec workload =
            data::WorkloadSpec::parse(args.getString("workload"));
        model.trace.workload = workload.config;

        const uint32_t jobs = parseJobsArg(args);
        // Size the process-wide pool before any parallel work runs.
        common::ThreadPool::setGlobalThreads(
            jobs > 0 ? static_cast<size_t>(jobs)
                     : common::ThreadPool::defaultThreads());
        // Identical trace whether generated or cache-served, so every
        // output stays byte-identical across cold and warm runs.
        data::TraceStore::setCacheEnabled(
            !args.getBool("no-trace-cache"));
        // --faults replaces any SP_FAULTS schedule; the active
        // schedule (with recorded seeds, for exact replay) goes to
        // stderr so JSON output on stdout stays machine-readable.
        if (args.wasSet("faults"))
            common::fault::configure(args.getString("faults"));
        if (common::fault::armed())
            std::cerr << common::fault::describe() << "\n";

        sys::ExperimentOptions options;
        options.iterations =
            static_cast<uint64_t>(args.getInt("iterations"));
        options.warmup = static_cast<uint64_t>(args.getInt("warmup"));
        // --jobs given: that width drives the sweep too (0 = all
        // cores). Otherwise the sweep stays sequential.
        options.jobs =
            args.wasSet("jobs") ? static_cast<uint32_t>(jobs) : 1;
        options.fail_fast = args.getBool("fail-fast");
        options.replay_path = workload.replay_path;

        const sim::HardwareConfig hw =
            sim::HardwareConfig::paperTestbed();
        if (format != "json") {
            std::cout << "generating trace ("
                      << (options.warmup + options.iterations + 2)
                      << " batches of " << model.trace.idsPerBatch()
                      << " IDs)\n";
        }
        const sys::ExperimentRunner runner(model, hw, options);
        std::vector<sys::RunResult> results;
        try {
            results = runner.runAll(specs);
        } catch (const std::exception &error) {
            // Total failure: --fail-fast aborted, or an error escaped
            // spec isolation (a panic, an injected thread_pool.task
            // fault). Distinct from exit 1, which stays reserved for
            // usage/configuration mistakes.
            std::cerr << "sweep aborted: " << error.what() << "\n";
            return 2;
        }

        for (const auto &result : results) {
            if (result.failed())
                std::cerr << "spec '" << result.system_name
                          << "' failed: " << result.error << "\n";
        }

        if (format == "json") {
            std::cout << sys::toJson(results) << "\n";
        } else if (results.size() == 1) {
            printDetailed(results[0], specs[0].name, hw,
                          format == "csv");
        } else {
            printComparison(specs, results, hw, format == "csv");
        }
        return sys::sweepExitCode(results);
    } catch (const FatalError &error) {
        std::cerr << error.what() << "\n";
        return 1;
    }
    return 0;
}
