/**
 * @file
 * bench_figures: regenerates one of the paper's evaluation artifacts
 * (Figs. 3-15, Table I, Sections VI-D/E/G) or the serving curve per
 * run, named by --figure:
 *
 *   bench_figures --figure fig13_speedup [--json] [--quick]
 *   bench_figures --figure table1_training_cost --jobs 4
 *
 * kFigures holds one row per figure: its id, banner, the optional
 * flags it takes, and the function that prints its body and footer.
 * main() reads the flags and the SP_BENCH_* counts once into
 * FigureOptions, rejects an optional flag the row does not take,
 * prints the banner and runs the row. A row simulates registry specs
 * through one sys::ExperimentRunner per locality and model, built by
 * runnerFor(), and takes --workload's shaping keys; fig03, fig06 and
 * overhead_storage build their own traces, so they reject the flag.
 * No row replays a trace file (spsim does): a recorded trace fixes
 * the locality and geometry the rows sweep.
 */

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/logging.h"
#include "common/spec_number.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "data/access_stats.h"
#include "data/trace_store.h"
#include "data/workload.h"
#include "data/zipf.h"
#include "metrics/cost.h"
#include "metrics/energy.h"
#include "metrics/table_printer.h"
#include "sys/experiment.h"
#include "sys/plan_fanout.h"
#include "sys/scratchpipe_sys.h"

namespace sp::bench
{
namespace
{

using metrics::TablePrinter;

/** What main() read from the flags and the environment. */
struct FigureOptions
{
    /** fig13_speedup's --json (raw RunResults instead of the table)
     *  and --quick (small fixed geometry); other rows reject them. */
    bool json = false;
    bool quick = false;
    /** SP_BENCH_WARMUP / SP_BENCH_MEASURE, or --quick's pinned pair. */
    uint64_t warmup = 5;
    uint64_t measure = 10;
    /** --workload's shaping keys. */
    data::WorkloadConfig shaping;
};

/** The paper-testbed runner over `model` at `locality` with the
 *  shaping overlaid: one trace and its statistics, over which a row
 *  simulates any registry spec for the warm-up and measured counts. */
sys::ExperimentRunner
runnerFor(const FigureOptions &options, data::Locality locality,
          sys::ModelConfig model = sys::ModelConfig::paperDefault())
{
    model.trace.locality = locality;
    model.trace.workload = options.shaping;
    sys::ExperimentOptions counts;
    counts.iterations = options.measure;
    counts.warmup = options.warmup;
    return sys::ExperimentRunner(model, sim::HardwareConfig::paperTestbed(),
                                 counts);
}

/** Seconds -> "12.34" milliseconds. */
std::string
ms(double seconds)
{
    return TablePrinter::num(seconds * 1e3, 2);
}

/** A fraction as a percentage: percent(0.1, 0) == "10%". */
std::string
percent(double fraction, int precision)
{
    return TablePrinter::num(100.0 * fraction, precision) + "%";
}

/** Running mean and max of a ratio over a sweep's cells. */
struct Aggregate
{
    double sum = 0.0;
    double max = 0.0;
    int points = 0;

    void
    add(double ratio)
    {
        sum += ratio;
        max = std::max(max, ratio);
        ++points;
    }

    /** "avg 3.37x, max 4.15x" */
    std::string
    summary() const
    {
        return "avg " + TablePrinter::num(sum / points, 2) + "x, max " +
               TablePrinter::num(max, 2) + "x";
    }
};

/** The hybrid baseline's three-way split and total, in ms. */
std::vector<std::string>
baselineBreakdown(const sys::RunResult &result)
{
    return {ms(result.breakdown.get("CPU embedding forward")),
            ms(result.breakdown.get("CPU embedding backward")),
            ms(result.breakdown.get("GPU")),
            ms(result.seconds_per_iteration)};
}

/**
 * Fig. 3: sorted access counts of embedding-table entries for the four
 * locality classes (Alibaba-like Low, Anime/MovieLens-like Medium,
 * Criteo-like High, plus uniform Random). The paper plots the per-row
 * histogram sorted descending; this prints the curve sampled at
 * logarithmic ranks, plus the top-2% coverage each preset was
 * calibrated to (Section III-A quotes Criteo >80% and Alibaba-User
 * 8.5%).
 */
void
fig03AccessDistribution(const FigureOptions &)
{
    constexpr uint64_t rows = 10'000'000;
    const std::vector<uint64_t> rank_samples = {
        0, 9, 99, 999, 9'999, 99'999, 999'999, 9'999'999};

    TablePrinter table({"dataset", "zipf_s", "rank1", "rank10", "rank100",
                        "rank1K", "rank10K", "rank100K", "rank1M",
                        "rank10M", "top2%_share"});
    for (auto locality : data::kAllLocalities) {
        // One 10M-row table per preset keeps the histogram at 80 MB.
        data::TraceConfig config;
        config.num_tables = 1;
        config.rows_per_table = rows;
        config.lookups_per_table = 20;
        config.batch_size = 2048;
        config.locality = locality;
        config.seed = 1003;
        const uint64_t batches = 40; // ~1.6M accesses
        data::TraceDataset dataset(config, batches);

        data::AccessStats stats(1, rows);
        stats.addDataset(dataset);
        const auto sorted = stats.sortedCounts(0);

        std::vector<std::string> row = {
            data::localityName(locality),
            TablePrinter::num(data::zipfExponent(locality), 2)};
        for (uint64_t rank : rank_samples)
            row.push_back(std::to_string(sorted[rank]));
        row.push_back(percent(stats.coverage(0, 0.02), 1));
        table.addRow(std::move(row));
    }

    table.print(std::cout);
    std::cout << "\nAnalytic top-2% coverage at 10M rows "
              << "(calibration anchors):\n";
    for (auto locality : data::kAllLocalities) {
        std::cout << "  " << data::localityName(locality) << ": "
                  << TablePrinter::num(
                         100.0 * data::zipfTopCoverage(
                                     rows, data::zipfExponent(locality),
                                     0.02),
                         1)
                  << "% (paper anchor "
                  << TablePrinter::num(
                         100.0 *
                             data::expectedTop2PercentCoverage(locality),
                         1)
                  << "%)\n";
    }
}

/**
 * Fig. 5: training-time breakdown of the hybrid CPU-GPU baseline
 * without caching and with a static GPU cache of the top 2% / 10% of
 * rows: CPU embedding forward, CPU embedding backward, GPU (MLPs +
 * transfers).
 */
void
fig05BreakdownBaseline(const FigureOptions &options)
{
    TablePrinter table({"system", "locality", "cpu_emb_fwd_ms",
                        "cpu_emb_bwd_ms", "gpu_ms", "total_ms",
                        "hit_rate"});
    for (auto locality : data::kAllLocalities) {
        const auto runner = runnerFor(options, locality);
        struct Setup
        {
            const char *name;
            const char *spec;
        };
        for (const Setup setup :
             {Setup{"Hybrid CPU-GPU", "hybrid"},
              Setup{"Static cache (2%)", "static:cache=0.02"},
              Setup{"Static cache (10%)", "static:cache=0.10"}}) {
            const auto result = runner.run(setup.spec);
            std::vector<std::string> row = {setup.name,
                                            data::localityName(locality)};
            for (std::string &cell : baselineBreakdown(result))
                row.push_back(std::move(cell));
            row.push_back(result.hit_rate < 0.0
                              ? std::string("-")
                              : percent(result.hit_rate, 1));
            table.addRow(std::move(row));
        }
    }

    table.print(std::cout);
    std::cout << "\npaper shape check: CPU embedding stages dominate "
                 "(77-94% of time even with the static cache); caching "
                 "helps most at High locality.\n";
}

/**
 * Fig. 6: static-cache hit rate vs cache size. A top-N cache's
 * steady-state hit rate is the access-probability mass of the N
 * hottest rows, evaluated exactly from the generating distribution; a
 * finite trace of a 10M-row table cannot resolve the deep end of the
 * curve, so only the 2% point is checked against a measured trace.
 * The paper's negative result: low-locality datasets need >65% of the
 * table cached to pass a 90% hit rate.
 */
void
fig06HitrateVsSize(const FigureOptions &)
{
    constexpr uint64_t rows = 10'000'000;
    const std::vector<double> fractions = {0.01, 0.02, 0.05, 0.10, 0.20,
                                           0.40, 0.65, 0.80, 1.00};

    std::vector<std::string> headers = {"dataset"};
    for (double f : fractions)
        headers.push_back(percent(f, 0));
    TablePrinter table(headers);

    double low_at_65 = 0.0;
    for (auto locality : data::kAllLocalities) {
        const double s = data::zipfExponent(locality);
        std::vector<std::string> row = {data::localityName(locality)};
        for (double f : fractions) {
            const double hit = data::zipfTopCoverage(rows, s, f);
            row.push_back(TablePrinter::num(100.0 * hit, 1));
            if (locality == data::Locality::Low && f == 0.65)
                low_at_65 = hit;
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    // Empirical anchor: the static-cache system reports the measured
    // hit rate of a 1.5M-sample trace, which resolves the head well.
    std::cout << "\nempirical 2% anchor (40-batch trace vs analytic):\n";
    for (auto locality : data::kAllLocalities) {
        sys::ModelConfig model = sys::ModelConfig::paperDefault();
        model.trace.num_tables = 1;
        model.trace.rows_per_table = rows;
        model.trace.lookups_per_table = 20;
        model.trace.batch_size = 2048;
        model.trace.locality = locality;
        model.trace.seed = 1007;
        sys::ExperimentOptions options;
        options.iterations = 38;
        options.warmup = 0;
        const sys::ExperimentRunner runner(
            model, sim::HardwareConfig::paperTestbed(), options);
        const auto measured = runner.run("static:cache=0.02");
        std::cout << "  " << data::localityName(locality) << ": measured "
                  << TablePrinter::num(100.0 * measured.hit_rate, 1)
                  << "% vs analytic "
                  << TablePrinter::num(
                         100.0 * data::zipfTopCoverage(
                                     rows, data::zipfExponent(locality),
                                     0.02),
                         1)
                  << "%\n";
    }

    std::cout << "\npaper shape check: High (Criteo-like) saturates with "
                 "small caches while Low reaches only "
              << TablePrinter::num(100.0 * low_at_65, 1)
              << "% at a 65% cache -- >90% needs most of the table, "
                 "which tens-of-GB GPUs cannot hold.\n";
}

/** Fig. 12(a): the baseline's breakdown without caching (0%, the
 *  hybrid) and with static caches of 2-10% of the tables. */
void
fig12aBreakdownStatic(const FigureOptions &options)
{
    TablePrinter table({"locality", "cache", "cpu_emb_fwd_ms",
                        "cpu_emb_bwd_ms", "gpu_ms", "total_ms"});
    for (auto locality : data::kAllLocalities) {
        const auto runner = runnerFor(options, locality);
        for (double fraction : {0.0, 0.02, 0.04, 0.06, 0.08, 0.10}) {
            const auto result =
                fraction == 0.0
                    ? runner.run("hybrid")
                    : runner.run(
                          sys::SystemSpec::withCache("static", fraction));
            std::vector<std::string> row = {data::localityName(locality),
                                            percent(fraction, 0)};
            for (std::string &cell : baselineBreakdown(result))
                row.push_back(std::move(cell));
            table.addRow(std::move(row));
        }
    }

    table.print(std::cout);
    std::cout << "\npaper shape check: larger caches shave CPU time, "
                 "fastest at High locality, but the CPU backward path "
                 "never disappears.\n";
}

/** Fig. 12(b): ScratchPipe's per-stage latency at 2-10% caches, plus
 *  the binding constraint of the steady-state cycle. */
void
fig12bBreakdownScratchpipe(const FigureOptions &options)
{
    TablePrinter table({"locality", "cache", "plan_ms", "collect_ms",
                        "exchange_ms", "insert_ms", "train_ms", "cycle_ms",
                        "hit_rate", "bottleneck"});
    for (auto locality : data::kAllLocalities) {
        const auto runner = runnerFor(options, locality);
        for (double fraction : {0.02, 0.04, 0.06, 0.08, 0.10}) {
            const auto result = runner.run(
                sys::SystemSpec::withCache("scratchpipe", fraction));
            table.addRow({data::localityName(locality),
                          percent(fraction, 0),
                          ms(result.breakdown.get("Plan")),
                          ms(result.breakdown.get("Collect")),
                          ms(result.breakdown.get("Exchange")),
                          ms(result.breakdown.get("Insert")),
                          ms(result.breakdown.get("Train")),
                          ms(result.seconds_per_iteration),
                          percent(result.hit_rate, 1),
                          result.bottleneck});
        }
    }

    table.print(std::cout);
    std::cout << "\npaper shape check: Collect/Insert (the only CPU "
                 "interactions) dominate at low locality; Train binds "
                 "once the hit rate is high.\n";
}

// fig13's --quick geometry and pinned counts back the golden-output
// regression test: keep them stable, or regenerate
// tests/golden/fig13_quick.json (see tests/golden/regen.sh).
constexpr uint64_t kQuickWarmup = 2;
constexpr uint64_t kQuickMeasure = 3;

sys::ModelConfig
quickModel()
{
    sys::ModelConfig model = sys::ModelConfig::paperDefault();
    model.trace.num_tables = 2;
    model.trace.rows_per_table = 50'000;
    model.trace.lookups_per_table = 4;
    model.trace.batch_size = 128;
    model.embedding_dim = 16;
    return model;
}

/**
 * Fig. 13: end-to-end speedup of the four design points, normalized to
 * the static cache at the same size, over 2-10% caches and the four
 * localities. The footer recomputes the paper's headline aggregates.
 * --json dumps the sweep's raw RunResults instead of the table.
 */
void
fig13Speedup(const FigureOptions &options)
{
    TablePrinter table({"locality", "cache", "hybrid", "static",
                        "strawman", "scratchpipe", "sp_cycle_ms"});
    std::vector<sys::RunResult> raw;
    Aggregate vs_static, vs_hybrid;
    for (auto locality : data::kAllLocalities) {
        const auto runner = runnerFor(
            options, locality,
            options.quick ? quickModel() : sys::ModelConfig::paperDefault());
        const auto hybrid = runner.run("hybrid");
        raw.push_back(hybrid);
        const double t_hybrid = hybrid.seconds_per_iteration;
        for (double fraction : {0.02, 0.04, 0.06, 0.08, 0.10}) {
            const auto statik = runner.run(
                sys::SystemSpec::withCache("static", fraction));
            const auto straw = runner.run(
                sys::SystemSpec::withCache("strawman", fraction));
            const auto sp = runner.run(
                sys::SystemSpec::withCache("scratchpipe", fraction));
            raw.push_back(statik);
            raw.push_back(straw);
            raw.push_back(sp);
            const double t_static = statik.seconds_per_iteration;
            const double t_sp = sp.seconds_per_iteration;
            table.addRow(
                {data::localityName(locality), percent(fraction, 0),
                 TablePrinter::num(t_static / t_hybrid, 2), "1.00",
                 TablePrinter::num(t_static / straw.seconds_per_iteration,
                                   2),
                 TablePrinter::num(t_static / t_sp, 2), ms(t_sp)});
            vs_static.add(t_static / t_sp);
            vs_hybrid.add(t_hybrid / t_sp);
        }
    }

    if (options.json) {
        std::cout << sys::toJson(raw) << "\n";
        return;
    }
    table.print(std::cout);
    std::cout << "\nScratchPipe vs static cache: " << vs_static.summary()
              << "   (paper: avg 2.8x, max 4.2x)\n"
              << "ScratchPipe vs hybrid CPU-GPU: " << vs_hybrid.summary()
              << "   (paper: avg 5.1x, max 6.6x)\n";
}

/** Fig. 14: per-iteration energy of the static cache vs ScratchPipe
 *  (10% caches): component power integrated over the modeled time. */
void
fig14Energy(const FigureOptions &options)
{
    const metrics::EnergyModel energy(sim::HardwareConfig::paperTestbed());
    TablePrinter table({"locality", "static_J", "scratchpipe_J",
                        "reduction", "static_avg_W", "scratchpipe_avg_W"});
    for (auto locality : data::kAllLocalities) {
        const auto runner = runnerFor(options, locality);
        const auto r_static = runner.run("static:cache=0.10");
        const auto r_sp = runner.run("scratchpipe:cache=0.10");
        const double j_static = energy.iterationEnergy(r_static.busy);
        const double j_sp = energy.iterationEnergy(r_sp.busy);
        table.addRow(
            {data::localityName(locality), TablePrinter::num(j_static, 2),
             TablePrinter::num(j_sp, 2),
             TablePrinter::num(j_static / j_sp, 2) + "x",
             TablePrinter::num(energy.averagePower(r_static.busy), 0),
             TablePrinter::num(energy.averagePower(r_sp.busy), 0)});
    }

    table.print(std::cout);
    std::cout << "\npaper shape check: training-time reduction "
                 "translates directly into energy reduction; the gap "
                 "narrows with locality.\n";
}

/**
 * Figs. 15(a)/(b): sweep one ModelConfig field over `values` at a 10%
 * cache, with speedups normalized to the static cache, and print the
 * table. Returns ScratchPipe's speedup over the cells whose value is
 * `aggregate_at`.
 */
Aggregate
sensitivityTable(const FigureOptions &options, const char *axis,
                 std::initializer_list<size_t> values,
                 void (*apply)(sys::ModelConfig &, size_t),
                 size_t aggregate_at)
{
    TablePrinter table({"locality", axis, "hybrid", "static", "strawman",
                        "scratchpipe"});
    Aggregate aggregate;
    for (auto locality : data::kAllLocalities) {
        for (size_t value : values) {
            sys::ModelConfig model = sys::ModelConfig::paperDefault();
            apply(model, value);
            const auto runner = runnerFor(options, locality, model);
            const auto seconds = [&](const char *spec) {
                return runner.run(spec).seconds_per_iteration;
            };
            const double t_hybrid = seconds("hybrid");
            const double t_static = seconds("static:cache=0.10");
            const double t_straw = seconds("strawman:cache=0.10");
            const double t_sp = seconds("scratchpipe:cache=0.10");
            table.addRow({data::localityName(locality),
                          std::to_string(value),
                          TablePrinter::num(t_static / t_hybrid, 2), "1.00",
                          TablePrinter::num(t_static / t_straw, 2),
                          TablePrinter::num(t_static / t_sp, 2)});
            if (value == aggregate_at)
                aggregate.add(t_static / t_sp);
        }
    }
    table.print(std::cout);
    return aggregate;
}

/** Fig. 15(a): embedding dimension 64 / 128 / 256. */
void
fig15aDimSensitivity(const FigureOptions &options)
{
    sensitivityTable(
        options, "dim", {64, 128, 256},
        [](sys::ModelConfig &model, size_t dim) {
            model.embedding_dim = dim;
        },
        0);
    std::cout << "\npaper shape check: larger embeddings raise memory "
                 "pressure, so ScratchPipe's advantage grows with "
                 "dimension.\n";
}

/** Fig. 15(b): lookups per table 1 / 20 / 50. */
void
fig15bLookupSensitivity(const FigureOptions &options)
{
    const Aggregate at_50 = sensitivityTable(
        options, "lookups", {1, 20, 50},
        [](sys::ModelConfig &model, size_t lookups) {
            model.trace.lookups_per_table = lookups;
        },
        50);
    std::cout << "\nScratchPipe at 50 lookups: " << at_50.summary()
              << "   (paper: avg 3.7x, max 5.6x); at 1 lookup the "
                 "embedding layer stops being the bottleneck and gains "
                 "shrink.\n";
}

/**
 * Table I: training cost of single-GPU ScratchPipe (AWS p3.2xlarge) vs
 * the 8-GPU model-parallel GPU-only system (p3.16xlarge) over one
 * million iterations. ScratchPipe does not change the algorithm, so
 * iterations-to-accuracy are identical and cost is price/hour x time.
 */
void
table1TrainingCost(const FigureOptions &options)
{
    const auto p3_2x = metrics::AwsInstance::p3_2xlarge();
    const auto p3_16x = metrics::AwsInstance::p3_16xlarge();
    constexpr uint64_t kIters = 1'000'000;

    TablePrinter table({"dataset", "system", "instance", "price_hr",
                        "iter_ms", "1M_iter_cost"});
    Aggregate saving;
    for (auto locality : data::kAllLocalities) {
        const auto runner = runnerFor(options, locality);
        const auto sp = runner.run("scratchpipe:cache=0.10");
        const auto multi = runner.run("multigpu");
        const double cost_sp =
            metrics::trainingCost(p3_2x, sp.seconds_per_iteration, kIters);
        const double cost_multi = metrics::trainingCost(
            p3_16x, multi.seconds_per_iteration, kIters);

        table.addRow({data::localityName(locality), "ScratchPipe",
                      p3_2x.name,
                      "$" + TablePrinter::num(p3_2x.price_per_hour, 2),
                      ms(sp.seconds_per_iteration),
                      "$" + TablePrinter::num(cost_sp, 2)});
        table.addRow({data::localityName(locality), "8 GPU", p3_16x.name,
                      "$" + TablePrinter::num(p3_16x.price_per_hour, 2),
                      ms(multi.seconds_per_iteration),
                      "$" + TablePrinter::num(cost_multi, 2)});
        saving.add(cost_multi / cost_sp);
    }

    table.print(std::cout);
    std::cout << "\ncost saving of ScratchPipe: " << saving.summary()
              << "   (paper: avg 4.0x, max 5.7x)\n"
              << "paper reference rows: ScratchPipe 47.82/44.70/29.68/"
                 "26.34 ms; 8-GPU 16.22/16.12/17.82/18.61 ms "
                 "(Random/Low/Medium/High)\n";
}

/**
 * Section VI-D: the paper provisions Storage for the worst case -- all
 * six in-flight mini-batches' gathers distinct: (8 tables x 20 gathers
 * x 2048 batch x 512 B) x 6 = 960 MB -- plus <1 GB of Hit-Map and
 * <300 MB of other metadata. This rebuilds those numbers from the
 * implementation and reports the observed peak held-slot working set,
 * which window-internal hits keep far below the bound.
 */
void
overheadStorage(const FigureOptions &)
{
    const auto mib = [](double bytes) {
        return TablePrinter::num(bytes / (1024.0 * 1024.0), 1);
    };
    const sys::ModelConfig model = sys::ModelConfig::paperDefault();
    const uint32_t worst = core::ScratchPipeController::worstCaseSlots(
        3, 2, model.trace.idsPerTable());

    std::cout << "worst-case window working set: " << worst
              << " slots/table x " << model.trace.num_tables
              << " tables x " << model.rowBytes() << " B = "
              << mib(static_cast<double>(worst) * model.trace.num_tables *
                     model.rowBytes())
              << " MiB (paper: 960 MB)\n\n";

    TablePrinter table({"cache", "slots/table", "storage_MiB",
                        "metadata_MiB", "total_MiB", "peak_held_slots",
                        "peak_held_MiB"});
    for (double fraction : {0.02, 0.06, 0.10}) {
        // Run real controllers over a Random trace (the worst case for
        // working-set growth) and track the peak held count.
        sys::ScratchPipeOptions options;
        options.cache_fraction = fraction;
        options.warm_start = false;
        const uint32_t slots = sys::scratchpadSlots(model, options);

        data::TraceConfig trace = model.trace;
        trace.locality = data::Locality::Random;
        trace.seed = 2027;
        data::TraceDataset dataset(trace, 12);

        // One pool task per table, as in ScratchPipeSystem::simulate:
        // it builds the table's controller, reads its held count after
        // each plan and its metadata bytes after the last, and frees
        // it, so at most one controller per pool lane is alive.
        std::vector<uint64_t> held(trace.num_tables, 0);
        std::vector<size_t> metadata(trace.num_tables);
        common::parallelFor(trace.num_tables, [&](size_t t) {
            core::ScratchPipeController controller =
                sys::makeScratchpadController(model, options, t);
            std::vector<std::span<const uint64_t>> futures;
            for (uint64_t b = 0; b < dataset.numBatches(); ++b) {
                sys::planTableBatch(controller, dataset, b, t, futures);
                held[t] = std::max<uint64_t>(
                    held[t], controller.holdMask().heldCount());
            }
            metadata[t] = controller.metadataBytes();
        });
        const uint64_t peak_held = *std::max_element(held.begin(), held.end());
        double storage_bytes = 0.0, metadata_bytes = 0.0;
        for (size_t t = 0; t < trace.num_tables; ++t) {
            storage_bytes += static_cast<double>(
                sys::scratchpadStorageBytes(model, slots));
            metadata_bytes += static_cast<double>(metadata[t]);
        }

        table.addRow(
            {percent(fraction, 0), std::to_string(slots),
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
}

/** Section VI-E: the scratchpad's replacement policy. The paper
 *  reports robustness when swapping LRU for random or LFU; this sweeps
 *  all four implemented policies. */
void
ablationPolicy(const FigureOptions &options)
{
    TablePrinter table({"locality", "policy", "hit_rate", "cycle_ms",
                        "vs_LRU"});
    for (auto locality : data::kAllLocalities) {
        const auto runner = runnerFor(options, locality);
        double lru_cycle = 0.0;
        for (auto policy :
             {cache::PolicyKind::Lru, cache::PolicyKind::Lfu,
              cache::PolicyKind::Random, cache::PolicyKind::Fifo}) {
            const auto result = runner.run(
                std::string("scratchpipe:cache=0.10,policy=") +
                cache::policyName(policy));
            if (policy == cache::PolicyKind::Lru)
                lru_cycle = result.seconds_per_iteration;
            table.addRow(
                {data::localityName(locality), cache::policyName(policy),
                 percent(result.hit_rate, 1),
                 ms(result.seconds_per_iteration),
                 TablePrinter::num(result.seconds_per_iteration / lru_cycle,
                                   3) + "x"});
        }
    }

    table.print(std::cout);
    std::cout << "\npaper shape check: policy choice moves the hit rate "
                 "slightly but never the conclusion -- the always-hit "
                 "guarantee and pipeline structure dominate.\n";
}

/** Section VI-E: mini-batch size 512 / 2048 / 8192. Larger batches
 *  move more embedding bytes per iteration and stress the baselines'
 *  CPU paths harder. */
void
ablationBatch(const FigureOptions &options)
{
    TablePrinter table({"locality", "batch", "static_ms",
                        "scratchpipe_ms", "speedup"});
    for (auto locality : {data::Locality::Random, data::Locality::Medium,
                          data::Locality::High}) {
        for (size_t batch : {512u, 2048u, 8192u}) {
            sys::ModelConfig model = sys::ModelConfig::paperDefault();
            model.trace.batch_size = batch;
            const auto runner = runnerFor(options, locality, model);
            const double t_static =
                runner.run("static:cache=0.10").seconds_per_iteration;
            const double t_sp =
                runner.run("scratchpipe:cache=0.10").seconds_per_iteration;
            table.addRow({data::localityName(locality),
                          std::to_string(batch), ms(t_static), ms(t_sp),
                          TablePrinter::num(t_static / t_sp, 2) + "x"});
        }
    }

    table.print(std::cout);
    std::cout << "\npaper shape check: ScratchPipe wins at every batch "
                 "size; bigger batches amortize fixed overheads and "
                 "widen the gap at low locality.\n";
}

/** Section VI-E: MLP-intensive models. As the DNN grows, [Train]
 *  dominates every system and the advantage compresses -- the check
 *  that the win comes from the embedding path. */
void
ablationMlp(const FigureOptions &options)
{
    struct Arch
    {
        const char *name;
        std::vector<size_t> bottom;
        std::vector<size_t> top;
    };
    const Arch archs[] = {
        {"small-MLP", {256, 128}, {512, 256}},
        {"paper-MLP", {512, 256}, {1024, 1024, 512, 256}},
        {"huge-MLP", {1024, 1024}, {4096, 4096, 2048, 1024}},
    };

    TablePrinter table({"locality", "arch", "static_ms", "scratchpipe_ms",
                        "speedup", "sp_bottleneck"});
    for (auto locality : {data::Locality::Low, data::Locality::High}) {
        for (const auto &arch : archs) {
            sys::ModelConfig model = sys::ModelConfig::paperDefault();
            model.bottom_hidden = arch.bottom;
            model.top_hidden = arch.top;
            const auto runner = runnerFor(options, locality, model);
            const double t_static =
                runner.run("static:cache=0.10").seconds_per_iteration;
            const auto sp = runner.run("scratchpipe:cache=0.10");
            table.addRow({data::localityName(locality), arch.name,
                          ms(t_static), ms(sp.seconds_per_iteration),
                          TablePrinter::num(
                              t_static / sp.seconds_per_iteration, 2) +
                              "x",
                          sp.bottleneck});
        }
    }

    table.print(std::cout);
    std::cout << "\npaper shape check: the heavier the MLPs, the more "
                 "[Train] binds and the smaller (but still >1x) the "
                 "speedup.\n";
}

/**
 * Design-space ablation: hold-mask window geometry. The pipeline fixes
 * past 3 ([Plan]->[Train]) and future 2 ([Insert]->[Collect]); deeper
 * windows pin more slots without raising the hit rate, so the paper's
 * choice is the minimum that is hazard-free.
 */
void
ablationWindow(const FigureOptions &options)
{
    TablePrinter table({"locality", "past", "future", "worst_case_slots",
                        "hit_rate", "cycle_ms", "bottleneck"});
    for (auto locality : {data::Locality::Low, data::Locality::High}) {
        const auto runner = runnerFor(options, locality);
        struct Geometry
        {
            uint32_t past, future;
        };
        for (const Geometry g : {Geometry{3, 2}, Geometry{4, 2},
                                 Geometry{5, 3}, Geometry{7, 4}}) {
            const auto result =
                runner.run("scratchpipe:cache=0.10,past=" +
                           std::to_string(g.past) +
                           ",future=" + std::to_string(g.future));
            table.addRow(
                {data::localityName(locality), std::to_string(g.past),
                 std::to_string(g.future),
                 std::to_string(core::ScratchPipeController::worstCaseSlots(
                     g.past, g.future,
                     runner.model().trace.idsPerTable())),
                 percent(result.hit_rate, 1),
                 ms(result.seconds_per_iteration), result.bottleneck});
        }
    }

    table.print(std::cout);
    std::cout << "\nshape check: hit rate and cycle time barely move "
                 "while the worst-case capacity requirement grows "
                 "linearly with the window -- the paper's minimal "
                 "window is the right design point.\n";
}

/**
 * Extension: sparse AdaGrad under ScratchPipe. The per-row accumulator
 * migrates through the scratchpad with its row, doubling the bytes of
 * every fill, write-back and scatter -- the CPU/PCIe paths that bind
 * at low locality (tests/sys/adagrad_test.cc proves the migration
 * bit-exact).
 */
void
ablationOptimizer(const FigureOptions &options)
{
    TablePrinter table({"locality", "optimizer", "cycle_ms", "slowdown",
                        "bottleneck"});
    for (auto locality : data::kAllLocalities) {
        double sgd_cycle = 0.0;
        for (auto optimizer :
             {sys::Optimizer::Sgd, sys::Optimizer::AdaGrad}) {
            sys::ModelConfig model = sys::ModelConfig::paperDefault();
            model.optimizer = optimizer;
            const auto result = runnerFor(options, locality, model)
                                    .run("scratchpipe:cache=0.10");
            if (optimizer == sys::Optimizer::Sgd)
                sgd_cycle = result.seconds_per_iteration;
            table.addRow(
                {data::localityName(locality),
                 sys::optimizerName(optimizer),
                 ms(result.seconds_per_iteration),
                 TablePrinter::num(result.seconds_per_iteration / sgd_cycle,
                                   2) + "x",
                 result.bottleneck});
        }
    }

    table.print(std::cout);
    std::cout << "\nshape check: AdaGrad costs most where ScratchPipe is "
                 "CPU-bound (Random/Low: fills and write-backs double) "
                 "and least where [Train] binds (High locality).\n";
}

/**
 * Section VI-G: ScratchPipe over table-wise model-parallel multi-GPU
 * training (ScratchPipeOptions::gpus). The paper predicts, without
 * building it, that it is "likely not going to be cost-effective in
 * terms of TCO reduction"; this quantifies iteration time, $/1M
 * iterations and the cost ratio against 1-GPU ScratchPipe.
 */
void
extensionMultigpuScratchpipe(const FigureOptions &options)
{
    const auto p3_2x = metrics::AwsInstance::p3_2xlarge();
    const auto p3_16x = metrics::AwsInstance::p3_16xlarge();
    constexpr uint64_t kIters = 1'000'000;

    TablePrinter table({"locality", "system", "iter_ms", "speedup_vs_1gpu",
                        "1M_iter_cost", "cost_ratio", "bottleneck"});
    for (auto locality : data::kAllLocalities) {
        const auto runner = runnerFor(options, locality);
        const auto r1 = runner.run("scratchpipe:cache=0.10");
        const auto rp = runner.run("multigpu");
        // No spec key sets ScratchPipeOptions::gpus, so the 8-GPU
        // ScratchPipe is the one system a row builds by hand.
        sys::ScratchPipeOptions multi;
        multi.cache_fraction = 0.10;
        multi.gpus = runner.hardware().multi_gpu_count;
        const auto r8 =
            sys::ScratchPipeSystem(runner.model(), runner.hardware(), multi)
                .simulate(runner.dataset(), runner.stats(),
                          runner.options().iterations,
                          runner.options().warmup);

        const double c1 = metrics::trainingCost(
            p3_2x, r1.seconds_per_iteration, kIters);
        const double c8 = metrics::trainingCost(
            p3_16x, r8.seconds_per_iteration, kIters);
        const double cp = metrics::trainingCost(
            p3_16x, rp.seconds_per_iteration, kIters);

        auto add = [&](const char *name, const sys::RunResult &r,
                       double cost, const std::string &bottleneck) {
            table.addRow(
                {data::localityName(locality), name,
                 ms(r.seconds_per_iteration),
                 TablePrinter::num(
                     r1.seconds_per_iteration / r.seconds_per_iteration,
                     2) + "x",
                 "$" + TablePrinter::num(cost, 2),
                 TablePrinter::num(cost / c1, 2) + "x", bottleneck});
        };
        add("ScratchPipe 1-GPU", r1, c1, r1.bottleneck);
        add("ScratchPipe 8-GPU", r8, c8, r8.bottleneck);
        add("GPU-only 8-GPU", rp, cp, "-");
    }

    table.print(std::cout);
    std::cout << "\npaper claim check: 8-GPU ScratchPipe is faster than "
                 "1-GPU ScratchPipe but costs several times more per "
                 "iteration trained -- the shared CPU DRAM (Collect/"
                 "Insert) and framework overheads, not the DNNs, bind "
                 "it, confirming Section VI-G's prediction.\n";
}

/**
 * Not a paper figure: p50/p99/p999 request latency vs offered load for
 * the two-tier serving system, static pinning vs LRU refresh. Rates
 * are fractions of the measured saturation rate, so the open-loop
 * curve brackets the knee at any geometry.
 */
void
serveLatencyCurve(const FigureOptions &options)
{
    const auto runner = runnerFor(options, data::Locality::Medium);
    const auto serveAt = [&](const std::string &refresh, double rate) {
        return runner.run(
            "serve:rate=" + std::to_string(static_cast<uint64_t>(rate)) +
            ",batch_max=64,budget_us=500,refresh=" + refresh);
    };

    // Calibrate: serve a deliberately saturating stream; the achieved
    // rate is the server's saturation throughput at this geometry.
    const double saturation =
        serveAt("static", 50'000'000.0).serving.achieved_rate;

    TablePrinter table({"refresh", "load", "offered_rps", "achieved_rps",
                        "p50_ms", "p99_ms", "p999_ms", "q_mean", "fill"});
    for (const std::string refresh : {"static", "lru"}) {
        for (const double load : {0.3, 0.6, 0.9}) {
            const auto serving = serveAt(refresh, saturation * load).serving;
            table.addRow(
                {refresh, TablePrinter::num(load, 1),
                 TablePrinter::num(serving.offered_rate, 0),
                 TablePrinter::num(serving.achieved_rate, 0),
                 TablePrinter::num(1e3 * serving.p50, 3),
                 TablePrinter::num(1e3 * serving.p99, 3),
                 TablePrinter::num(1e3 * serving.p999, 3),
                 TablePrinter::num(serving.mean_queue_depth, 1),
                 TablePrinter::num(serving.mean_batch_fill, 1)});
        }
    }
    table.print(std::cout);
    std::cout << "\nSaturation (static refresh): "
              << TablePrinter::num(saturation, 0)
              << " req/s. Open-loop tail growth toward load 1.0 is "
                 "the SLO story; the LRU tier trades hit rate for "
                 "refresh write traffic.\n";
}

/** The optional flags a row takes; it rejects the others. */
enum Takes : unsigned
{
    kNoFlags = 0,
    /** --workload's shaping keys: every trace the row simulates comes
     *  from runnerFor(), which overlays them and runs the SP_BENCH_*
     *  counts. */
    kWorkload = 1u << 0,
    /** FigureOptions' --json/--quick. */
    kJsonQuick = 1u << 1,
};

/** One figure or table the driver reproduces. */
struct Figure
{
    /** --figure value. */
    const char *id;
    /** Banner title and paper reference. */
    const char *title;
    const char *reference;
    /** The optional flags it takes, as Takes bits. */
    unsigned takes;
    /** Prints the body and footer. */
    void (*run)(const FigureOptions &);
};

constexpr Figure kFigures[] = {
    {"fig03_access_distribution",
     "Figure 3: sorted embedding-table access counts",
     "paper: Fig. 3 (a) Alibaba->Low (b) Anime / (c) MovieLens->Medium "
     "(d) Criteo->High",
     kNoFlags, fig03AccessDistribution},
    {"fig05_breakdown_baseline",
     "Figure 5: baseline training-time breakdown",
     "paper: Fig. 5 -- hybrid CPU-GPU vs static cache (2%, 10%), stacked "
     "latency in ms",
     kWorkload, fig05BreakdownBaseline},
    {"fig06_hitrate_vs_size",
     "Figure 6: static-cache hit rate vs cache size",
     "paper: Fig. 6 -- hit rate of a top-N cache as N grows to 100% of "
     "the table",
     kNoFlags, fig06HitrateVsSize},
    {"fig12a_breakdown_static",
     "Figure 12(a): baseline latency vs cache size",
     "paper: Fig. 12(a) -- 0% is the no-cache hybrid; 2-10% are static "
     "caches",
     kWorkload, fig12aBreakdownStatic},
    {"fig12b_breakdown_scratchpipe",
     "Figure 12(b): ScratchPipe per-stage latency",
     "paper: Fig. 12(b) -- Plan/Collect/Exchange/Insert/Train, note the "
     "0-70 ms scale vs Fig. 12(a)'s 0-200 ms",
     kWorkload, fig12bBreakdownScratchpipe},
    {"fig13_speedup",
     "Figure 13: end-to-end speedup (normalized to static cache)",
     "paper: Fig. 13 -- Hybrid / Static / Straw-man / ScratchPipe",
     kWorkload | kJsonQuick, fig13Speedup},
    {"fig14_energy", "Figure 14: energy, static cache vs ScratchPipe",
     "paper: Fig. 14 -- Joules per training iteration", kWorkload,
     fig14Energy},
    {"fig15a_dim_sensitivity",
     "Figure 15(a): embedding-dimension sensitivity",
     "paper: Fig. 15(a) -- dims 64/128/256, speedup normalized to static "
     "cache (10%)",
     kWorkload, fig15aDimSensitivity},
    {"fig15b_lookup_sensitivity",
     "Figure 15(b): lookups-per-table sensitivity",
     "paper: Fig. 15(b) -- 1/20/50 gathers per table, speedup normalized "
     "to static cache (10%)",
     kWorkload, fig15bLookupSensitivity},
    {"table1_training_cost", "Table I: training cost, ScratchPipe vs 8-GPU",
     "paper: Table I -- $ for 1M iterations at AWS on-demand prices",
     kWorkload, table1TrainingCost},
    {"overhead_storage", "Section VI-D: implementation overhead",
     "paper: 960 MB worst-case Storage + <1 GB Hit-Map + <300 MB misc => "
     "<4 GB GPU-side allocation",
     kNoFlags, overheadStorage},
    {"ablation_policy", "Ablation (Section VI-E): replacement policy",
     "paper: LRU (default) vs Random vs LFU -- ScratchPipe is robust to "
     "the choice",
     kWorkload, ablationPolicy},
    {"ablation_batch", "Ablation (Section VI-E): batch size",
     "paper: robustness under larger/smaller batches; speedups "
     "normalized to static cache (10%)",
     kWorkload, ablationBatch},
    {"ablation_mlp", "Ablation (Section VI-E): MLP-intensive models",
     "paper: effectiveness under more MLP-heavy (less "
     "embedding-intensive) RecSys configurations",
     kWorkload, ablationMlp},
    {"ablation_window", "Ablation: hold-mask window geometry",
     "paper: fixed at past 3 / future 2 by the pipeline depth; this "
     "sweep shows deeper windows only cost capacity",
     kWorkload, ablationWindow},
    {"ablation_optimizer",
     "Ablation: embedding optimizer (SGD vs sparse AdaGrad)",
     "extension beyond the paper (which trains with SGD); AdaGrad state "
     "rides every fill/write-back/scatter",
     kWorkload, ablationOptimizer},
    {"extension_multigpu_scratchpipe",
     "Extension (Section VI-G): multi-GPU ScratchPipe",
     "paper: discussed qualitatively; predicted viable but not "
     "cost-effective vs single-GPU ScratchPipe",
     kWorkload, extensionMultigpuScratchpipe},
    {"serve_latency_curve", "Serving latency-throughput curve",
     "north-star scenario: open-loop inference over the paper geometry, "
     "GPU embedding cache over a host parameter server",
     kWorkload, serveLatencyCurve},
};

/** Every id, comma-separated, in table order. */
std::string
figureIds()
{
    std::string ids;
    for (const Figure &figure : kFigures)
        ids += (ids.empty() ? "" : ", ") + std::string(figure.id);
    return ids;
}

const Figure &
findFigure(const std::string &id)
{
    fatalIf(id.empty(), "--figure is required; one of: ", figureIds());
    for (const Figure &figure : kFigures)
        if (id == figure.id)
            return figure;
    fatal("unknown figure '", id, "'; one of: ", figureIds());
}

/** The title, the paper reference, the geometry and, on a row that
 *  reads them, the warmup/measure counts its run uses. */
void
printBanner(const Figure &figure, const FigureOptions &options)
{
    std::cout << "\n=== " << figure.title << " ===\n"
              << figure.reference << "\n";
    if (options.quick) {
        const sys::ModelConfig quick = quickModel();
        std::cout << "geometry: " << quick.trace.num_tables << " tables x "
                  << quick.trace.rows_per_table << " rows x "
                  << quick.embedding_dim << "-dim; batch "
                  << quick.trace.batch_size << "; "
                  << quick.trace.lookups_per_table << " lookups/table\n";
    } else {
        std::cout << "geometry: 8 tables x 10M rows x 128-dim unless "
                     "noted; batch 2048; 20 lookups/table\n";
    }
    if (figure.takes & kWorkload)
        std::cout << "warmup " << options.warmup << " iters, measuring "
                  << options.measure << " iters\n";
    std::cout << "\n";
}

/** An SP_BENCH_* count: decimal digits only, like SP_JOBS; unset or 0
 *  keeps `fallback`. */
uint64_t
envCount(const char *name, uint64_t fallback)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return fallback;
    uint64_t count = 0;
    common::OptionValue(count).read("environment", name, text);
    return count > 0 ? count : fallback;
}

} // namespace
} // namespace sp::bench

int
main(int argc, char **argv)
{
    using namespace sp;
    ArgParser args("bench_figures: regenerate one of the paper's figures "
                   "or tables");
    args.addString("figure", "",
                   "the figure to run, one of: " + bench::figureIds());
    args.addBool("json",
                 "fig13_speedup only: emit raw RunResults as JSON");
    args.addBool("quick",
                 "fig13_speedup only: small fixed geometry with pinned "
                 "iteration counts (regression-test scale; ignores "
                 "SP_BENCH_* counts)");
    args.addInt("jobs", 0,
                "worker threads for every parallel site (trace "
                "generation, per-table planning); 0 = all cores");
    args.addBool("no-trace-cache",
                 "regenerate the trace instead of serving it from the "
                 "content-addressed cache (SP_TRACE_CACHE, default "
                 ".sp-trace-cache/)");
    args.addString("workload", "",
                   "workload shaping spec applied to every trace the "
                   "figure sweeps, e.g. 'drift_amp=0.4,drift_period=8' "
                   "(see data/workload.h; spsim replays trace files)");
    try {
        if (!args.parse(argc, argv)) {
            std::cout << args.usage();
            return 0;
        }
        const bench::Figure &figure =
            bench::findFigure(args.getString("figure"));
        bench::FigureOptions options;
        options.json = args.getBool("json");
        options.quick = args.getBool("quick");
        fatalIf(!(figure.takes & bench::kJsonQuick) &&
                    (options.json || options.quick),
                "figure '", figure.id,
                "' takes no --json or --quick (fig13_speedup does)");
        const data::WorkloadSpec workload =
            data::WorkloadSpec::parse(args.getString("workload"));
        fatalIf(!workload.replay_path.empty(), "figure '", figure.id,
                "' builds its traces at the localities and geometry it "
                "reproduces, which a replay file fixes; replay it with "
                "spsim --workload replay=",
                workload.replay_path);
        fatalIf(!(figure.takes & bench::kWorkload) &&
                    !args.getString("workload").empty(),
                "figure '", figure.id,
                "' builds its own traces and takes no --workload");
        options.shaping = workload.config;
        options.warmup = bench::envCount("SP_BENCH_WARMUP", options.warmup);
        options.measure =
            bench::envCount("SP_BENCH_MEASURE", options.measure);
        if (options.quick) {
            options.warmup = bench::kQuickWarmup;
            options.measure = bench::kQuickMeasure;
        }
        // Trace cache and pool width are set before any trace is
        // built; results are bit-identical whatever either is.
        data::TraceStore::setCacheEnabled(!args.getBool("no-trace-cache"));
        const uint32_t jobs = parseJobsArg(args);
        if (args.wasSet("jobs"))
            common::ThreadPool::setGlobalThreads(
                jobs > 0 ? static_cast<size_t>(jobs)
                         : common::ThreadPool::defaultThreads());
        if (!options.json)
            bench::printBanner(figure, options);
        figure.run(options);
    } catch (const FatalError &error) {
        // A bad flag or spec is a usage error, not a crash: print the
        // message (not an uncaught-exception abort) and exit 1.
        std::cerr << error.what() << "\n";
        return 1;
    }
    return 0;
}
