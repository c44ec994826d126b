/**
 * @file
 * perfbench: host-time measurement driver of the simulator benchmark.
 *
 * Measures how long the simulator itself takes -- host seconds, not
 * the modeled seconds per iteration it reports -- by calling the
 * public API from outside, exactly as spsim does:
 *
 *   setup     sys::ExperimentRunner construction (trace generation
 *             with the trace cache off, plus BatchStats)
 *   simulate  runAll over the workload's specs on the worker pool
 *   json      sys::toJson(results)
 *
 * Repetitions run until --seconds have elapsed (at least three, after
 * one untimed warm-up repetition that lets lazy set-up finish). With
 * --trace 1 every untraced repetition is followed by a traced one,
 * which runs the same path under spans and then times calls into
 * every layer's public functions (data, sys, core, cache, sim,
 * metrics); spans stay in memory and are written to --spans at the
 * end.
 *
 * The last stdout line is one JSON report with the raw per-repetition
 * timings, digests and simulated results. perfbench/run.py checks the
 * results and reduces the report to the benchmark's metrics; this
 * driver judges nothing itself.
 *
 *   perfbench --specs 'strawman;scratchpipe' --locality low \
 *             --families 'hybrid;static:cache=0.05;strawman;scratchpipe;serve' \
 *             --seed 1 --seconds 10 --trace 0
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cache/hit_map.h"
#include "cache/probe_kernel.h"
#include "common/args.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "data/arrival.h"
#include "data/dataset.h"
#include "data/trace_store.h"
#include "metrics/percentile.h"
#include "sim/event_queue.h"
#include "sys/batch_stats.h"
#include "sys/experiment.h"
#include "sys/plan_fanout.h"
#include "sys/registry.h"
#include "sys/scratchpipe_sys.h"

using namespace sp;

namespace
{

using Clock = std::chrono::steady_clock;

/** ExperimentRunner's look-ahead beyond warmup + iterations. */
constexpr uint64_t kLookahead = 2;
/** Widest worker pool: the benchmark's figures are defined at this
 *  width, so hosts with more cores measure the same configuration.
 *  It must not be narrower than train_medium's four specs: with fewer
 *  workers than specs, which specs share the pool depends on timing and
 *  peak_rss_mb swings by 20%. */
constexpr size_t kMaxPoolWidth = 4;
/** Timed repetitions an untraced run never goes below. */
constexpr size_t kMinReps = 3;

double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

/** JSON string literal of `text`. */
std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A double with all its digits. */
std::string
number(double value)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << value;
    return os.str();
}

/** FNV-1a 64 of `text`, 16 lowercase hex digits (run.py computes the
 *  same digest over spsim's output). */
std::string
digest(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

/** CPU brand string from CPUID (no file outside the checkout read). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string brand(reinterpret_cast<const char *>(regs),
                          sizeof(regs));
        brand = brand.c_str();
        const size_t first = brand.find_first_not_of(' ');
        return first == std::string::npos ? "unknown"
                                           : brand.substr(first);
    }
#endif
    return "unknown";
}

/** Host record carried by every report. */
std::string
hostJson(size_t pool_width)
{
#ifdef NDEBUG
    const bool assertions = false;
#else
    const bool assertions = true;
#endif
    std::ostringstream os;
    os << "{\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"cpu\":" << jsonString(cpuModel()) << ",\"probe_kernel\":"
       << jsonString(cache::selectProbeKernel(cache::ProbeMode::Auto).name)
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"compiler\":" << jsonString(__VERSION__)
       << ",\"pool_width\":" << pool_width
       << ",\"assertions\":" << (assertions ? "true" : "false")
       << ",\"sp_check\":" << (PERFBENCH_SP_CHECK ? "true" : "false")
       << ",\"sanitize\":" << jsonString(PERFBENCH_SANITIZE) << "}";
    return os.str();
}

/**
 * In-memory host-time span recorder. Each span has a name, an id
 * shared by the spans of one workload/spec/batch, a start, an end and
 * the span open around it; self time is its duration minus the time
 * its children cover. Nothing is written until write().
 */
class SpanRecorder
{
  public:
    /** Run fn() as a span under the innermost open one; returns its
     *  duration in seconds. */
    template <typename Fn>
    double
    time(std::string name, std::string id, Fn &&fn)
    {
        const size_t index = spans_.size();
        spans_.push_back({std::move(name), std::move(id), {}, {},
                          open_.empty() ? -1 : open_.back()});
        open_.push_back(static_cast<int>(index));
        spans_[index].start = Clock::now();
        fn();
        spans_[index].end = Clock::now();
        open_.pop_back();
        return secondsBetween(spans_[index].start, spans_[index].end);
    }

    size_t size() const { return spans_.size(); }

    /** One JSON object per line: name, id, parent index, start, end
     *  and self seconds relative to the first span. */
    void
    write(const std::string &path) const
    {
        std::vector<double> child_seconds(spans_.size(), 0.0);
        for (const Span &span : spans_) {
            if (span.parent >= 0)
                child_seconds[static_cast<size_t>(span.parent)] +=
                    secondsBetween(span.start, span.end);
        }
        std::ofstream out(path);
        fatalIf(!out, "cannot write spans to '", path, "'");
        const Clock::time_point origin =
            spans_.empty() ? Clock::now() : spans_.front().start;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            const double duration = secondsBetween(span.start, span.end);
            out << "{\"name\":" << jsonString(span.name)
                << ",\"id\":" << jsonString(span.id)
                << ",\"parent\":" << span.parent
                << ",\"start_s\":"
                << number(secondsBetween(origin, span.start))
                << ",\"end_s\":" << number(secondsBetween(origin, span.end))
                << ",\"self_s\":" << number(duration - child_seconds[i])
                << "}\n";
        }
        fatalIf(!out.flush(), "short write of spans to '", path, "'");
    }

  private:
    struct Span
    {
        std::string name;
        std::string id;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
    };
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Everything fixed for one run. */
struct Setup
{
    std::string workload;
    sys::ModelConfig model;
    sim::HardwareConfig hardware;
    sys::ExperimentOptions options;
    std::vector<sys::SystemSpec> specs;
    /** One spec per system family, timed one at a time when traced. */
    std::vector<sys::SystemSpec> families;
    std::string scratch_dir;
};

/** Split a ';'-separated spec list (spec option lists use commas). */
std::vector<sys::SystemSpec>
parseSpecs(const std::string &text)
{
    std::vector<sys::SystemSpec> specs;
    std::stringstream stream(text);
    std::string piece;
    while (std::getline(stream, piece, ';')) {
        if (piece.empty())
            continue;
        specs.push_back(sys::SystemSpec::parse(piece));
        specs.back().validate();
    }
    fatalIf(specs.empty(), "no system specs in '", text, "'");
    return specs;
}

const sys::SystemSpec &
family(const Setup &setup, const std::string &name)
{
    for (const auto &spec : setup.families)
        if (spec.name == name)
            return spec;
    fatal("--families has no '", name, "' spec");
}

/** Timings of one untraced-shaped repetition. */
struct Rep
{
    double setup_s = 0.0;
    double simulate_s = 0.0;
    double json_s = 0.0;
    std::string digest;
};

/** `rep` as a JSON object; `extra` holds further ",key:value" members. */
std::string
repJson(const Rep &rep, const std::string &extra = "")
{
    return "{\"setup_s\":" + number(rep.setup_s) +
           ",\"simulate_s\":" + number(rep.simulate_s) +
           ",\"json_s\":" + number(rep.json_s) +
           ",\"digest\":" + jsonString(rep.digest) + extra + "}";
}

/** What an spsim user waits for: construct, simulate, serialise. */
Rep
untracedRep(const Setup &setup, std::string *json_out)
{
    Rep rep;
    const auto t0 = Clock::now();
    const sys::ExperimentRunner runner(setup.model, setup.hardware,
                                       setup.options);
    const auto t1 = Clock::now();
    const auto results = runner.runAll(setup.specs);
    const auto t2 = Clock::now();
    const std::string json = sys::toJson(results);
    const auto t3 = Clock::now();
    rep.setup_s = secondsBetween(t0, t1);
    rep.simulate_s = secondsBetween(t1, t2);
    rep.json_s = secondsBetween(t2, t3);
    rep.digest = digest(json);
    if (json_out != nullptr)
        *json_out = json;
    return rep;
}

/** Controllers configured like `spec`'s ScratchPipeSystem run. */
std::vector<core::ScratchPipeController>
makeControllers(const Setup &setup, const sys::SystemSpec &spec,
                uint32_t plan_shards)
{
    const sys::ScratchPipeOptions options = spec.scratchPipeOptions(true);
    const sys::ScratchPipeSystem system(setup.model, setup.hardware,
                                        options);
    core::ControllerConfig cc;
    cc.num_slots = system.slotsPerTable();
    cc.dim = setup.model.embedding_dim;
    cc.past_window = options.past_window;
    cc.future_window = options.future_window;
    cc.policy = options.policy;
    cc.backing = cache::SlotArray::Backing::Phantom;
    cc.warm_start = options.warm_start;
    cc.plan_shards = plan_shards;
    cc.probe = options.probe;
    std::vector<core::ScratchPipeController> controllers;
    controllers.reserve(setup.model.trace.num_tables);
    for (size_t t = 0; t < setup.model.trace.num_tables; ++t) {
        cc.policy_seed = 0x5eed + t;
        controllers.emplace_back(cc);
    }
    return controllers;
}

/** One traced repetition: the untraced work under spans, then one
 *  timed call into each layer. Returns the report object. */
std::string
tracedRep(const Setup &setup, size_t rep_index, SpanRecorder &spans)
{
    const auto &trace = setup.model.trace;
    const uint64_t planned = setup.options.warmup + setup.options.iterations;
    const uint64_t batches = planned + kLookahead;
    const uint64_t requests = planned * trace.batch_size;
    const std::string rep_id =
        setup.workload + "/rep" + std::to_string(rep_index);
    std::map<std::string, double> layer;
    std::map<std::string, std::string> invariants;
    std::vector<double> plan_call_ms;
    Rep rep;
    std::string families_json;

    spans.time("rep", rep_id, [&] {
        // --- the end-to-end path, under spans --------------------------
        std::unique_ptr<sys::ExperimentRunner> runner;
        std::vector<sys::RunResult> results;
        std::string json;
        rep.setup_s = spans.time("runner.setup", rep_id, [&] {
            runner = std::make_unique<sys::ExperimentRunner>(
                setup.model, setup.hardware, setup.options);
        });
        rep.simulate_s = spans.time("runner.simulate", rep_id, [&] {
            results = runner->runAll(setup.specs);
        });
        rep.json_s = spans.time("sys.to_json", rep_id,
                                [&] { json = sys::toJson(results); });
        rep.digest = digest(json);
        layer["sys.to_json.s"] = rep.json_s;
        runner.reset();

        // --- data: trace generation and the trace cache ----------------
        std::optional<data::TraceDataset> dataset;
        const double gen_s = spans.time("data.trace_gen", rep_id, [&] {
            dataset.emplace(trace, batches);
        });
        layer["data.trace_gen.s"] = gen_s;
        layer["data.trace_gen.ids_per_s"] =
            static_cast<double>(batches * trace.idsPerBatch()) / gen_s;

        const std::string cache_dir = setup.scratch_dir + "/trace-cache-" +
                                      std::to_string(::getpid());
        std::filesystem::remove_all(cache_dir);
        {
            const data::TraceStore store({.directory = cache_dir});
            data::TraceStore::AcquireInfo cold, warm;
            layer["data.trace_cache.cold_s"] =
                spans.time("data.trace_cache.cold", rep_id, [&] {
                    store.acquire(trace, batches, &cold);
                });
            layer["data.trace_cache.warm_s"] =
                spans.time("data.trace_cache.warm", rep_id, [&] {
                    store.acquire(trace, batches, &warm);
                });
            invariants["trace_cache_cold_hit"] =
                cold.cache_hit ? "true" : "false";
            invariants["trace_cache_warm_hit"] =
                warm.cache_hit ? "true" : "false";
        }
        std::filesystem::remove_all(cache_dir);

        // --- sys: statistics, each family alone, plan fan-out ----------
        std::optional<sys::BatchStats> stats;
        layer["sys.batch_stats.s"] =
            spans.time("sys.batch_stats", rep_id,
                       [&] { stats.emplace(*dataset, planned); });

        std::vector<sys::RunResult> family_results;
        for (const auto &spec : setup.families) {
            layer["sys.simulate." + spec.name + ".s"] = spans.time(
                "sys.simulate." + spec.name,
                setup.workload + "/" + spec.name, [&] {
                    const auto system = sys::Registry::build(
                        spec, setup.model, setup.hardware);
                    family_results.push_back(system->simulate(
                        *dataset, *stats, setup.options.iterations,
                        setup.options.warmup));
                });
        }
        families_json = sys::toJson(family_results);

        const sys::SystemSpec &scratchpipe = family(setup, "scratchpipe");
        const uint32_t fanout_shards =
            scratchpipe.scratchpipe.plan_shards == 0
                ? static_cast<uint32_t>(
                      common::ThreadPool::global().size())
                : scratchpipe.scratchpipe.plan_shards;
        {
            auto controllers =
                makeControllers(setup, scratchpipe, fanout_shards);
            sys::PlanFanout fanout(trace.num_tables,
                                   controllers.front().config()
                                       .future_window);
            uint64_t hits = 0;
            layer["sys.plan_fanout.s"] =
                spans.time("sys.plan_fanout",
                           setup.workload + "/scratchpipe", [&] {
                    fanout.forEachBatch(
                        controllers, *dataset, planned,
                        scratchpipe.scratchpipe.overlap_planning,
                        [&hits](uint64_t, const auto &outcomes) {
                            for (const auto &outcome : outcomes)
                                hits += outcome.hits;
                        });
                });
            invariants["plan_fanout_hits"] = std::to_string(hits);
        }

        // --- core: serial per-(batch, table) plan replica --------------
        uint32_t slots = 0;
        {
            auto controllers = makeControllers(setup, scratchpipe, 1);
            slots = controllers.front().config().num_slots;
            const uint32_t window =
                controllers.front().config().future_window;
            uint64_t hits = 0, misses = 0, fills = 0, evictions = 0;
            uint64_t all_hits = 0;
            std::vector<std::span<const uint64_t>> futures;
            double plan_s = 0.0;
            spans.time("core.plan", setup.workload + "/scratchpipe", [&] {
                for (uint64_t b = 0; b < planned; ++b) {
                    const std::string batch_id = setup.workload +
                                                 "/scratchpipe/b" +
                                                 std::to_string(b);
                    const auto &mini = dataset->batch(b);
                    for (size_t t = 0; t < trace.num_tables; ++t) {
                        futures.clear();
                        for (uint32_t d = 1; d <= window; ++d) {
                            const auto *next = dataset->lookAhead(b, d);
                            if (next == nullptr)
                                break;
                            futures.emplace_back(next->ids(t));
                        }
                        const core::PlanResult *plan = nullptr;
                        const double call_s = spans.time(
                            "core.plan.call", batch_id, [&] {
                                plan = &controllers[t].plan(mini.ids(t),
                                                            futures);
                            });
                        plan_s += call_s;
                        plan_call_ms.push_back(1e3 * call_s);
                        all_hits += plan->hits;
                        if (b >= setup.options.warmup) {
                            hits += plan->hits;
                            misses += plan->misses;
                            fills += plan->fills.size();
                            evictions += plan->evictions.size();
                        }
                    }
                }
            });
            layer["core.plan.s"] = plan_s;
            layer["core.plan.ids_per_s"] =
                static_cast<double>(planned * trace.idsPerBatch()) / plan_s;
            layer["core.plan.hits"] = static_cast<double>(hits);
            layer["core.plan.misses"] = static_cast<double>(misses);
            layer["core.plan.fills"] = static_cast<double>(fills);
            layer["core.plan.evictions"] = static_cast<double>(evictions);
            layer["core.plan.hit_rate"] =
                static_cast<double>(hits) /
                static_cast<double>(hits + misses);
            layer["sys.plan_fanout.speedup"] =
                plan_s / layer["sys.plan_fanout.s"];
            invariants["replica_hits"] = std::to_string(hits);
            invariants["replica_misses"] = std::to_string(misses);
            invariants["replica_hits_all_batches"] =
                std::to_string(all_hits);
        }

        // --- cache: batched and scalar Hit-Map probes ------------------
        {
            // The warm-start resident set: rows 0..slots-1.
            cache::HitMap map(slots);
            for (uint32_t slot = 0; slot < slots; ++slot)
                map.insert(slot, slot);
            std::vector<uint32_t> out(trace.idsPerTable());
            uint64_t many_found = 0, found = 0;
            double many_s = 0.0, find_s = 0.0;
            for (uint64_t b = 0; b < planned; ++b) {
                const auto &mini = dataset->batch(b);
                const std::string batch_id =
                    setup.workload + "/b" + std::to_string(b);
                many_s += spans.time("cache.find_many", batch_id, [&] {
                    for (size_t t = 0; t < trace.num_tables; ++t)
                        map.findMany(mini.ids(t), out);
                });
                find_s += spans.time("cache.find", batch_id, [&] {
                    for (size_t t = 0; t < trace.num_tables; ++t)
                        for (const uint64_t id : mini.ids(t))
                            found += map.find(id) != cache::HitMap::kNotFound;
                });
                // findMany's hits are counted in an untimed second
                // pass, so its timed loop is the bare batched probe.
                for (size_t t = 0; t < trace.num_tables; ++t) {
                    map.findMany(mini.ids(t), out);
                    many_found += static_cast<uint64_t>(std::count_if(
                        out.begin(), out.end(), [](uint32_t slot) {
                            return slot != cache::HitMap::kNotFound;
                        }));
                }
            }
            const double ids =
                static_cast<double>(planned * trace.idsPerBatch());
            layer["cache.find_many.ns_per_id"] = 1e9 * many_s / ids;
            layer["cache.find_many.hit_frac"] =
                static_cast<double>(many_found) / ids;
            layer["cache.find.ns_per_id"] = 1e9 * find_s / ids;
            invariants["find_many_found"] = std::to_string(many_found);
            invariants["find_found"] = std::to_string(found);
        }

        // --- data / sim / metrics: the serving engine's parts ----------
        {
            const data::ArrivalConfig arrival =
                family(setup, "serve").serveOptions().arrival;
            std::vector<double> times(requests);
            const double draw_s = spans.time("data.arrival", rep_id, [&] {
                data::ArrivalProcess process(arrival, trace.seed);
                for (double &when : times)
                    when = process.next();
            });
            layer["data.arrival.ns_per_draw"] =
                1e9 * draw_s / static_cast<double>(requests);

            // The serving drain's shape: every arrival chains the next
            // one and arms a second (admission/completion) event.
            sim::EventQueue events;
            std::function<void(uint64_t)> arrive = [&](uint64_t i) {
                if (i + 1 < requests)
                    events.schedule(times[i + 1],
                                    [&arrive, i] { arrive(i + 1); });
                events.schedule(times[i] + 1e-4, [] {});
            };
            const double drain_s =
                spans.time("sim.event_queue", rep_id, [&] {
                    events.schedule(times[0], [&arrive] { arrive(0); });
                    while (events.runNext()) {
                    }
                });
            layer["sim.event_queue.ns_per_event"] =
                1e9 * drain_s / static_cast<double>(events.executedCount());

            // One sample per measured request, then the three SLO
            // percentiles the serving result reports.
            const uint64_t warm = std::max<uint64_t>(
                setup.options.warmup * trace.batch_size, 1);
            layer["metrics.percentile.s"] =
                spans.time("metrics.percentile", rep_id, [&] {
                    metrics::PercentileReservoir reservoir;
                    reservoir.reserve(requests - warm);
                    for (uint64_t i = warm; i < requests; ++i)
                        reservoir.add(times[i] - times[i - 1]);
                    for (const double q : {0.50, 0.99, 0.999})
                        reservoir.percentile(q);
                });
        }
    });

    std::ostringstream os;
    os << ",\"layers\":{";
    bool first = true;
    for (const auto &[name, value] : layer) {
        os << (first ? "" : ",") << jsonString(name) << ":" << number(value);
        first = false;
    }
    os << "},\"invariants\":{";
    first = true;
    for (const auto &[name, value] : invariants) {
        os << (first ? "" : ",") << jsonString(name) << ":" << jsonString(value);
        first = false;
    }
    os << "},\"plan_call_ms\":[";
    for (size_t i = 0; i < plan_call_ms.size(); ++i)
        os << (i == 0 ? "" : ",") << number(plan_call_ms[i]);
    os << "],\"families\":" << jsonString(families_json);
    return repJson(rep, os.str());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("perfbench: host-time benchmark of the simulator "
                   "(driven by perfbench/run.py)");
    args.addString("specs", "scratchpipe",
                   "';'-separated system specs simulated by runAll");
    args.addString("families", "",
                   "';'-separated specs, one per system family, each "
                   "timed alone in traced repetitions (must include "
                   "scratchpipe and serve)");
    args.addString("locality", "medium", "random|low|medium|high");
    args.addInt("tables", 8, "number of embedding tables");
    args.addInt("rows", 1'000'000, "rows per table");
    args.addInt("dim", 128, "embedding dimension");
    args.addInt("lookups", 20, "gathers per table per sample");
    args.addInt("batch", 2048, "mini-batch size");
    args.addInt("iterations", 10, "measured iterations");
    args.addInt("warmup", 5, "warm-up iterations");
    args.addInt("seed", 1, "trace seed");
    args.addString("name", "run", "workload name used in span ids");
    args.addDouble("seconds", 10.0, "measurement budget, seconds");
    args.addInt("trace", 0, "1: add traced repetitions");
    args.addString("spans", "", "write traced spans here (JSON lines)");
    args.addString("scratch", ".", "directory for temporary trace caches");

    try {
        if (!args.parse(argc, argv)) {
            std::cout << args.usage();
            return 0;
        }
        Setup setup;
        setup.workload = args.getString("name");
        setup.specs = parseSpecs(args.getString("specs"));
        const bool traced = args.getInt("trace") != 0;
        if (traced)
            setup.families = parseSpecs(args.getString("families"));
        setup.scratch_dir = args.getString("scratch");

        setup.model = sys::ModelConfig::paperDefault();
        auto &trace = setup.model.trace;
        trace.num_tables = static_cast<size_t>(args.getInt("tables"));
        trace.rows_per_table = static_cast<uint64_t>(args.getInt("rows"));
        trace.lookups_per_table =
            static_cast<size_t>(args.getInt("lookups"));
        trace.batch_size = static_cast<size_t>(args.getInt("batch"));
        trace.locality = data::localityFromName(args.getString("locality"));
        trace.seed = static_cast<uint64_t>(args.getInt("seed"));
        setup.model.embedding_dim = static_cast<size_t>(args.getInt("dim"));
        setup.hardware = sim::HardwareConfig::paperTestbed();

        const size_t width = std::clamp<size_t>(
            std::thread::hardware_concurrency(), 1, kMaxPoolWidth);
        common::ThreadPool::setGlobalThreads(width);
        data::TraceStore::setCacheEnabled(false);
        setup.options.iterations =
            static_cast<uint64_t>(args.getInt("iterations"));
        setup.options.warmup = static_cast<uint64_t>(args.getInt("warmup"));
        setup.options.jobs = static_cast<uint32_t>(width);

        const std::string host = hostJson(width);
        std::cout << "host " << host << std::endl;

        const double budget = args.getDouble("seconds");

        // Untimed warm-up: lazy set-up (registry, allocator arenas,
        // pool threads) finishes before the first timed repetition.
        // Peak RSS is read after it: one repetition is one spsim run,
        // and later repetitions only add allocator fragmentation that
        // varies with how many of them fit in the budget.
        untracedRep(setup, nullptr);
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        const double peak_rss_mb =
            static_cast<double>(usage.ru_maxrss) / 1024.0;

        // Traced runs alternate untraced and traced repetitions, so
        // the tracing overhead compares runs made under the same host
        // load.
        std::string results_json;
        std::vector<Rep> reps;
        std::vector<std::string> traced_reps;
        SpanRecorder spans;
        const auto start = Clock::now();
        while ((traced ? traced_reps.empty() : reps.size() < kMinReps) ||
               secondsBetween(start, Clock::now()) < budget) {
            reps.push_back(
                untracedRep(setup, reps.empty() ? &results_json : nullptr));
            if (traced)
                traced_reps.push_back(
                    tracedRep(setup, traced_reps.size(), spans));
        }
        if (traced && !args.getString("spans").empty())
            spans.write(args.getString("spans"));

        std::ostringstream report;
        report << "{\"host\":" << host << ",\"ids_per_spec\":"
               << (setup.options.warmup + setup.options.iterations) *
                      trace.idsPerBatch()
               << ",\"peak_rss_mb\":" << number(peak_rss_mb)
               << ",\"results\":" << jsonString(results_json) << ",\"reps\":[";
        for (size_t i = 0; i < reps.size(); ++i)
            report << (i == 0 ? "" : ",") << repJson(reps[i]);
        report << "],\"spans\":" << spans.size() << ",\"traced\":[";
        for (size_t i = 0; i < traced_reps.size(); ++i)
            report << (i == 0 ? "" : ",") << traced_reps[i];
        report << "]}";
        std::cout << report.str() << std::endl;
        return 0;
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 1;
    }
}
