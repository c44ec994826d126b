#include "common/fault.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>

#include "common/mix.h"
#include "common/spec_number.h"

namespace sp::common::fault
{

namespace detail
{
std::atomic<bool> g_armed{false};
} // namespace detail

namespace
{

/** A configured schedule plus its private RNG stream. */
struct ScheduleState
{
    Schedule schedule;
    uint64_t rng_state = 0;
};

struct SiteCounters
{
    uint64_t hits = 0;
    uint64_t fired = 0;
};

struct Engine
{
    std::mutex mutex;
    std::vector<ScheduleState> states;
    std::map<std::string, SiteCounters> counters;
    // Latched by the SP_FAULTS static-init parse when the spec is
    // malformed: the process must not run believing faults are armed
    // when none are, so the first checkpoint panics with the message.
    bool env_parse_error = false;
    std::string env_parse_message;
};

Engine &
engine()
{
    static Engine instance;
    return instance;
}

double
uniform01(uint64_t &state)
{
    // 53 mantissa bits -> uniform in [0, 1).
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::string
trim(const std::string &text)
{
    size_t begin = text.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    size_t end = text.find_last_not_of(" \t");
    return text.substr(begin, end - begin + 1);
}

bool
knownSite(const std::string &name)
{
    for (const SiteInfo &info : sites())
        if (name == info.name)
            return true;
    return false;
}

std::string
knownSiteList()
{
    std::string out;
    for (const SiteInfo &info : sites()) {
        if (!out.empty())
            out += ", ";
        out += info.name;
    }
    return out;
}

Schedule
parseEntry(const std::string &entry)
{
    Schedule schedule;
    const size_t colon = entry.find(':');
    schedule.site = trim(entry.substr(0, colon));
    fatalIf(schedule.site.empty(), "SP_FAULTS: empty site name in '",
            entry, "'");
    fatalIf(!knownSite(schedule.site), "SP_FAULTS: unknown site '",
            schedule.site, "'; known sites: ", knownSiteList());
    if (colon == std::string::npos)
        return schedule;

    const std::vector<Option> rows = {
        {"after", schedule.after},
        {"every", schedule.every},
        {"p", schedule.probability},
        {"seed", schedule.seed},
    };
    const std::set<std::string> given =
        parseOptions("SP_FAULTS", entry.substr(colon + 1), rows);
    fatalIf(given.contains("every") && schedule.every == 0,
            "SP_FAULTS: every=0 is meaningless (omit the key to fire "
            "once)");
    fatalIf(given.contains("p") && !(schedule.probability >= 0.0 &&
                                     schedule.probability <= 1.0),
            "SP_FAULTS: bad probability ", schedule.probability,
            " (want a number in [0, 1])");
    fatalIf(given.contains("every") && given.contains("p"),
            "SP_FAULTS: 'every' and 'p' are mutually exclusive in '",
            entry, "'");
    return schedule;
}

std::vector<ScheduleState>
parseSpec(const std::string &spec)
{
    std::vector<ScheduleState> states;
    std::istringstream entries(spec);
    std::string entry;
    while (std::getline(entries, entry, ';')) {
        entry = trim(entry);
        if (entry.empty())
            continue;
        ScheduleState state;
        state.schedule = parseEntry(entry);
        state.rng_state = state.schedule.seed;
        states.push_back(std::move(state));
    }
    return states;
}

/** Reads SP_FAULTS once, before main. Malformed specs latch an error
 *  that the first checkpoint turns into a panic -- the run must not
 *  proceed believing faults are armed when the spec was dropped. */
struct EnvInit
{
    EnvInit()
    {
        const char *spec = std::getenv("SP_FAULTS");
        if (spec == nullptr || *spec == '\0')
            return;
        try {
            configure(spec);
        } catch (const FatalError &e) {
            Engine &eng = engine();
            eng.env_parse_error = true;
            eng.env_parse_message = e.what();
            detail::g_armed.store(true, std::memory_order_relaxed);
            std::fprintf(stderr, "%s\n", e.what());
        }
    }
};

EnvInit g_env_init;

} // namespace

const std::vector<SiteInfo> &
sites()
{
    static const std::vector<SiteInfo> registry = {
        {"dataset.open.mmap",
         "open throws StatusError(IoError); TraceStore treats the "
         "entry as a miss and regenerates"},
        {"dataset.replay.open",
         "ExperimentRunner's replay open throws StatusError; the "
         "driver reports the unusable replay file and exits via the "
         "usage-error path instead of simulating a partial stream"},
        {"dataset.save.write",
         "saveTo returns NoSpace/IoError; publish unlinks the temp "
         "file and the run degrades to uncached"},
        {"experiment.run",
         "the spec's error is recorded in RunResult/JSON; the rest of "
         "the sweep completes"},
        {"serve.request.drop",
         "the arriving request is counted dropped and excluded from "
         "latency/queue accounting; the stream continues and the run "
         "completes with drops in RunResult::serving.dropped"},
        {"thread_pool.task",
         "the exception surfaces exactly once at the parallelFor "
         "join; remaining indices drain"},
        {"trace_store.load",
         "the cached entry is treated as a miss; the trace is "
         "regenerated (and republished)"},
        {"trace_store.publish.rename",
         "the rename is retried with backoff; if it keeps failing the "
         "temp file is unlinked and the run degrades to uncached"},
        {"trace_store.publish.save",
         "the temp file is unlinked; the run degrades to uncached"},
    };
    return registry;
}

void
configure(const std::string &spec)
{
    // Parse before locking: parse errors must not leave half state.
    std::vector<ScheduleState> states = parseSpec(spec);
    Engine &eng = engine();
    std::lock_guard<std::mutex> lock(eng.mutex);
    eng.states = std::move(states);
    eng.counters.clear();
    eng.env_parse_error = false;
    eng.env_parse_message.clear();
    detail::g_armed.store(!eng.states.empty(),
                          std::memory_order_relaxed);
}

void
clear()
{
    configure("");
}

std::vector<Schedule>
schedules()
{
    Engine &eng = engine();
    std::lock_guard<std::mutex> lock(eng.mutex);
    std::vector<Schedule> out;
    for (const ScheduleState &state : eng.states)
        out.push_back(state.schedule);
    return out;
}

std::string
describe()
{
    Engine &eng = engine();
    std::lock_guard<std::mutex> lock(eng.mutex);
    if (eng.states.empty())
        return "faults: disarmed";
    std::ostringstream os;
    os << "faults:";
    for (const ScheduleState &state : eng.states) {
        const Schedule &s = state.schedule;
        os << "\n  " << s.site;
        if (s.probability >= 0) {
            os << " p=" << s.probability << " seed=" << s.seed;
            if (s.after > 0)
                os << " after=" << s.after;
        } else if (s.every > 0) {
            os << " every=" << s.every;
            if (s.after > 0)
                os << " after=" << s.after;
        } else {
            os << " once at hit " << (s.after + 1);
        }
    }
    return os.str();
}

uint64_t
hitCount(const std::string &site)
{
    Engine &eng = engine();
    std::lock_guard<std::mutex> lock(eng.mutex);
    auto it = eng.counters.find(site);
    return it == eng.counters.end() ? 0 : it->second.hits;
}

uint64_t
firedCount(const std::string &site)
{
    Engine &eng = engine();
    std::lock_guard<std::mutex> lock(eng.mutex);
    auto it = eng.counters.find(site);
    return it == eng.counters.end() ? 0 : it->second.fired;
}

void
checkpoint(const char *site)
{
    Engine &eng = engine();
    bool fire = false;
    {
        std::lock_guard<std::mutex> lock(eng.mutex);
        panicIf(eng.env_parse_error, "refusing to run with a "
                "malformed SP_FAULTS spec: ", eng.env_parse_message);
        panicIf(!knownSite(site), "SP_FAULT_POINT(\"", site,
                "\") uses an unregistered site; add it to "
                "fault::sites()");
        SiteCounters &counters = eng.counters[site];
        ++counters.hits;
        for (ScheduleState &state : eng.states) {
            const Schedule &s = state.schedule;
            if (s.site != site || counters.hits <= s.after)
                continue;
            if (s.probability >= 0) {
                if (uniform01(state.rng_state) < s.probability)
                    fire = true;
            } else if (s.every > 0) {
                if ((counters.hits - s.after - 1) % s.every == 0)
                    fire = true;
            } else if (counters.hits == s.after + 1) {
                fire = true;
            }
        }
        if (fire)
            ++counters.fired;
    }
    if (fire)
        throw FaultInjectedError(site);
}

} // namespace sp::common::fault
