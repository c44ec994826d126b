#include "data/workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/spec_number.h"

namespace sp::data
{

namespace
{

// Stream kinds for the shaping draws, disjoint from the trace streams
// in trace.cc (kStreamIds/kStreamDense/kStreamLabel).
constexpr uint64_t kStreamChurn = 0xc4a2;
constexpr uint64_t kStreamBurst = 0xb0b5;

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

uint64_t
parseSpecCount(const std::string &key, const std::string &value)
{
    uint64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(
        value.data(), value.data() + value.size(), parsed);
    fatalIf(ec != std::errc() || ptr != value.data() + value.size(),
            "workload spec: '", key,
            "' must be a non-negative integer, got '", value, "'");
    return parsed;
}

/** Triangle wave in [-1, 1] with half-period `period` batches. */
double
triangleWave(uint64_t position, uint64_t period)
{
    const uint64_t cycle = position % (2 * period);
    const double p = static_cast<double>(period);
    if (cycle < period)
        return 2.0 * static_cast<double>(cycle) / p - 1.0;
    return 1.0 - 2.0 * static_cast<double>(cycle - period) / p;
}

} // namespace

std::string
WorkloadConfig::validationError(uint64_t rows_per_table) const
{
    std::ostringstream os;
    if (drift_amp < 0.0 || !std::isfinite(drift_amp)) {
        os << "drift_amp must be finite and >= 0, got " << drift_amp;
    } else if (drift_amp > 0.0 && drift_period == 0) {
        os << "drift_amp=" << common::shortestDouble(drift_amp)
           << " needs drift_period > 0";
    } else if (drift_period > 0 && drift_amp == 0.0) {
        os << "drift_period=" << drift_period
           << " has no effect without drift_amp > 0";
    } else if (churn_k > 0 && churn_period == 0) {
        os << "churn_k=" << churn_k << " needs churn_period > 0";
    } else if (churn_period > 0 && churn_k == 0) {
        os << "churn_period=" << churn_period
           << " has no effect without churn_k > 0";
    } else if (churn_k > rows_per_table) {
        os << "churn_k=" << churn_k << " exceeds rows_per_table="
           << rows_per_table;
    } else if (!(burst_frac >= 0.0 && burst_frac <= 1.0)) {
        // Written as !(in range) so NaN is rejected too.
        os << "burst_frac must be in [0, 1], got " << burst_frac;
    } else if (burst_frac > 0.0 &&
               (burst_period == 0 || burst_len == 0 ||
                burst_ranks == 0)) {
        os << "burst_frac=" << common::shortestDouble(burst_frac)
           << " needs burst_period, burst_len and burst_ranks > 0";
    } else if (burst_frac == 0.0 &&
               (burst_period > 0 || burst_len > 0 || burst_ranks > 0)) {
        os << "burst_period/burst_len/burst_ranks have no effect "
              "without burst_frac > 0";
    } else if (burst_len > burst_period) {
        os << "burst_len=" << burst_len << " exceeds burst_period="
           << burst_period;
    } else if (burst_ranks > rows_per_table) {
        os << "burst_ranks=" << burst_ranks
           << " exceeds rows_per_table=" << rows_per_table;
    }
    return os.str();
}

std::string
WorkloadConfig::summary() const
{
    std::ostringstream os;
    char separator = '\0';
    const auto emit = [&](const char *key, const std::string &value) {
        if (separator != '\0')
            os << separator;
        os << key << '=' << value;
        separator = ',';
    };
    if (drift_amp != 0.0) {
        emit("drift_amp", common::shortestDouble(drift_amp));
        emit("drift_period", std::to_string(drift_period));
    }
    if (churn_k != 0) {
        emit("churn_k", std::to_string(churn_k));
        emit("churn_period", std::to_string(churn_period));
    }
    if (burst_frac != 0.0) {
        emit("burst_frac", common::shortestDouble(burst_frac));
        emit("burst_period", std::to_string(burst_period));
        emit("burst_len", std::to_string(burst_len));
        emit("burst_ranks", std::to_string(burst_ranks));
    }
    if (phase != 0)
        emit("phase", std::to_string(phase));
    return os.str();
}

WorkloadSpec
WorkloadSpec::parse(const std::string &text)
{
    WorkloadSpec spec;
    if (text.empty())
        return spec;

    std::vector<std::string> seen;
    std::stringstream options(text);
    std::string item;
    bool shaped = false;
    while (std::getline(options, item, ',')) {
        const size_t eq = item.find('=');
        fatalIf(eq == std::string::npos,
                "workload spec: expected key=value, got '", item,
                "' in '", text, "'");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        // Duplicates previously last-won silently; an option set with
        // two values for one knob is a typo, never an intent.
        fatalIf(std::find(seen.begin(), seen.end(), key) != seen.end(),
                "workload spec: duplicate key '", key, "' in '", text,
                "'");
        seen.push_back(key);
        if (key == "drift_amp") {
            spec.config.drift_amp =
                common::parseSpecDouble("workload spec", key, value);
            shaped = true;
        } else if (key == "drift_period") {
            spec.config.drift_period = parseSpecCount(key, value);
            shaped = true;
        } else if (key == "churn_k") {
            spec.config.churn_k = parseSpecCount(key, value);
            shaped = true;
        } else if (key == "churn_period") {
            spec.config.churn_period = parseSpecCount(key, value);
            shaped = true;
        } else if (key == "burst_frac") {
            spec.config.burst_frac =
                common::parseSpecDouble("workload spec", key, value);
            shaped = true;
        } else if (key == "burst_period") {
            spec.config.burst_period = parseSpecCount(key, value);
            shaped = true;
        } else if (key == "burst_len") {
            spec.config.burst_len = parseSpecCount(key, value);
            shaped = true;
        } else if (key == "burst_ranks") {
            spec.config.burst_ranks = parseSpecCount(key, value);
            shaped = true;
        } else if (key == "phase") {
            spec.config.phase = parseSpecCount(key, value);
            shaped = true;
        } else if (key == "replay") {
            fatalIf(value.empty(),
                    "workload spec: replay needs a file path");
            spec.replay_path = value;
        } else {
            fatal("workload spec: unknown key '", key, "' in '", text,
                  "' (drift_amp/drift_period/churn_k/churn_period/"
                  "burst_frac/burst_period/burst_len/burst_ranks/"
                  "phase/replay)");
        }
    }
    fatalIf(!spec.replay_path.empty() && shaped,
            "workload spec: replay=", spec.replay_path,
            " cannot be combined with shaping keys -- the recorded "
            "trace already fixes its workload");
    return spec;
}

std::string
WorkloadSpec::summary() const
{
    if (!replay_path.empty())
        return "replay=" + replay_path;
    return config.summary();
}

WorkloadShaper::WorkloadShaper(const WorkloadConfig &config,
                               uint64_t seed, uint64_t rows,
                               double base_exponent, uint64_t table,
                               uint64_t batch_index)
    : config_(config),
      sampler_(rows,
               config.drift_period == 0
                   ? base_exponent
                   : std::max(0.0,
                              base_exponent +
                                  config.drift_amp *
                                      triangleWave(
                                          batch_index +
                                              table * config.phase,
                                          config.drift_period)))
{
    const uint64_t position = batch_index + table * config.phase;

    if (config.churn_k > 0) {
        // One identity-seeded permutation of the hottest K ranks per
        // churn epoch; every table at the same schedule position sees
        // the same remap (phase offsets shift positions per table).
        const uint64_t epoch = position / config.churn_period;
        tensor::Rng perm_rng(
            mix64(mix64(seed ^ (kStreamChurn * 0x9e3779b97f4a7c15ull)) ^
                  (epoch + 1)));
        churn_perm_.resize(config.churn_k);
        std::iota(churn_perm_.begin(), churn_perm_.end(), uint64_t{0});
        for (uint64_t i = config.churn_k - 1; i > 0; --i)
            std::swap(churn_perm_[i],
                      churn_perm_[perm_rng.uniformInt(i + 1)]);
    }

    if (config.burst_frac > 0.0) {
        burst_active_ = position % config.burst_period < config.burst_len;
        if (burst_active_) {
            // Each crowd lands on a fresh window: derive the start row
            // from the crowd ordinal, not the batch, so the window is
            // stable across the crowd's burst_len batches.
            const uint64_t crowd = position / config.burst_period;
            const uint64_t span = rows - config.burst_ranks;
            const uint64_t h = mix64(
                mix64(seed ^ (kStreamBurst * 0x9e3779b97f4a7c15ull)) ^
                (crowd + 1));
            burst_lo_ = span == 0 ? 0 : h % (span + 1);
        }
    }
}

uint64_t
WorkloadShaper::sample(tensor::Rng &rng)
{
    uint64_t id = sampler_.sample(rng);
    if (!churn_perm_.empty() && id < churn_perm_.size())
        id = churn_perm_[id];
    if (burst_active_ && rng.bernoulli(config_.burst_frac))
        id = burst_lo_ + rng.uniformInt(config_.burst_ranks);
    return id;
}

} // namespace sp::data
