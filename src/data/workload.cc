#include "data/workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/mix.h"
#include "common/spec_number.h"

namespace sp::data
{

namespace
{

// Stream kinds for the shaping draws, disjoint from the trace streams
// in trace.cc (kStreamIds/kStreamDense/kStreamLabel).
constexpr uint64_t kStreamChurn = 0xc4a2;
constexpr uint64_t kStreamBurst = 0xb0b5;

using common::mix64;

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
    WorkloadConfig &config = spec.config;
    const std::vector<common::Option> rows = {
        {"drift_amp", config.drift_amp},
        {"drift_period", config.drift_period},
        {"churn_k", config.churn_k},
        {"churn_period", config.churn_period},
        {"burst_frac", config.burst_frac},
        {"burst_period", config.burst_period},
        {"burst_len", config.burst_len},
        {"burst_ranks", config.burst_ranks},
        {"phase", config.phase},
        {"replay", spec.replay_path},
    };
    const size_t given =
        common::parseOptions("workload spec", text, rows).size();
    fatalIf(!spec.replay_path.empty() && given > 1,
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
