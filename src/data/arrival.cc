#include "data/arrival.h"

#include <cmath>

#include "common/logging.h"
#include "common/mix.h"

namespace sp::data
{

namespace
{

// Stream constant for the arrival process, disjoint from the trace
// streams (kStreamIds/kStreamDense/kStreamLabel in trace.cc) and the
// shaper streams (kStreamChurn/kStreamBurst in workload.cc).
constexpr uint64_t kStreamArrival = 0xa771;

using common::mix64;
using common::splitmix64;

} // namespace

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Uniform:
        return "uniform";
      case ArrivalKind::Bursty:
        return "bursty";
    }
    fatal("unreachable arrival kind");
}

ArrivalKind
arrivalKindFromName(const std::string &name)
{
    if (name == "poisson")
        return ArrivalKind::Poisson;
    if (name == "uniform")
        return ArrivalKind::Uniform;
    if (name == "bursty")
        return ArrivalKind::Bursty;
    fatal("unknown arrival process '", name,
          "' (poisson/uniform/bursty)");
}

std::string
ArrivalConfig::validationError() const
{
    // Written as !(in range) so NaN is rejected too.
    if (!(rate > 0.0) || !std::isfinite(rate))
        return "rate must be a positive, finite request rate "
               "(requests/second); rate=0 makes every inter-arrival "
               "gap divide by zero";
    if (kind != ArrivalKind::Bursty)
        return "";
    if (!(burst_x >= 1.0) || !std::isfinite(burst_x))
        return "burst_x must be a finite on-phase multiplier >= 1";
    if (!(burst_on_us > 0.0) || !std::isfinite(burst_on_us))
        return "burst_on_us must be a positive, finite on-phase length "
               "(microseconds)";
    if (!(burst_off_us > 0.0) || !std::isfinite(burst_off_us))
        return "burst_off_us must be a positive, finite off-phase "
               "length (microseconds)";
    if (burst_x * burst_on_us > burst_on_us + burst_off_us)
        return "burst_x * burst_on_us exceeds the period: the "
               "off-phase rate that preserves the mean would be "
               "negative";
    return "";
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config, uint64_t seed)
    : config_(config),
      state_(mix64(seed ^ (kStreamArrival * 0x9e3779b97f4a7c15ull)))
{
    const std::string problem = config.validationError();
    fatalIf(!problem.empty(), "arrival config: ", problem);
    if (config_.kind == ArrivalKind::Bursty) {
        on_seconds_ = config_.burst_on_us * 1e-6;
        off_seconds_ = config_.burst_off_us * 1e-6;
        // Mean-preserving modulation: on-phase mass rate*burst_x*on,
        // the off-phase carries whatever remains of rate*period.
        const double period = on_seconds_ + off_seconds_;
        off_rate_ = (config_.rate * period -
                     config_.rate * config_.burst_x * on_seconds_) /
                    off_seconds_;
    }
}

double
ArrivalProcess::uniformDraw()
{
    // (draw >> 11) spans [0, 2^53); +1 shifts the lattice to (0, 2^53]
    // so the result lies in (0, 1] -- the clamp that keeps
    // -ln(u) finite.
    return (static_cast<double>(splitmix64(state_) >> 11) + 1.0) *
           0x1.0p-53;
}

double
ArrivalProcess::next()
{
    double gap = 0.0;
    switch (config_.kind) {
      case ArrivalKind::Poisson:
        gap = -std::log(uniformDraw()) / config_.rate;
        break;
      case ArrivalKind::Uniform:
        gap = 1.0 / config_.rate;
        break;
      case ArrivalKind::Bursty: {
        // Rate-modulated Poisson, rate frozen at the draw's phase
        // (exact for gaps short against the phase length, which is the
        // regime bursts model). An off-phase rate of zero -- allowed
        // when burst_x*burst_on equals the period -- is handled by
        // jumping the clock to the next on-phase.
        const double period = on_seconds_ + off_seconds_;
        double phase = std::fmod(now_, period);
        if (!(phase < on_seconds_) && off_rate_ <= 0.0) {
            now_ += period - phase;
            phase = 0.0;
        }
        const double rate = phase < on_seconds_
                                ? config_.rate * config_.burst_x
                                : off_rate_;
        gap = -std::log(uniformDraw()) / rate;
        break;
      }
    }
    now_ += gap;
    return now_;
}

} // namespace sp::data
