/**
 * @file
 * Composable workload shaping over the Zipf samplers.
 *
 * The stationary generator in trace.h draws every batch from one fixed
 * Zipf(n, s) per table. Real training traffic is not stationary: item
 * popularity drifts over hours, the hot set churns as new items trend,
 * and flash crowds slam a narrow item range for a short window. This
 * layer composes those effects on top of the existing samplers:
 *
 *   - drifting alpha:   the Zipf exponent follows a triangle wave
 *                       around the locality preset's base value,
 *   - hot-set churn:    the hottest K ranks are re-permuted every
 *                       churn_period batches,
 *   - flash crowds:     for burst_len batches out of every
 *                       burst_period, each lookup is redirected with
 *                       probability burst_frac into a burst_ranks-wide
 *                       window whose position re-rolls per crowd,
 *   - per-table phase:  table t sees the schedule shifted by t*phase
 *                       batches, so tables drift/churn out of sync.
 *
 * Everything is deterministic per (seed, table, batch index): the
 * schedule position is a pure function of the batch index and the
 * shaping draws extend the batch's existing ID stream, so the
 * bit-identity contract and the content-addressed trace cache work
 * unchanged. Every batch goes through the shaper; a stationary config
 * (all knobs zero) makes it a plain Zipf draw at the base exponent, the
 * classic generator stream byte for byte.
 *
 * WorkloadSpec adds the replay alternative: instead of generating,
 * open a previously recorded trace file (TraceDataset::open) and run
 * it through the same systems, benches and harnesses.
 */

#ifndef SP_DATA_WORKLOAD_H
#define SP_DATA_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "data/zipf.h"
#include "tensor/rng.h"

namespace sp::data
{

/**
 * Shaping knobs applied on top of the per-table Zipf samplers. All
 * defaults off == stationary == the classic generator, bit for bit.
 *
 * Fields here are generator-relevant state: every one is serialised
 * into the trace header, folded into TraceConfig::fingerprint() and
 * compared by TraceConfig::operator== (a field-count tripwire in
 * trace.cc fails the build if one is added without updating those).
 */
struct WorkloadConfig
{
    /** Peak deviation of the Zipf exponent from its base value. */
    double drift_amp = 0.0;
    /** Half-period, in batches, of the exponent triangle wave
     *  (base -> base+amp -> base -> base-amp -> base over 4 periods);
     *  0 disables drift. */
    uint64_t drift_period = 0;
    /** Number of hottest ranks re-permuted by churn; 0 disables. */
    uint64_t churn_k = 0;
    /** Batches between churn re-permutations. */
    uint64_t churn_period = 0;
    /** Probability a lookup is redirected into the burst window while
     *  a flash crowd is active; 0 disables bursts. */
    double burst_frac = 0.0;
    /** Batches between flash-crowd onsets. */
    uint64_t burst_period = 0;
    /** Batches a flash crowd lasts (must be <= burst_period). */
    uint64_t burst_len = 0;
    /** Width, in rows, of the burst target window. */
    uint64_t burst_ranks = 0;
    /** Per-table schedule offset: table t runs the schedule at
     *  position batch + t*phase, decorrelating tables. */
    uint64_t phase = 0;

    /** True iff every knob is at its default (no shaping). */
    bool stationary() const { return *this == WorkloadConfig{}; }

    /** Field-by-field equality (cache poison guard). */
    bool operator==(const WorkloadConfig &other) const = default;

    /**
     * Semantic validation against a table geometry. Returns an empty
     * string when valid, else a human-readable diagnostic.
     */
    std::string validationError(uint64_t rows_per_table) const;

    /** Canonical "key=value,..." string; "" when stationary. */
    std::string summary() const;
};

/**
 * A parsed `--workload` spec: either shaping knobs for the generator
 * or a replay path, never both.
 */
struct WorkloadSpec
{
    WorkloadConfig config;
    /** Non-empty: replay this recorded trace file instead of
     *  generating (mutually exclusive with shaping keys). */
    std::string replay_path;

    /**
     * Parse "key=value[,key=value...]": one key per WorkloadConfig
     * knob, plus replay. Duplicate keys and unknown keys are fatal()
     * with a diagnostic naming the offender; "" parses to the
     * stationary spec.
     */
    static WorkloadSpec parse(const std::string &text);

    /** Canonical spec string (round-trips through parse()). */
    std::string summary() const;
};

/**
 * Per-(table, batch) shaping state: resolves the schedule position,
 * the effective exponent, the churn permutation and the burst window
 * once, then shapes each sampled ID. Constructed inside writeRecord for
 * every (table, batch) pair -- construction is O(1) except for the
 * O(churn_k) permutation, and holds no shared state, so concurrent
 * writeRecord calls stay safe.
 */
class WorkloadShaper
{
  public:
    /**
     * @param config        Validated shaping knobs.
     * @param seed          The trace's master seed.
     * @param rows          Rows per table (ID range).
     * @param base_exponent Table's stationary Zipf exponent.
     * @param table         Table index.
     * @param batch_index   Global batch index.
     */
    WorkloadShaper(const WorkloadConfig &config, uint64_t seed,
                   uint64_t rows, double base_exponent, uint64_t table,
                   uint64_t batch_index);

    /** Draw one shaped row ID, advancing the batch's ID stream. */
    uint64_t sample(tensor::Rng &rng);

    /** Exponent in effect at this schedule position (tests). */
    double effectiveExponent() const { return sampler_.exponent(); }

    /** True iff a flash crowd is active at this position (tests). */
    bool burstActive() const { return burst_active_; }

    /** Burst window start row (meaningful when burstActive()). */
    uint64_t burstLo() const { return burst_lo_; }

  private:
    const WorkloadConfig &config_;
    ZipfSampler sampler_;
    std::vector<uint64_t> churn_perm_;
    bool burst_active_ = false;
    uint64_t burst_lo_ = 0;
};

} // namespace sp::data

#endif // SP_DATA_WORKLOAD_H
