#include "data/trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "common/mix.h"
#include "data/trace_format.h"

namespace sp::data
{

namespace
{

// Distinct stream kinds keep ID, dense and label streams independent.
constexpr uint64_t kStreamIds = 0x1d5;
constexpr uint64_t kStreamDense = 0xd3e;
constexpr uint64_t kStreamLabel = 0x1ab;

using common::mix64;

// --- Field-count tripwire ------------------------------------------
// fingerprint() and operator== must cover every TraceConfig (and
// nested WorkloadConfig) field, or stale cache entries alias new
// workloads. Counting aggregate members at compile time turns "added
// a field, forgot the fingerprint" into a build failure pointing
// here instead of a silently poisoned cache.
struct AnyField
{
    template <typename T> operator T() const; // never defined
};

template <typename T, typename... Fields>
constexpr size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

static_assert(fieldCount<WorkloadConfig>() == 9,
              "WorkloadConfig gained or lost a field: update "
              "TraceConfig::fingerprint(), the workload spec "
              "parser/summary, the v3 trace header codec "
              "(trace_format.cc) and this count together");
static_assert(fieldCount<TraceConfig>() == 9,
              "TraceConfig gained or lost a field: update "
              "fingerprint(), the trace header codec "
              "(trace_format.cc) and this count together");

} // namespace

std::string
TraceConfig::fingerprint() const
{
    // Chained mix64 over every generator-relevant field. Order and
    // content must only change together with kTraceFormatVersion
    // (which is folded in, so a format bump retires every cache entry
    // at once); a pinned-value test guards against accidental drift.
    uint64_t h = 0x5343525450495045ull; // "SCRTPIPE"
    const auto fold = [&h](uint64_t value) { h = mix64(h ^ value); };
    fold(format::kTraceFormatVersion);
    fold(num_tables);
    fold(rows_per_table);
    fold(lookups_per_table);
    fold(batch_size);
    fold(static_cast<uint64_t>(locality));
    fold(seed);
    fold(dense_features);
    fold(per_table_exponents.size());
    for (const double exponent : per_table_exponents)
        fold(std::bit_cast<uint64_t>(exponent));
    fold(std::bit_cast<uint64_t>(workload.drift_amp));
    fold(workload.drift_period);
    fold(workload.churn_k);
    fold(workload.churn_period);
    fold(std::bit_cast<uint64_t>(workload.burst_frac));
    fold(workload.burst_period);
    fold(workload.burst_len);
    fold(workload.burst_ranks);
    fold(workload.phase);

    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(hex, 16);
}

MiniBatch
MiniBatch::fromRecord(std::span<const uint64_t> record,
                      const TraceConfig &config)
{
    MiniBatch batch;
    batch.index = record[0];
    batch.batch_size = config.batch_size;
    batch.lookups_per_table = config.lookups_per_table;
    batch.all_ids = record.subspan(1);
    return batch;
}

bool
MiniBatch::idsEqual(const MiniBatch &other) const
{
    return index == other.index && batch_size == other.batch_size &&
           lookups_per_table == other.lookups_per_table &&
           std::ranges::equal(all_ids, other.all_ids);
}

TraceGenerator::TraceGenerator(const TraceConfig &config) : config_(config)
{
    fatalIf(config_.num_tables == 0, "trace needs at least one table");
    fatalIf(config_.rows_per_table == 0, "tables need at least one row");
    fatalIf(config_.batch_size == 0, "batch size must be positive");
    fatalIf(config_.lookups_per_table == 0,
            "lookups per table must be positive");
    fatalIf(!config_.per_table_exponents.empty() &&
                config_.per_table_exponents.size() != config_.num_tables,
            "per_table_exponents must have one entry per table (",
            config_.num_tables, "), got ",
            config_.per_table_exponents.size());
    const std::string workload_error =
        config_.workload.validationError(config_.rows_per_table);
    fatalIf(!workload_error.empty(), "workload config: ", workload_error);
    for (size_t t = 0; t < config_.num_tables; ++t)
        fatalIf(tableExponent(t) < 0.0, "table ", t,
                " Zipf exponent must be >= 0, got ", tableExponent(t));
}

double
TraceGenerator::tableExponent(size_t table) const
{
    // splint:allow(io-status): caller-bug bounds check, not I/O
    panicIf(table >= config_.num_tables, "table index out of range");
    if (!config_.per_table_exponents.empty())
        return config_.per_table_exponents[table];
    return zipfExponent(config_.locality);
}

uint64_t
TraceGenerator::streamSeed(uint64_t stream_kind, uint64_t table,
                           uint64_t index) const
{
    uint64_t h = config_.seed;
    h = mix64(h ^ (stream_kind * 0x9e3779b97f4a7c15ull));
    h = mix64(h ^ (table + 1));
    h = mix64(h ^ (index + 1));
    return h;
}

void
TraceGenerator::writeRecord(uint64_t index,
                            std::span<uint64_t> record) const
{
    record[0] = index;
    const size_t ids_per_table = config_.idsPerTable();
    for (size_t t = 0; t < config_.num_tables; ++t) {
        tensor::Rng rng(streamSeed(kStreamIds, t, index));
        // A stationary config makes the shaper a plain Zipf draw at the
        // table's exponent: no churn permutation and no burst draw.
        WorkloadShaper shaper(config_.workload, config_.seed,
                              config_.rows_per_table, tableExponent(t), t,
                              index);
        for (uint64_t &id : record.subspan(1 + t * ids_per_table,
                                           ids_per_table))
            id = shaper.sample(rng);
    }
}

std::vector<uint64_t>
TraceGenerator::makeRecord(uint64_t index) const
{
    std::vector<uint64_t> record(config_.recordWords());
    writeRecord(index, record);
    return record;
}

tensor::Matrix
TraceGenerator::makeDenseFeatures(uint64_t index) const
{
    tensor::Rng rng(streamSeed(kStreamDense, 0, index));
    tensor::Matrix dense(config_.batch_size, config_.dense_features);
    dense.fillNormal(rng, 1.0f);
    return dense;
}

tensor::Matrix
TraceGenerator::makeLabels(const MiniBatch &batch) const
{
    // Hidden CTR model with two learnable components: a fixed +/-1
    // weighting of the dense features (reachable through the bottom
    // MLP) and a +/-1 hash of every looked-up row ID (reachable only
    // through the embedding tables). The label is a Bernoulli draw on
    // the sigmoid of the combined score, so training has real signal
    // to extract along both paths.
    const tensor::Matrix dense = makeDenseFeatures(batch.index);
    tensor::Rng rng(streamSeed(kStreamLabel, 0, batch.index));
    tensor::Matrix labels(config_.batch_size, 1);

    const size_t lookups = config_.lookups_per_table;
    const double id_scale =
        1.5 / std::sqrt(static_cast<double>(config_.num_tables * lookups));
    const double dense_scale =
        1.5 / std::sqrt(static_cast<double>(config_.dense_features));
    for (size_t i = 0; i < config_.batch_size; ++i) {
        double score = 0.0;
        for (size_t t = 0; t < config_.num_tables; ++t) {
            const auto ids = batch.ids(t);
            for (size_t l = 0; l < lookups; ++l) {
                const uint64_t h = mix64(ids[i * lookups + l] + 7919 * t);
                score += ((h & 1) ? 1.0 : -1.0) * id_scale;
            }
        }
        for (size_t j = 0; j < config_.dense_features; ++j) {
            const uint64_t h = mix64(config_.seed * 31 + j);
            score += ((h & 1) ? 1.0 : -1.0) * dense(i, j) * dense_scale;
        }
        const double p = 1.0 / (1.0 + std::exp(-score));
        labels(i, 0) = rng.bernoulli(p) ? 1.0f : 0.0f;
    }
    return labels;
}

} // namespace sp::data
