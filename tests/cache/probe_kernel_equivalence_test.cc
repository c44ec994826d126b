/**
 * @file
 * Differential equivalence harness for the batched-probe kernels.
 *
 * SIMD probe code is the easiest place in this repo to ship a silent
 * wrong-answer bug, so every kernel compiled into this binary is
 * proved bit-identical to the scalar reference over adversarial key
 * sets before any bench number counts: long collision chains,
 * near-load-factor-limit tables, probe chains wrapping the table end,
 * duplicate keys inside one batch, all-miss / all-hit batches, block
 * remainders around the 8-lane SIMD width, and a randomized
 * load-factor x hit-rate sweep. The HitMap-level dispatch (probe=
 * modes, SP_SIMD) is covered at the bottom.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/hit_map.h"
#include "cache/probe_kernel.h"
#include "common/cpu_features.h"
#include "common/logging.h"
#include "tensor/rng.h"

namespace sp::cache
{
namespace
{

/** Kernels the host can actually execute, scalar first. */
std::vector<const ProbeKernel *>
runnableKernels()
{
    std::vector<const ProbeKernel *> runnable;
    for (const ProbeKernel *kernel : compiledProbeKernels()) {
        if (kernel->supported())
            runnable.push_back(kernel);
    }
    return runnable;
}

/**
 * Assert every runnable kernel agrees with both the scalar kernel and
 * find() on `keys`. The double-check matters: comparing kernels only
 * against each other could pass if all of them shared a bug with the
 * scalar batched path; find() is an independent single-key walk.
 */
void
expectAllKernelsAgree(const HitMap &map,
                      const std::vector<uint64_t> &keys,
                      const std::string &label)
{
    const ProbeTable table = map.probeTable();
    std::vector<uint32_t> expected(keys.size());
    scalarProbeKernel().fn(table, keys.data(), expected.data(),
                           keys.size());
    for (size_t i = 0; i < keys.size(); ++i)
        ASSERT_EQ(expected[i], map.find(keys[i]))
            << label << ": scalar kernel disagrees with find() at " << i;

    for (const ProbeKernel *kernel : runnableKernels()) {
        std::vector<uint32_t> got(keys.size(), 0xdeadbeefu);
        kernel->fn(table, keys.data(), got.data(), keys.size());
        for (size_t i = 0; i < keys.size(); ++i)
            ASSERT_EQ(got[i], expected[i])
                << label << ": kernel '" << kernel->name
                << "' diverges from scalar at index " << i << " (key "
                << keys[i] << ", n=" << keys.size() << ")";
    }
}

/** First `count` keys (by value) whose home bucket is `bucket`. */
std::vector<uint64_t>
keysHomedAt(const ProbeTable &table, size_t bucket, size_t count)
{
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; keys.size() < count; ++k) {
        panicIf(k == kProbeEmptyKey, "key space exhausted hunting for "
                                     "colliding keys");
        if (probeBucketFor(table, k) == bucket)
            keys.push_back(k);
    }
    return keys;
}

TEST(ProbeKernelEquivalence, ScalarKernelIsCompiledAndFirst)
{
    const auto kernels = compiledProbeKernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_STREQ(kernels[0]->name, "scalar");
    EXPECT_TRUE(kernels[0]->supported());
}

TEST(ProbeKernelEquivalence, LongCollisionChain)
{
    // A small fixed-capacity table (no grow below 89 entries for 128
    // buckets) and 60 keys that all hash to one bucket: a 60-probe
    // chain. Misses homed at the same bucket must walk the entire
    // chain before proving absence.
    HitMap map(64);
    ASSERT_EQ(map.capacity(), 128u);
    const auto colliders = keysHomedAt(map.probeTable(), 37, 80);
    for (size_t i = 0; i < 60; ++i)
        map.insert(colliders[i], static_cast<uint32_t>(i));

    std::vector<uint64_t> keys;
    for (const uint64_t k : colliders) // 60 hits + 20 full-chain misses
        keys.push_back(k);
    for (uint64_t k = 0; k < 40; ++k) // mixed-bucket traffic
        keys.push_back(1'000'000 + k * 97);
    expectAllKernelsAgree(map, keys, "collision chain");
}

TEST(ProbeKernelEquivalence, NearLoadFactorLimit)
{
    // Fill right up to the 0.7 growth threshold: the densest table
    // the map ever serves, with maximal average chain length.
    HitMap map(256);
    const size_t buckets = map.capacity();
    tensor::Rng rng(11);
    uint32_t next_key = 0;
    // Stop one short of the (size+1)*10 >= buckets*7 growth trigger.
    while ((map.size() + 2) * 10 < buckets * 7) {
        map.insert(next_key, next_key * 7);
        ++next_key;
    }
    ASSERT_EQ(map.capacity(), buckets) << "the fill must not grow it";
    ASSERT_GE(map.size() * 10, buckets * 7 - 20);

    std::vector<uint64_t> keys;
    for (uint32_t i = 0; i < 1000; ++i)
        keys.push_back(rng.uniformInt(2 * next_key)); // ~50% hits
    expectAllKernelsAgree(map, keys, "near load-factor limit");
}

TEST(ProbeKernelEquivalence, ChainsWrapTheTableEnd)
{
    // Pack the last buckets so probe chains wrap to bucket 0: the
    // classic modular-arithmetic edge for hand-written SIMD index
    // math.
    HitMap map(64);
    const ProbeTable table = map.probeTable();
    std::vector<uint64_t> inserted;
    for (size_t offset = 0; offset < 4; ++offset) {
        const size_t bucket = (table.mask - offset) & table.mask;
        for (const uint64_t k : keysHomedAt(table, bucket, 6)) {
            map.insert(k, static_cast<uint32_t>(inserted.size()));
            inserted.push_back(k);
        }
    }
    // 24 entries homed in the last 4 buckets: the tail chains must
    // wrap. Probe the inserted keys, wrapped-home misses, and keys
    // homed at bucket 0 (whose chain is occupied by wrapped entries).
    std::vector<uint64_t> keys = inserted;
    for (const uint64_t k : keysHomedAt(table, table.mask, 30))
        keys.push_back(k);
    for (const uint64_t k : keysHomedAt(table, 0, 10))
        keys.push_back(k);
    expectAllKernelsAgree(map, keys, "bucket wrap");
}

TEST(ProbeKernelEquivalence, DuplicateKeysInOneBatch)
{
    HitMap map;
    map.insert(5, 50);
    map.insert(9, 90);
    const std::vector<uint64_t> keys = {5, 5, 9, 5, 777, 777, 9, 9,
                                        5, 9, 777, 5, 5, 5, 9, 777, 9};
    expectAllKernelsAgree(map, keys, "duplicate keys");
}

TEST(ProbeKernelEquivalence, AllMissAndAllHitBatches)
{
    HitMap map;
    for (uint32_t k = 0; k < 500; ++k)
        map.insert(k * 2, k);

    std::vector<uint64_t> hits, misses;
    for (uint32_t k = 0; k < 500; ++k) {
        hits.push_back(k * 2);
        misses.push_back(k * 2 + 1);
    }
    expectAllKernelsAgree(map, hits, "all-hit");
    expectAllKernelsAgree(map, misses, "all-miss");
}

TEST(ProbeKernelEquivalence, BlockRemaindersAroundSimdWidth)
{
    // Sizes straddling the 8-lane block width and the scalar prefetch
    // distance: lead-in, steady state, drain, and partial tails.
    HitMap map;
    for (uint32_t k = 0; k < 300; ++k)
        map.insert(k * 3, k);
    tensor::Rng rng(23);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                           size_t{9}, size_t{12}, size_t{13}, size_t{15},
                           size_t{16}, size_t{17}, size_t{31}, size_t{64},
                           size_t{100}, size_t{1001}}) {
        std::vector<uint64_t> keys(n);
        for (auto &key : keys)
            key = rng.uniformInt(1200);
        expectAllKernelsAgree(map, keys,
                              "remainder n=" + std::to_string(n));
    }
}

TEST(ProbeKernelEquivalence, RandomizedLoadFactorByHitRateSweep)
{
    tensor::Rng rng(31337);
    for (const double load : {0.15, 0.45, 0.68}) {
        for (const double hit_rate : {0.0, 0.5, 0.95, 1.0}) {
            HitMap map(1024);
            const size_t buckets = map.capacity();
            std::vector<uint64_t> resident;
            while (static_cast<double>(map.size()) <
                   load * static_cast<double>(buckets)) {
                const uint64_t key = rng.uniformInt(1u << 30);
                if (map.find(key) == HitMap::kNotFound) {
                    map.insert(key,
                               static_cast<uint32_t>(map.size()));
                    resident.push_back(key);
                }
            }
            std::vector<uint64_t> keys(2048);
            for (auto &key : keys) {
                const bool hit = rng.uniform() < hit_rate;
                key = hit && !resident.empty()
                          ? resident[rng.uniformInt(resident.size())]
                          : (1u << 30) + rng.uniformInt(1u << 30);
            }
            expectAllKernelsAgree(
                map, keys,
                "load=" + std::to_string(load) +
                    " hit=" + std::to_string(hit_rate));
        }
    }
}

TEST(ProbeKernelEquivalence, KeysAboveThe32BitBoundary)
{
    // Full-width keys whose low 32 bits collide pairwise: any kernel
    // that hashes, compares, or carries only the low half aliases
    // them. The mixed batch also covers the old reserved value
    // 0xffffffff, legal since keys went 64-bit.
    HitMap map;
    constexpr uint64_t kStride = 0x100000000ull;
    std::vector<uint64_t> keys;
    for (uint32_t k = 0; k < 200; ++k) {
        const uint64_t key = 0xfffffff0ull + k * kStride;
        map.insert(key, k);
        keys.push_back(key);            // hit
        keys.push_back(key + kStride);  // miss aliasing the next hit
    }
    expectAllKernelsAgree(map, keys, "wide keys");
}

TEST(ProbeKernelEquivalence, MutateAndGrowBetweenBatches)
{
    // Kernel results must track the live table through grows and
    // backward-shift erases (probeTable() views are re-taken per
    // call).
    HitMap map(8);
    tensor::Rng rng(404);
    std::vector<uint64_t> present;
    for (int round = 0; round < 20; ++round) {
        for (int op = 0; op < 200; ++op) {
            const uint64_t key = rng.uniformInt(5000);
            if (map.find(key) == HitMap::kNotFound) {
                map.insert(key, static_cast<uint32_t>(op));
                present.push_back(key);
            } else if (rng.uniform() < 0.3) {
                map.erase(key);
            }
        }
        std::vector<uint64_t> keys(300);
        for (auto &key : keys)
            key = rng.uniformInt(6000);
        expectAllKernelsAgree(map, keys,
                              "mutate round " + std::to_string(round));
    }
    EXPECT_GT(map.capacity(), 16u);
}

// ---- Dispatch ------------------------------------------------------

TEST(ProbeKernelDispatch, ScalarModeAlwaysSelectsScalar)
{
    EXPECT_STREQ(selectProbeKernel(ProbeMode::Scalar).name, "scalar");
}

TEST(ProbeKernelDispatch, NativeSelectsWidestSupportedKernel)
{
    const ProbeKernel &native = selectProbeKernel(ProbeMode::Native);
    if (const ProbeKernel *avx2 = avx2ProbeKernel();
        avx2 != nullptr && avx2->supported()) {
        EXPECT_STREQ(native.name, "avx2");
    } else {
        EXPECT_STREQ(native.name, "scalar");
    }
}

TEST(ProbeKernelDispatch, HitMapModesProduceIdenticalResults)
{
    HitMap scalar_map(512), native_map(512);
    scalar_map.setProbeMode(ProbeMode::Scalar);
    native_map.setProbeMode(ProbeMode::Native);
    EXPECT_STREQ(scalar_map.probeKernelName(), "scalar");

    tensor::Rng rng(77);
    for (uint32_t k = 0; k < 600; ++k) {
        const uint64_t key = rng.uniformInt(1u << 20);
        if (scalar_map.find(key) == HitMap::kNotFound) {
            scalar_map.insert(key, k);
            native_map.insert(key, k);
        }
    }
    std::vector<uint64_t> keys(1000);
    for (auto &key : keys)
        key = rng.uniformInt(1u << 20);
    std::vector<uint32_t> scalar_out(keys.size()),
        native_out(keys.size());
    scalar_map.findMany(keys, scalar_out);
    native_map.findMany(keys, native_out);
    EXPECT_EQ(scalar_out, native_out);
}

TEST(ProbeKernelDispatch, ProbeModeNamesRoundTrip)
{
    for (const ProbeMode mode :
         {ProbeMode::Auto, ProbeMode::Scalar, ProbeMode::Native})
        EXPECT_EQ(probeModeFromName(probeModeName(mode)), mode);
    EXPECT_THROW(probeModeFromName("avx99"), FatalError);
}

} // namespace
} // namespace sp::cache
