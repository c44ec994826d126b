/**
 * @file
 * The two 64-bit mixers every seeded stream derives from.
 *
 * mix64 is MurmurHash3's fmix64 finaliser: a bijection that turns a
 * (seed, stream, table, index) combination into a well-spread seed.
 * splitmix64 advances a Weyl sequence and finalises it (Steele, Lea
 * and Flood, "Fast splittable pseudorandom number generators", OOPSLA
 * 2014). Every trace, workload, arrival, fault and Rng stream is a
 * function of these constants, so changing one changes every output.
 */

#ifndef SP_COMMON_MIX_H
#define SP_COMMON_MIX_H

#include <cstdint>

namespace sp::common
{

/** MurmurHash3's 64-bit finaliser. */
constexpr uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Advance `state` by the golden-ratio increment and mix it. */
constexpr uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace sp::common

#endif // SP_COMMON_MIX_H
