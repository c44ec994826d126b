#include "common/cpu_features.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace sp::common
{

bool
cpuSupportsAvx2()
{
#if defined(__x86_64__) || defined(_M_X64)
    // __builtin_cpu_supports consults cpuid once and caches; it is the
    // portable gcc/clang spelling of the AVX2 OSXSAVE dance.
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

SimdPreference
parseSimdPreference(const char *value)
{
    if (value == nullptr || *value == '\0' ||
        std::strcmp(value, "native") == 0)
        return SimdPreference::Native;
    if (std::strcmp(value, "scalar") == 0)
        return SimdPreference::Scalar;
    fatal("SP_SIMD expects 'scalar' or 'native', got '", value, "'");
}

SimdPreference
simdPreference()
{
    // Latched at first use: every HitMap constructed afterwards sees
    // the same answer, so one process never mixes kernel families
    // behind the caller's back.
    static const SimdPreference preference =
        parseSimdPreference(std::getenv("SP_SIMD"));
    return preference;
}

const char *
simdPreferenceName(SimdPreference preference)
{
    return preference == SimdPreference::Scalar ? "scalar" : "native";
}

} // namespace sp::common
