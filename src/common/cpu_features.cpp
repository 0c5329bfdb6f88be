#include "common/cpu_features.hpp"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif

namespace rog {
namespace cpu {

namespace {

bool
detectAvx2Fma()
{
#if defined(__x86_64__) || defined(__i386__)
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma");
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
detectAvx512f()
{
#if defined(__x86_64__) || defined(__i386__)
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
detectCrc32c()
{
#if defined(__x86_64__) || defined(__i386__)
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("sse4.2");
#else
    return false;
#endif
#elif defined(__aarch64__)
#if defined(__ARM_FEATURE_CRC32)
    // Baked into the target baseline: no runtime probe needed.
    return true;
#elif defined(__linux__)
    return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
    return false;
#endif
#else
    return false;
#endif
}

} // namespace

bool
hasCrc32c()
{
    static const bool has = detectCrc32c();
    return has;
}

bool
hasAvx2Fma()
{
    static const bool has = detectAvx2Fma();
    return has;
}

bool
hasAvx512f()
{
    static const bool has = detectAvx512f();
    return has;
}

bool
hasNeon()
{
#if defined(__aarch64__)
    // ASIMD is architecturally mandatory on aarch64.
    return true;
#else
    return false;
#endif
}

} // namespace cpu
} // namespace rog
