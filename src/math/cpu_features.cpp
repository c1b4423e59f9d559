#include "math/cpu_features.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <thread>

#include <sched.h>
#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace edx {

namespace {

/** Compiled-in ceiling: kAvx2 only when the AVX2 TUs were built. */
constexpr SimdTier
compiledTierCeiling()
{
#if defined(EDX_HAVE_AVX2)
    return SimdTier::kAvx2;
#else
    return SimdTier::kSse2;
#endif
}

bool
hostSupportsAvx2Fma()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

SimdTier
detectTier()
{
    if (compiledTierCeiling() >= SimdTier::kAvx2 && hostSupportsAvx2Fma())
        return SimdTier::kAvx2;
    return SimdTier::kSse2;
}

/** Parses EDX_SIMD_LEVEL; returns the detected tier when unset/unknown. */
SimdTier
resolveStartupTier()
{
    const SimdTier detected = detectTier();
    const char *env = std::getenv("EDX_SIMD_LEVEL");
    if (!env)
        return detected;
    std::string v;
    for (const char *p = env; *p; ++p)
        v.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p))));
    SimdTier requested = detected;
    if (v == "sse2")
        requested = SimdTier::kSse2;
    else if (v == "avx2")
        requested = SimdTier::kAvx2;
    // The override can only lower the tier: forcing a wider level than
    // the host or build supports falls back to what is executable.
    return requested < detected ? requested : detected;
}

} // namespace

namespace detail {
// Dynamic-initialized; a read during earlier static init sees the
// zero-initialized value, which is the SSE2 baseline by construction.
std::atomic<int> g_simd_tier{static_cast<int>(resolveStartupTier())};
} // namespace detail

SimdTier
detectedSimdTier()
{
    // Detection is cheap and pure; recompute instead of caching so the
    // answer is valid even when called during static initialization.
    return detectTier();
}

SimdTier
setSimdTier(SimdTier tier)
{
    const SimdTier detected = detectTier();
    if (tier > detected)
        tier = detected;
    detail::g_simd_tier.store(static_cast<int>(tier),
                              std::memory_order_relaxed);
    return tier;
}

const char *
simdTierName(SimdTier tier)
{
    return tier == SimdTier::kAvx2 ? "avx2" : "sse2";
}

std::string
simdTierSummary()
{
    std::string s = simdTierName(activeSimdTier());
    s += " (detected ";
    s += simdTierName(detectedSimdTier());
    const char *env = std::getenv("EDX_SIMD_LEVEL");
    if (env) {
        s += ", EDX_SIMD_LEVEL=";
        s += env;
    } else {
        s += ", EDX_SIMD_LEVEL unset";
    }
    s += ")";
    return s;
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

void
lowerThreadPriority()
{
#if defined(__linux__)
    setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 10);
#endif
}

} // namespace edx
