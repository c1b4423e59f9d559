/**
 * @file
 * Runtime CPU-dispatch layer for the SIMD kernel tiers.
 *
 * The hot kernels (math/blas, math/decomp panels, image/filter,
 * features/fast, features/orb, features/optical_flow) are built in
 * tiers: an SSE2 baseline compiled into every translation unit, plus
 * optional wider tiers compiled into separate TUs with their own -m
 * flags (math/simd_avx2.cpp et al.) so the binary still runs on hosts
 * without those extensions. The active
 * tier is resolved once at startup:
 *
 *   active = min(requested via EDX_SIMD_LEVEL, detected by cpuid,
 *                compiled-in ceiling)
 *
 * and read by the kernels through a relaxed atomic (a plain load on
 * x86 — no synchronization cost in the inner loops). Tier selection
 * never changes *what* a kernel computes under its equivalence
 * contract: order-preserving primitives (axpy/scale/div, GEMM) are
 * bit-exact across tiers, reduction kernels (dots, panels) carry the
 * same bounded contract per tier and are golden-tested per tier
 * (tests/test_math.cpp, tests/test_kernels.cpp).
 *
 * EDX_SIMD_LEVEL accepts "sse2" or "avx2" (case-insensitive); it can
 * only lower the tier below what the host and the build support, so
 * forcing "avx2" on an SSE2-only host falls back gracefully.
 *
 * availableCpus() is the other host fact the runtime sizes itself by:
 * the pool's elastic worker bound and the frontend's lane count.
 * lowerThreadPriority() sits beside it as the one other OS call.
 */
#pragma once

#include <atomic>
#include <string>

namespace edx {

/**
 * SIMD kernel tiers in ascending width. kSse2 is the zero value on
 * purpose: a zero-initialized tier global (read before its dynamic
 * initializer during static init) falls back to the always-safe
 * baseline.
 */
enum class SimdTier : int {
    kSse2 = 0, //!< 2-wide double / 16-wide byte baseline (x86-64 ABI)
    kAvx2 = 1, //!< 4-wide double FMA / 32-wide byte tier
};

namespace detail {
/** The resolved tier; dynamic-initialized in cpu_features.cpp. */
extern std::atomic<int> g_simd_tier;
} // namespace detail

/** The tier the kernels dispatch on (detection + override + ceiling). */
inline SimdTier
activeSimdTier()
{
    return static_cast<SimdTier>(
        detail::g_simd_tier.load(std::memory_order_relaxed));
}

/** True when the active tier is at least AVX2. */
inline bool
simdTierIsAvx2()
{
    return detail::g_simd_tier.load(std::memory_order_relaxed) >=
           static_cast<int>(SimdTier::kAvx2);
}

/**
 * Highest tier this host can execute with this binary: cpuid detection
 * clamped to the compiled-in ceiling (SSE2 when the AVX2 TUs were not
 * built). Ignores EDX_SIMD_LEVEL.
 */
SimdTier detectedSimdTier();

/**
 * Overrides the active tier (clamped to detectedSimdTier()). The tier
 * test loops use this to run every golden test per available tier;
 * benches use it for per-tier rows. Returns the tier actually set.
 */
SimdTier setSimdTier(SimdTier tier);

/** "sse2" / "avx2". */
const char *simdTierName(SimdTier tier);

/**
 * One-line human-readable tier state for bench headers, e.g.
 * "avx2 (detected avx2, EDX_SIMD_LEVEL unset)" or
 * "sse2 (detected avx2, EDX_SIMD_LEVEL=sse2)".
 */
std::string simdTierSummary();

/**
 * Number of CPUs this process may run on: its affinity mask, as
 * `nproc` counts it (hardware_concurrency() when the mask cannot be
 * read). Always at least 1.
 */
int availableCpus();

/**
 * Lowers the calling thread's scheduling priority to nice 10, for
 * background work that must not preempt frame work (the map-merge
 * worker). Linux nice values are per thread, and raising one's own
 * needs no privilege; elsewhere this is a no-op.
 */
void lowerThreadPriority();

} // namespace edx
