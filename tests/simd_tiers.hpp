/**
 * @file
 * forEachSimdTier: the per-tier loop of the golden and oracle tests.
 */
#pragma once

#include <gtest/gtest.h>

#include "math/cpu_features.hpp"

namespace edx {

/**
 * Runs @p fn once per SIMD tier available at runtime (SSE2 always;
 * AVX2 when the host and build support it), restoring the startup tier
 * afterwards. The golden sweeps run under every tier so each per-tier
 * kernel faces the same exactness contract — on an SSE2-only host the
 * loop degenerates to the baseline tier. Tier forcing from the outside
 * works too: under EDX_SIMD_LEVEL=sse2 the detected tier is still the
 * host's, so this loop intentionally uses the *startup* tier as its
 * ceiling to honor the override.
 */
template <typename Fn>
void
forEachSimdTier(Fn &&fn)
{
    const SimdTier startup = activeSimdTier();
    for (int t = 0; t <= static_cast<int>(startup); ++t) {
        const SimdTier tier = static_cast<SimdTier>(t);
        setSimdTier(tier);
        testing::ScopedTrace trace(__FILE__, __LINE__,
                                   simdTierName(tier));
        fn();
    }
    setSimdTier(startup);
}

} // namespace edx
