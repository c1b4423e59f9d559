/**
 * @file
 * AVX2 tier of the rotated-BRIEF sampler: 8 comparisons per step, each
 * element in the scalar expression order of orb.cpp (float rotation,
 * double bilinear, `<`), so descriptors are bit-identical to the SSE2
 * tier. Orientation and the clamped border path stay in orb.cpp.
 *
 * Only <immintrin.h> here — see simd_avx2.cpp for the ODR rationale.
 */
#if defined(EDX_HAVE_AVX2)

#include <immintrin.h>

#include "features/orb_avx2.hpp"

namespace edx {
namespace avx2 {

namespace {

inline __m256d
lowHalf(__m256i v)
{
    return _mm256_cvtepi32_pd(_mm256_castsi256_si128(v));
}

inline __m256d
highHalf(__m256i v)
{
    return _mm256_cvtepi32_pd(_mm256_extracti128_si256(v, 1));
}

/**
 * sampleBilinearFast's expression for 4 taps, in its order:
 * v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy) + v01 * (1 - fx) * fy
 * + v11 * fx * fy.
 */
inline __m256d
bilinear(__m256d v00, __m256d v10, __m256d v01, __m256d v11, __m256d fx,
         __m256d fy)
{
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d gx = _mm256_sub_pd(one, fx);
    const __m256d gy = _mm256_sub_pd(one, fy);
    __m256d s = _mm256_mul_pd(_mm256_mul_pd(v00, gx), gy);
    s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_mul_pd(v10, fx), gy));
    s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_mul_pd(v01, gx), fy));
    return _mm256_add_pd(s, _mm256_mul_pd(_mm256_mul_pd(v11, fx), fy));
}

/**
 * Bilinear samples at 8 tap points (@p x, @p y): lanes 0-3 into
 * @p lo, lanes 4-7 into @p hi.
 */
inline void
sample8(const unsigned char *img, int stride, __m256 x, __m256 y,
        __m256d &lo, __m256d &hi)
{
    // The taps are positive, so truncation is the scalar int cast.
    const __m256i x0 = _mm256_cvttps_epi32(x);
    const __m256i y0 = _mm256_cvttps_epi32(y);
    const __m256i vstride = _mm256_set1_epi32(stride);
    // Each gather reads bytes x0 - 2 .. x0 + 1 of a row, so the two
    // pixels of the tap are its upper two bytes.
    const __m256i off =
        _mm256_add_epi32(_mm256_mullo_epi32(y0, vstride),
                         _mm256_sub_epi32(x0, _mm256_set1_epi32(2)));
    const int *base = reinterpret_cast<const int *>(img);
    const __m256i r0 = _mm256_i32gather_epi32(base, off, 1);
    const __m256i r1 =
        _mm256_i32gather_epi32(base, _mm256_add_epi32(off, vstride), 1);
    const __m256i byte = _mm256_set1_epi32(0xFF);
    const __m256i v00 = _mm256_and_si256(_mm256_srli_epi32(r0, 16), byte);
    const __m256i v10 = _mm256_srli_epi32(r0, 24);
    const __m256i v01 = _mm256_and_si256(_mm256_srli_epi32(r1, 16), byte);
    const __m256i v11 = _mm256_srli_epi32(r1, 24);

    // fx = x - x0 on the tap widened to double, as the scalar call does.
    const __m256d fx_lo = _mm256_sub_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(x)), lowHalf(x0));
    const __m256d fx_hi = _mm256_sub_pd(
        _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1)), highHalf(x0));
    const __m256d fy_lo = _mm256_sub_pd(
        _mm256_cvtps_pd(_mm256_castps256_ps128(y)), lowHalf(y0));
    const __m256d fy_hi = _mm256_sub_pd(
        _mm256_cvtps_pd(_mm256_extractf128_ps(y, 1)), highHalf(y0));
    lo = bilinear(lowHalf(v00), lowHalf(v10), lowHalf(v01), lowHalf(v11),
                  fx_lo, fy_lo);
    hi = bilinear(highHalf(v00), highHalf(v10), highHalf(v01),
                  highHalf(v11), fx_hi, fy_hi);
}

} // namespace

void
briefDescriptor(const unsigned char *img, int stride, float kx, float ky,
                float ca, float sa, const float *pattern,
                unsigned char *out)
{
    const __m256 vca = _mm256_set1_ps(ca);
    const __m256 vsa = _mm256_set1_ps(sa);
    const __m256 vkx = _mm256_set1_ps(kx);
    const __m256 vky = _mm256_set1_ps(ky);
    const float *pax = pattern, *pay = pattern + 256;
    const float *pbx = pattern + 512, *pby = pattern + 768;
    for (int g = 0; g < 32; ++g) {
        const int b = 8 * g;
        const __m256 pa_x = _mm256_loadu_ps(pax + b);
        const __m256 pa_y = _mm256_loadu_ps(pay + b);
        const __m256 pb_x = _mm256_loadu_ps(pbx + b);
        const __m256 pb_y = _mm256_loadu_ps(pby + b);
        // ca * px - sa * py + kx and sa * px + ca * py + ky.
        const __m256 ax = _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(vca, pa_x), _mm256_mul_ps(vsa, pa_y)),
            vkx);
        const __m256 ay = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(vsa, pa_x), _mm256_mul_ps(vca, pa_y)),
            vky);
        const __m256 bx = _mm256_add_ps(
            _mm256_sub_ps(_mm256_mul_ps(vca, pb_x), _mm256_mul_ps(vsa, pb_y)),
            vkx);
        const __m256 by = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(vsa, pb_x), _mm256_mul_ps(vca, pb_y)),
            vky);
        __m256d va_lo, va_hi, vb_lo, vb_hi;
        sample8(img, stride, ax, ay, va_lo, va_hi);
        sample8(img, stride, bx, by, vb_lo, vb_hi);
        const int lo_bits =
            _mm256_movemask_pd(_mm256_cmp_pd(va_lo, vb_lo, _CMP_LT_OQ));
        const int hi_bits =
            _mm256_movemask_pd(_mm256_cmp_pd(va_hi, vb_hi, _CMP_LT_OQ));
        out[g] = static_cast<unsigned char>(lo_bits | (hi_bits << 4));
    }
}

} // namespace avx2
} // namespace edx

#endif // EDX_HAVE_AVX2
