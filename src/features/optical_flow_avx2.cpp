/**
 * @file
 * AVX2 tier of the Lucas-Kanade window sampling: the elementwise DC
 * and LSS products of a 15 x 15 window, 4 samples per step, each in
 * the scalar expression order of optical_flow.cpp, so every product is
 * bit-identical to the SSE2 tier. The sums stay in optical_flow.cpp.
 *
 * Only <immintrin.h> here — see simd_avx2.cpp for the ODR rationale.
 */
#if defined(EDX_HAVE_AVX2)

#include <immintrin.h>

#include "features/optical_flow_avx2.hpp"

namespace edx {
namespace avx2 {

namespace {

constexpr int kSide = 2 * kLkWideRadius + 1;

inline __m128i
load16(const unsigned char *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** The 16 bytes of @p v as four 4-lane doubles. */
inline void
bytesToDoubles(__m128i v, __m256d out[4])
{
    const __m256i lo = _mm256_cvtepu8_epi32(v);
    const __m256i hi = _mm256_cvtepu8_epi32(_mm_unpackhi_epi64(v, v));
    out[0] = _mm256_cvtepi32_pd(_mm256_castsi256_si128(lo));
    out[1] = _mm256_cvtepi32_pd(_mm256_extracti128_si256(lo, 1));
    out[2] = _mm256_cvtepi32_pd(_mm256_castsi256_si128(hi));
    out[3] = _mm256_cvtepi32_pd(_mm256_extracti128_si256(hi, 1));
}

/** Floats p[0..3] widened to double. */
inline __m256d
floats(const float *p)
{
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/** w00 * a + w10 * b + w01 * c + w11 * d, left to right. */
inline __m256d
weigh(__m256d w00, __m256d w10, __m256d w01, __m256d w11, __m256d a,
      __m256d b, __m256d c, __m256d d)
{
    __m256d s = _mm256_mul_pd(w00, a);
    s = _mm256_add_pd(s, _mm256_mul_pd(w10, b));
    s = _mm256_add_pd(s, _mm256_mul_pd(w01, c));
    return _mm256_add_pd(s, _mm256_mul_pd(w11, d));
}

/** Samples c .. c + 3 of a row; the last step holds 12, 13 and 14. */
inline __m256d
loadStep(const double *row, int c)
{
    if (c + 4 <= kSide)
        return _mm256_loadu_pd(row + c);
    return _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(row + c)),
        _mm_load_sd(row + c + 2), 1);
}

inline void
storeStep(double *row, int c, __m256d v)
{
    if (c + 4 <= kSide) {
        _mm256_storeu_pd(row + c, v);
        return;
    }
    _mm_storeu_pd(row + c, _mm256_castpd256_pd128(v));
    _mm_store_sd(row + c + 2, _mm256_extractf128_pd(v, 1));
}

} // namespace

void
lkTemplateWindow(const unsigned char *img, const float *gx, const float *gy,
                 int stride, double w00, double w10, double w01, double w11,
                 double *iv, double *ix, double *iy)
{
    const __m256d vw00 = _mm256_set1_pd(w00), vw10 = _mm256_set1_pd(w10);
    const __m256d vw01 = _mm256_set1_pd(w01), vw11 = _mm256_set1_pd(w11);
    for (int dy = 0; dy < kSide; ++dy) {
        const long o0 = static_cast<long>(dy) * stride;
        const long o1 = o0 + stride;
        __m256d a0[4], b0[4], a1[4], b1[4];
        bytesToDoubles(load16(img + o0), a0);
        bytesToDoubles(load16(img + o0 + 1), b0);
        bytesToDoubles(load16(img + o1), a1);
        bytesToDoubles(load16(img + o1 + 1), b1);
        const int row = dy * kSide;
        for (int k = 0; k < 4; ++k) {
            const int c = 4 * k;
            storeStep(iv + row, c,
                      weigh(vw00, vw10, vw01, vw11, a0[k], b0[k], a1[k],
                            b1[k]));
            storeStep(ix + row, c,
                      weigh(vw00, vw10, vw01, vw11, floats(gx + o0 + c),
                            floats(gx + o0 + c + 1), floats(gx + o1 + c),
                            floats(gx + o1 + c + 1)));
            storeStep(iy + row, c,
                      weigh(vw00, vw10, vw01, vw11, floats(gy + o0 + c),
                            floats(gy + o0 + c + 1), floats(gy + o1 + c),
                            floats(gy + o1 + c + 1)));
        }
    }
}

void
lkIterationTerms(const unsigned char *img, int stride, double q00,
                 double q10, double q01, double q11, const double *iv,
                 const double *ix, const double *iy, double *dix,
                 double *diy, double *adi)
{
    const __m256d vq00 = _mm256_set1_pd(q00), vq10 = _mm256_set1_pd(q10);
    const __m256d vq01 = _mm256_set1_pd(q01), vq11 = _mm256_set1_pd(q11);
    const __m256d sign = _mm256_set1_pd(-0.0);
    for (int dy = 0; dy < kSide; ++dy) {
        const unsigned char *r0 = img + static_cast<long>(dy) * stride;
        const unsigned char *r1 = r0 + stride;
        __m256d a0[4], b0[4], a1[4], b1[4];
        bytesToDoubles(load16(r0), a0);
        bytesToDoubles(load16(r0 + 1), b0);
        bytesToDoubles(load16(r1), a1);
        bytesToDoubles(load16(r1 + 1), b1);
        const int row = dy * kSide;
        for (int k = 0; k < 4; ++k) {
            const int c = 4 * k;
            const __m256d sample =
                weigh(vq00, vq10, vq01, vq11, a0[k], b0[k], a1[k], b1[k]);
            const __m256d d = _mm256_sub_pd(sample, loadStep(iv + row, c));
            storeStep(dix + row, c,
                      _mm256_mul_pd(d, loadStep(ix + row, c)));
            storeStep(diy + row, c,
                      _mm256_mul_pd(d, loadStep(iy + row, c)));
            storeStep(adi + row, c, _mm256_andnot_pd(sign, d));
        }
    }
}

} // namespace avx2
} // namespace edx

#endif // EDX_HAVE_AVX2
