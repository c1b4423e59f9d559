#include "image/filter.hpp"

#include <array>

#include "math/cpu_features.hpp"
#if defined(EDX_HAVE_AVX2)
#include "image/filter_avx2.hpp"
#endif

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace edx {

namespace {

constexpr int kR = kGaussianKernelSize / 2;

/** Fixed 7-tap Gaussian (sigma = 1.5), normalized to sum 1. */
std::array<float, kGaussianKernelSize>
gaussianKernel()
{
    std::array<float, kGaussianKernelSize> k{};
    const float sigma = 1.5f;
    float sum = 0.0f;
    for (int i = -kR; i <= kR; ++i) {
        float v = std::exp(-0.5f * i * i / (sigma * sigma));
        k[i + kR] = v;
        sum += v;
    }
    for (float &v : k)
        v /= sum;
    return k;
}

/**
 * The same kernel in 16.8 fixed point: weights scaled by 2^16 and
 * adjusted at the center tap so they sum to exactly 65536 (a constant
 * image stays constant).
 */
std::array<uint32_t, kGaussianKernelSize>
gaussianKernelFixed()
{
    const auto kf = gaussianKernel();
    std::array<uint32_t, kGaussianKernelSize> k{};
    uint32_t sum = 0;
    for (int i = 0; i < kGaussianKernelSize; ++i) {
        k[i] = static_cast<uint32_t>(std::lround(kf[i] * 65536.0));
        sum += k[i];
    }
    k[kR] += 65536 - sum;
    return k;
}

} // namespace

#if defined(__SSE2__)
/**
 * acc += k * v for 8 unsigned 16-bit lanes, widening into two 4-lane
 * 32-bit accumulators. All sums are exact integers, so the SIMD
 * evaluation is bit-identical to the scalar reference.
 */
inline void
maddU16(__m128i v, __m128i k, __m128i &acc_lo, __m128i &acc_hi)
{
    const __m128i lo16 = _mm_mullo_epi16(v, k);
    const __m128i hi16 = _mm_mulhi_epu16(v, k);
    acc_lo = _mm_add_epi32(acc_lo, _mm_unpacklo_epi16(lo16, hi16));
    acc_hi = _mm_add_epi32(acc_hi, _mm_unpackhi_epi16(lo16, hi16));
}
#endif

/**
 * Horizontal fixed-point pass for one row: tmp = (sum_i w_i * p_i +
 * 128) >> 8, clamped borders in separate edge loops, branch-free
 * interior with the 7 taps unrolled into registers (8 pixels per SSE2
 * step where available).
 */
void
blurRowFixed(const uint8_t *src, int w, const uint32_t *k, uint16_t *dst)
{
    auto clamped = [&](int x) {
        return src[x < 0 ? 0 : (x >= w ? w - 1 : x)];
    };
    const int lo = std::min(kR, w);
    const int hi = std::max(lo, w - kR);
    for (int x = 0; x < lo; ++x) {
        uint32_t acc = 128;
        for (int i = -kR; i <= kR; ++i)
            acc += k[i + kR] * clamped(x + i);
        dst[x] = static_cast<uint16_t>(acc >> 8);
    }
    int x = lo;
#if defined(EDX_HAVE_AVX2)
    // AVX2 tier: 16 pixels per step, bit-identical integer arithmetic.
    if (simdTierIsAvx2())
        x = avx2::blurRowFixed(src, x, hi, k, kGaussianKernelSize, dst);
#endif
#if defined(__SSE2__)
    {
        __m128i kv[kGaussianKernelSize];
        for (int i = 0; i < kGaussianKernelSize; ++i)
            kv[i] = _mm_set1_epi16(static_cast<short>(k[i]));
        const __m128i zero = _mm_setzero_si128();
        const __m128i round = _mm_set1_epi32(128);
        for (; x + 8 <= hi; x += 8) {
            __m128i acc_lo = round, acc_hi = round;
            for (int i = 0; i < kGaussianKernelSize; ++i) {
                const __m128i v8 = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(src + x + i -
                                                      kR));
                maddU16(_mm_unpacklo_epi8(v8, zero), kv[i], acc_lo,
                        acc_hi);
            }
            // (acc >> 8) fits 16 unsigned bits but can exceed the
            // signed-saturating pack's 32767, so bias around zero for
            // the pack and undo it afterwards (exact for [0, 65535]).
            const __m128i bias32 = _mm_set1_epi32(32768);
            const __m128i bias16 =
                _mm_set1_epi16(static_cast<short>(0x8000));
            const __m128i out = _mm_add_epi16(
                _mm_packs_epi32(
                    _mm_sub_epi32(_mm_srli_epi32(acc_lo, 8), bias32),
                    _mm_sub_epi32(_mm_srli_epi32(acc_hi, 8), bias32)),
                bias16);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + x), out);
        }
    }
#endif
    for (; x < hi; ++x) {
        const uint8_t *p = src + x - kR;
        uint32_t acc = 128;
        for (int i = 0; i < kGaussianKernelSize; ++i)
            acc += k[i] * p[i];
        dst[x] = static_cast<uint16_t>(acc >> 8);
    }
    for (x = hi; x < w; ++x) {
        uint32_t acc = 128;
        for (int i = -kR; i <= kR; ++i)
            acc += k[i + kR] * clamped(x + i);
        dst[x] = static_cast<uint16_t>(acc >> 8);
    }
}

bool
gaussianBlurInto(const ImageU8 &in, BlurScratch &scratch, ImageU8 &out)
{
    static const auto k = gaussianKernelFixed();
    const int w = in.width(), h = in.height();
    bool grew = scratch.tmp.resize(w, h);
    grew |= out.resize(w, h);
    if (w == 0 || h == 0)
        return grew;

    for (int y = 0; y < h; ++y)
        blurRowFixed(in.rowPtr(y), w, k.data(), scratch.tmp.rowPtr(y));

    // Vertical pass: every row reads 7 row pointers (the top/bottom
    // aprons clamp the row index), 8 pixels per SSE2 step.
    const ImageU16 &tmp = scratch.tmp;
    for (int y = 0; y < h; ++y) {
        const uint16_t *rows[kGaussianKernelSize];
        for (int i = -kR; i <= kR; ++i)
            rows[i + kR] = tmp.rowPtr(std::clamp(y + i, 0, h - 1));
        uint8_t *dst = out.rowPtr(y);
        int x = 0;
#if defined(EDX_HAVE_AVX2)
        if (simdTierIsAvx2())
            x = avx2::blurColFixed(rows, w, k.data(),
                                   kGaussianKernelSize, dst);
#endif
#if defined(__SSE2__)
        {
            __m128i kv[kGaussianKernelSize];
            for (int i = 0; i < kGaussianKernelSize; ++i)
                kv[i] = _mm_set1_epi16(static_cast<short>(k[i]));
            const __m128i round = _mm_set1_epi32(1 << 23);
            for (; x + 8 <= w; x += 8) {
                __m128i acc_lo = round, acc_hi = round;
                for (int i = 0; i < kGaussianKernelSize; ++i)
                    maddU16(_mm_loadu_si128(
                                reinterpret_cast<const __m128i *>(
                                    rows[i] + x)),
                            kv[i], acc_lo, acc_hi);
                const __m128i v16 = _mm_packs_epi32(
                    _mm_srli_epi32(acc_lo, 24),
                    _mm_srli_epi32(acc_hi, 24));
                _mm_storel_epi64(
                    reinterpret_cast<__m128i *>(dst + x),
                    _mm_packus_epi16(v16, v16));
            }
        }
#endif
        for (; x < w; ++x) {
            uint32_t acc = 1u << 23;
            for (int i = 0; i < kGaussianKernelSize; ++i)
                acc += k[i] * rows[i][x];
            dst[x] = static_cast<uint8_t>(acc >> 24);
        }
    }
    return grew;
}

ImageU8
gaussianBlur(const ImageU8 &in)
{
    BlurScratch scratch;
    ImageU8 out;
    gaussianBlurInto(in, scratch, out);
    return out;
}

ImageU8
gaussianBlurReference(const ImageU8 &in)
{
    static const auto k = gaussianKernelFixed();
    const int w = in.width(), h = in.height();
    ImageU16 tmp(w, h);
    ImageU8 out(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            uint32_t acc = 128;
            for (int i = -kR; i <= kR; ++i)
                acc += k[i + kR] * in.atClamped(x + i, y);
            tmp.at(x, y) = static_cast<uint16_t>(acc >> 8);
        }
    }
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            uint32_t acc = 1u << 23;
            for (int i = -kR; i <= kR; ++i)
                acc += k[i + kR] * tmp.atClamped(x, y + i);
            out.at(x, y) = static_cast<uint8_t>(acc >> 24);
        }
    }
    return out;
}

bool
centralDiffGradientsInto(const ImageU8 &in, Gradients &out)
{
    const int w = in.width(), h = in.height();
    bool grew = out.gx.resize(w, h);
    grew |= out.gy.resize(w, h);
    if (w == 0 || h == 0)
        return grew;

    auto edgePixel = [&](int x, int y) {
        out.gx.at(x, y) =
            0.5f * (in.atClamped(x + 1, y) - in.atClamped(x - 1, y));
        out.gy.at(x, y) =
            0.5f * (in.atClamped(x, y + 1) - in.atClamped(x, y - 1));
    };

    for (int x = 0; x < w; ++x) {
        edgePixel(x, 0);
        if (h > 1)
            edgePixel(x, h - 1);
    }
    for (int y = 1; y + 1 < h; ++y) {
        edgePixel(0, y);
        if (w > 1)
            edgePixel(w - 1, y);
        const uint8_t *pm = in.rowPtr(y - 1);
        const uint8_t *p0 = in.rowPtr(y);
        const uint8_t *pp = in.rowPtr(y + 1);
        float *gx = out.gx.rowPtr(y);
        float *gy = out.gy.rowPtr(y);
        for (int x = 1; x + 1 < w; ++x) {
            gx[x] = 0.5f * (p0[x + 1] - p0[x - 1]);
            gy[x] = 0.5f * (pp[x] - pm[x]);
        }
    }
    return grew;
}

Gradients
centralDiffGradients(const ImageU8 &in)
{
    Gradients g;
    centralDiffGradientsInto(in, g);
    return g;
}

Gradients
centralDiffGradientsReference(const ImageU8 &in)
{
    const int w = in.width(), h = in.height();
    Gradients g{ImageF(w, h), ImageF(w, h)};
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            g.gx.at(x, y) = 0.5f * (in.atClamped(x + 1, y) -
                                    in.atClamped(x - 1, y));
            g.gy.at(x, y) = 0.5f * (in.atClamped(x, y + 1) -
                                    in.atClamped(x, y - 1));
        }
    }
    return g;
}

} // namespace edx
