#include "math/blas.hpp"

#include <algorithm>
#include <cstring>

#include "math/aligned_alloc.hpp"
#include "math/simd_util.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace edx {

using detail::axpyRow;
using detail::dotRows;

namespace {

// k-panel height of the blocked GEMM: the active B panel (KC x n
// doubles) stays L2-resident across the full sweep of A's rows for the
// MSCKF-realistic n (state dims up to ~200).
constexpr int kGemmKc = 64;

} // namespace

void
gemmInto(const MatX &a, const MatX &b, MatX &c)
{
    assert(a.cols() == b.rows());
    const int m = a.rows(), kk = a.cols(), n = b.cols();
    c.resize(m, n);
    if (m == 0 || n == 0 || kk == 0)
        return;

#if defined(EDX_HAVE_AVX2)
    // Packed-panel sweep: the active B panel and the current C row
    // live in 32-byte-aligned scratch, removing the cache-line splits
    // an n-double row stride forces on 256-bit loads. Same k order and
    // per-element accumulation — bit-exact with the sweep below (see
    // simd_avx2.hpp), so the size gate changes no value: packing a
    // panel only pays when it is reused across enough rows of A, and
    // the SLAM BA path's small blocks would eat the setup cost. The
    // scratch is thread_local so it warms once and backend steady
    // state stays zero-alloc.
    if (simdTierIsAvx2() && m >= 8 && n >= 16) {
        static thread_local AlignedVector<double> pack;
        const int np = (n + 3) & ~3;
        pack.resize(
            (static_cast<size_t>(std::min(kGemmKc, kk)) + 1) * np);
        avx2::gemmPacked(a.data(), b.data(), c.data(), m, n, kk,
                         kGemmKc, pack.data());
        return;
    }
#endif
    for (int k0 = 0; k0 < kk; k0 += kGemmKc) {
        const int k1 = std::min(k0 + kGemmKc, kk);
        for (int i = 0; i < m; ++i) {
            const double *ai = a.data() + static_cast<size_t>(i) * kk;
            double *ci = c.data() + static_cast<size_t>(i) * n;
            int k = k0;
            // Register tile: four A scalars held live against a
            // vectorized sweep of the output row. The four adds stay
            // sequential per element, so every c(i, j) sees the exact
            // k-ordered accumulation of the scalar reference — at any
            // vector width, which is why the AVX2 tier below is
            // bit-exact with this SSE2 sweep and the scalar tail.
            for (; k + 4 <= k1; k += 4) {
                const double a0 = ai[k], a1 = ai[k + 1];
                const double a2 = ai[k + 2], a3 = ai[k + 3];
                const double *b0 =
                    b.data() + static_cast<size_t>(k) * n;
                const double *b1 = b0 + n;
                const double *b2 = b1 + n;
                const double *b3 = b2 + n;
#if defined(__SSE2__)
                const __m128d va0 = _mm_set1_pd(a0);
                const __m128d va1 = _mm_set1_pd(a1);
                const __m128d va2 = _mm_set1_pd(a2);
                const __m128d va3 = _mm_set1_pd(a3);
                int j = 0;
                for (; j + 2 <= n; j += 2) {
                    __m128d v = _mm_loadu_pd(ci + j);
                    v = _mm_add_pd(
                        v, _mm_mul_pd(va0, _mm_loadu_pd(b0 + j)));
                    v = _mm_add_pd(
                        v, _mm_mul_pd(va1, _mm_loadu_pd(b1 + j)));
                    v = _mm_add_pd(
                        v, _mm_mul_pd(va2, _mm_loadu_pd(b2 + j)));
                    v = _mm_add_pd(
                        v, _mm_mul_pd(va3, _mm_loadu_pd(b3 + j)));
                    _mm_storeu_pd(ci + j, v);
                }
#else
                int j = 0;
#endif
                for (; j < n; ++j) {
                    double v = ci[j];
                    v += a0 * b0[j];
                    v += a1 * b1[j];
                    v += a2 * b2[j];
                    v += a3 * b3[j];
                    ci[j] = v;
                }
            }
            for (; k < k1; ++k)
                axpyRow(ai[k], b.data() + static_cast<size_t>(k) * n,
                        ci, n);
        }
    }
}

void
gemmReference(const MatX &a, const MatX &b, MatX &c)
{
    assert(a.cols() == b.rows());
    const int m = a.rows(), kk = a.cols(), n = b.cols();
    c.resize(m, n);
    // The pre-overhaul i-k-j product, zero-skip included.
    for (int i = 0; i < m; ++i) {
        double *out = c.data() + static_cast<size_t>(i) * n;
        const double *ai = a.data() + static_cast<size_t>(i) * kk;
        for (int k = 0; k < kk; ++k) {
            double av = ai[k];
            if (av == 0.0)
                continue;
            const double *bk = b.data() + static_cast<size_t>(k) * n;
            for (int j = 0; j < n; ++j)
                out[j] += av * bk[j];
        }
    }
}

void
gemvInto(const MatX &a, const VecX &x, VecX &y)
{
    assert(a.cols() == x.size());
    const int m = a.rows(), n = a.cols();
    y.resize(m);
    for (int i = 0; i < m; ++i) {
        const double *ai = a.data() + static_cast<size_t>(i) * n;
        // Sequential sum, in index order.
        double s = 0.0;
        for (int j = 0; j < n; ++j)
            s += ai[j] * x[j];
        y[i] = s;
    }
}

void
multiplyTransposedInto(const MatX &a, const MatX &b, MatX &c)
{
    assert(a.cols() == b.cols());
    const int m = a.rows(), n = b.rows(), kk = a.cols();
    c.resize(m, n);
#if defined(EDX_HAVE_AVX2)
    if (simdTierIsAvx2()) {
        // Same 2x2-tile structure at AVX2 width; its tile/tail
        // agreement for kk <= 7 covers the kk == 4 projection-kernel
        // contract below (see simd_avx2.hpp).
        avx2::multiplyTransposed(a.data(), b.data(), c.data(), m, n,
                                 kk);
        return;
    }
#endif
    int i = 0;
    // 2x2 register tile: each pair of A rows is streamed once against
    // each pair of B rows, halving the traffic of the naive row-dot.
    for (; i + 2 <= m; i += 2) {
        const double *a0 = a.data() + static_cast<size_t>(i) * kk;
        const double *a1 = a0 + kk;
        double *c0 = c.data() + static_cast<size_t>(i) * n;
        double *c1 = c0 + n;
        int j = 0;
        for (; j + 2 <= n; j += 2) {
            const double *b0 = b.data() + static_cast<size_t>(j) * kk;
            const double *b1 = b0 + kk;
#if defined(__SSE2__)
            __m128d s00 = _mm_setzero_pd(), s01 = _mm_setzero_pd();
            __m128d s10 = _mm_setzero_pd(), s11 = _mm_setzero_pd();
            int k = 0;
            for (; k + 2 <= kk; k += 2) {
                const __m128d va0 = _mm_loadu_pd(a0 + k);
                const __m128d va1 = _mm_loadu_pd(a1 + k);
                const __m128d vb0 = _mm_loadu_pd(b0 + k);
                const __m128d vb1 = _mm_loadu_pd(b1 + k);
                s00 = _mm_add_pd(s00, _mm_mul_pd(va0, vb0));
                s01 = _mm_add_pd(s01, _mm_mul_pd(va0, vb1));
                s10 = _mm_add_pd(s10, _mm_mul_pd(va1, vb0));
                s11 = _mm_add_pd(s11, _mm_mul_pd(va1, vb1));
            }
            double l00[2], l01[2], l10[2], l11[2];
            _mm_storeu_pd(l00, s00);
            _mm_storeu_pd(l01, s01);
            _mm_storeu_pd(l10, s10);
            _mm_storeu_pd(l11, s11);
            double d00 = l00[0] + l00[1], d01 = l01[0] + l01[1];
            double d10 = l10[0] + l10[1], d11 = l11[0] + l11[1];
            for (; k < kk; ++k) {
                d00 += a0[k] * b0[k];
                d01 += a0[k] * b1[k];
                d10 += a1[k] * b0[k];
                d11 += a1[k] * b1[k];
            }
#else
            // Reduce exactly like dotRows so a value never depends on
            // which loop (tile vs tail) computed it. NOTE: on the SSE2
            // path above this tile/tail agreement holds only for
            // kk <= 6 (the stride-2 tile and stride-4 dotRows
            // reductions coincide there) — enough for the projection
            // kernel's kk == 4, which is the one contract that demands
            // it (batched-vs-direct bit-identity, test-enforced).
            double d00 = dotRows(a0, b0, kk);
            double d01 = dotRows(a0, b1, kk);
            double d10 = dotRows(a1, b0, kk);
            double d11 = dotRows(a1, b1, kk);
#endif
            c0[j] = d00;
            c0[j + 1] = d01;
            c1[j] = d10;
            c1[j + 1] = d11;
        }
        for (; j < n; ++j) {
            const double *bj = b.data() + static_cast<size_t>(j) * kk;
            c0[j] = dotRows(a0, bj, kk);
            c1[j] = dotRows(a1, bj, kk);
        }
    }
    for (; i < m; ++i) {
        const double *ai = a.data() + static_cast<size_t>(i) * kk;
        double *ci = c.data() + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j)
            ci[j] = dotRows(
                ai, b.data() + static_cast<size_t>(j) * kk, kk);
    }
}

void
multiplyTransposedReference(const MatX &a, const MatX &b, MatX &c)
{
    assert(a.cols() == b.cols());
    const int m = a.rows(), n = b.rows(), kk = a.cols();
    c.resize(m, n);
    for (int i = 0; i < m; ++i) {
        const double *ai = a.data() + static_cast<size_t>(i) * kk;
        for (int j = 0; j < n; ++j) {
            const double *bj = b.data() + static_cast<size_t>(j) * kk;
            double s = 0.0;
            for (int k = 0; k < kk; ++k)
                s += ai[k] * bj[k];
            c(i, j) = s;
        }
    }
}

void
symmetricSandwichInto(const MatX &h, const MatX &p, MatX &hp, MatX &s)
{
    assert(p.rows() == p.cols() && h.cols() == p.rows());
    const int r = h.rows(), d = h.cols();
    gemmInto(h, p, hp); // r x d, reused by the caller as the solve RHS
    s.resize(r, r);
#if defined(EDX_HAVE_AVX2)
    // Aligned re-stride of both dot operands — same cache-line-split
    // rationale (and row-reuse size gate) as the packed GEMM sweep,
    // and numerically a no-op: dotRows sees the same values at the
    // same length, so every S entry is identical to the unpacked
    // loop's.
    if (simdTierIsAvx2() && r >= 16 && d >= 16) {
        static thread_local AlignedVector<double> packed;
        const int np = (d + 3) & ~3;
        packed.resize(2 * static_cast<size_t>(r) * np);
        double *hp_a = packed.data();
        double *h_a = hp_a + static_cast<size_t>(r) * np;
        for (int i = 0; i < r; ++i) {
            std::memcpy(hp_a + static_cast<size_t>(i) * np,
                        hp.data() + static_cast<size_t>(i) * d,
                        sizeof(double) * static_cast<size_t>(d));
            std::memcpy(h_a + static_cast<size_t>(i) * np,
                        h.data() + static_cast<size_t>(i) * d,
                        sizeof(double) * static_cast<size_t>(d));
        }
        for (int i = 0; i < r; ++i) {
            const double *hpi = hp_a + static_cast<size_t>(i) * np;
            double *si = s.data() + static_cast<size_t>(i) * r;
            for (int j = 0; j <= i; ++j)
                si[j] = avx2::dotRows(
                    hpi, h_a + static_cast<size_t>(j) * np, d);
        }
        s.mirrorLowerToUpper();
        return;
    }
#endif
    for (int i = 0; i < r; ++i) {
        const double *hpi = hp.data() + static_cast<size_t>(i) * d;
        double *si = s.data() + static_cast<size_t>(i) * r;
        for (int j = 0; j <= i; ++j)
            si[j] = dotRows(
                hpi, h.data() + static_cast<size_t>(j) * d, d);
    }
    s.mirrorLowerToUpper();
}

void
symmetricSandwichReference(const MatX &h, const MatX &p, MatX &hp,
                           MatX &s)
{
    gemmReference(h, p, hp);
    multiplyTransposedReference(hp, h, s);
}

void
symmetricDowndateInto(const MatX &a, const MatX &b, MatX &c)
{
    assert(a.rows() == b.rows() && a.cols() == b.cols());
    assert(c.rows() == a.cols() && c.cols() == a.cols());
    const int m = a.rows(), n = a.cols();
    // Rank-1 outer-product accumulation over the rows of A/B into the
    // lower triangle: row i of C is touched contiguously on [0, i].
    for (int k = 0; k < m; ++k) {
        const double *ak = a.data() + static_cast<size_t>(k) * n;
        const double *bk = b.data() + static_cast<size_t>(k) * n;
        for (int i = 0; i < n; ++i) {
            const double av = ak[i];
            if (av == 0.0)
                continue;
            double *ci = c.data() + static_cast<size_t>(i) * n;
            axpyRow(-av, bk, ci, i + 1);
        }
    }
    c.mirrorLowerToUpper();
}

void
symmetricDowndateReference(const MatX &a, const MatX &b, MatX &c)
{
    assert(a.rows() == b.rows() && a.cols() == b.cols());
    assert(c.rows() == a.cols() && c.cols() == a.cols());
    const int m = a.rows(), n = a.cols();
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
            double s = 0.0;
            for (int k = 0; k < m; ++k)
                s += a(k, i) * b(k, j);
            c(i, j) -= s;
        }
}

void
syrkInto(const MatX &a, MatX &s)
{
    const int m = a.rows(), kk = a.cols();
    s.resize(m, m);
    for (int i = 0; i < m; ++i) {
        const double *ai = a.data() + static_cast<size_t>(i) * kk;
        double *si = s.data() + static_cast<size_t>(i) * m;
        for (int j = 0; j <= i; ++j)
            si[j] = dotRows(
                ai, a.data() + static_cast<size_t>(j) * kk, kk);
    }
    s.mirrorLowerToUpper();
}

} // namespace edx
