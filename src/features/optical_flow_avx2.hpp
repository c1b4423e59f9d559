/**
 * @file
 * Declarations of the AVX2 Lucas-Kanade tier
 * (features/optical_flow_avx2.cpp, compiled with -mavx2 -mfma
 * -ffp-contract=off). Only the elementwise work of a 15 x 15 window
 * moves here, 4 samples per step, each in the scalar expression order
 * of optical_flow.cpp: the template window's bilinear intensity and
 * gradients (DC) and each iteration's dI * ix, dI * iy and |dI| (LSS).
 * The order-sensitive sums (the three G entries and the three
 * iteration sums) stay scalar in optical_flow.cpp, in index order, so
 * tracks are bit-identical to the SSE2 tier.
 * Raw-pointer interfaces only (see simd_avx2.hpp for why).
 */
#pragma once

#if defined(EDX_HAVE_AVX2)

namespace edx {
namespace avx2 {

/** The window radius the twins serve: rows of 2 * 7 + 1 = 15 samples. */
inline constexpr int kLkWideRadius = 7;

/**
 * DC: the template window's 225 samples, row-major: @p iv from the
 * image, @p ix / @p iy from the gradient images, all with the shared
 * bilinear weights @p w00 .. @p w11.
 *
 * @param img, gx, gy the window's top-left sample (x0, y0) in each
 *        image; the three images have rows @p stride elements apart
 *
 * A row's last 4-wide step also computes sample 15, which reads column
 * x0 + 16 of rows y0 + dy and y0 + dy + 1, and discards it. The
 * caller's containsWithBorder(r + 2) test keeps that column inside the
 * image.
 */
void lkTemplateWindow(const unsigned char *img, const float *gx,
                      const float *gy, int stride, double w00, double w10,
                      double w01, double w11, double *iv, double *ix,
                      double *iy);

/**
 * LSS: one iteration's per-sample terms over the 225 window samples.
 * With dI = the bilinear sample of the image at @p img (the window's
 * top-left, weights @p q00 .. @p q11) minus iv[i], writes
 * dix[i] = dI * ix[i], diy[i] = dI * iy[i] and adi[i] = |dI|. Reads
 * column x0 + 16 as lkTemplateWindow does.
 */
void lkIterationTerms(const unsigned char *img, int stride, double q00,
                      double q10, double q01, double q11, const double *iv,
                      const double *ix, const double *iy, double *dix,
                      double *diy, double *adi);

} // namespace avx2
} // namespace edx

#endif // EDX_HAVE_AVX2
