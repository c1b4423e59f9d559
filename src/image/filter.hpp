/**
 * @file
 * Image filtering: separable Gaussian blur and central-difference
 * gradients.
 *
 * These are the "Image Filtering (IF)" and "Derivatives Calculation (DC)"
 * tasks of the frontend accelerator pipeline (Fig. 12). The stencil sizes
 * used here (Gaussian 7x1 separable, 3x3 derivative) are the sizes the
 * stencil-buffer model in src/hw sizes its line buffers for.
 *
 * Every hot kernel comes in two forms:
 *
 *  - an optimized implementation (branch-free interior fast path with
 *    raw row pointers, clamped borders handled by separate edge loops,
 *    and caller-owned destination buffers for the zero-alloc frontend
 *    workspace), and
 *  - a retained scalar reference implementation (`*Reference`), the
 *    straightforward per-pixel formulation. The golden-output
 *    equivalence tests in tests/test_kernels.cpp assert the two are
 *    bit-exact, so the fast paths can never silently drift. Only
 *    tests, benches and other twins call a twin.
 *
 * The 8-bit Gaussian runs in 16.8 fixed point (weights scaled by 2^16,
 * horizontal intermediate kept at 8 fractional bits) so the interior
 * loops are pure integer multiply-accumulates the compiler vectorizes.
 */
#pragma once

#include "image/image.hpp"

namespace edx {

/** Width of the separable Gaussian kernel used by the frontend (odd). */
inline constexpr int kGaussianKernelSize = 7;

/** Reusable intermediate buffer of the separable 8-bit Gaussian. */
struct BlurScratch
{
    ImageU16 tmp; //!< horizontal pass, 8 fractional bits
};

/**
 * Separable Gaussian blur with the frontend's fixed 7-tap kernel
 * (sigma = 1.5) in 16.8 fixed point. Edges are handled by clamping.
 */
ImageU8 gaussianBlur(const ImageU8 &in);

/**
 * gaussianBlur into a caller-owned destination and scratch buffer
 * (zero-alloc steady state). @return true when a buffer had to grow.
 */
bool gaussianBlurInto(const ImageU8 &in, BlurScratch &scratch,
                      ImageU8 &out);

/** Scalar reference of the fixed-point Gaussian (golden tests). */
ImageU8 gaussianBlurReference(const ImageU8 &in);

/** Horizontal and vertical image gradients. */
struct Gradients
{
    ImageF gx;
    ImageF gy;
};

/**
 * Plain central-difference gradients (gx = (I(x+1) - I(x-1)) / 2, same
 * for y, clamped at the borders), for Lucas-Kanade temporal matching.
 * The frontend caches one Gradients per pyramid level in its workspace,
 * so the LK tracker reuses them across features and iterations.
 * Bilinearly interpolating this image is mathematically identical to
 * central-differencing a bilinearly shifted patch (the classical
 * Bouguet formulation), so caching it per pyramid level changes where
 * the work happens, not the flow field.
 * @return true when a buffer had to grow.
 */
bool centralDiffGradientsInto(const ImageU8 &in, Gradients &out);

/** Allocating convenience form of centralDiffGradientsInto. */
Gradients centralDiffGradients(const ImageU8 &in);

/** Scalar reference of the central-difference gradients. */
Gradients centralDiffGradientsReference(const ImageU8 &in);

} // namespace edx
