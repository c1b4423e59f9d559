/**
 * @file
 * Declarations of the AVX2 rotated-BRIEF tier (features/orb_avx2.cpp,
 * compiled with -mavx2 -mfma -ffp-contract=off). The 256 comparisons
 * of an interior key point run 8 at a time, with every element
 * evaluated in the scalar expression order of orb.cpp: the pattern is
 * rotated in float, each tap's four pixels come from two 4-byte row
 * gathers, the bilinear value is sampleBilinearFast's double
 * expression, and the comparison is the same `<`. Descriptors are
 * therefore bit-identical to the SSE2 tier and to the clamped
 * reference. Orientation and border points stay scalar in orb.cpp.
 * Raw-pointer interfaces only (see simd_avx2.hpp for why).
 */
#pragma once

#if defined(EDX_HAVE_AVX2)

namespace edx {
namespace avx2 {

/**
 * The 256 BRIEF bits of one key point at (@p kx, @p ky) rotated by
 * (@p ca, @p sa) = (cos, sin) of its angle.
 *
 * @param img the image's first pixel; rows are @p stride bytes apart
 * @param pattern the pattern as four 256-float arrays back to back:
 *        ax, ay, bx, by
 * @param out 32 bytes; byte g holds bits 8g .. 8g + 7 (the little-endian
 *        layout of the descriptor's four 64-bit words)
 *
 * The key point must pass orb.cpp's kOrbFastBorder test, which keeps
 * every rotated tap at least 1 px inside the image. A tap's gathers
 * read bytes x0 - 2 .. x0 + 1 of rows y0 and y0 + 1: nothing past the
 * last byte the scalar sampler reads, and, with x0 and y0 at least 1,
 * nothing before the first pixel.
 */
void briefDescriptor(const unsigned char *img, int stride, float kx,
                     float ky, float ca, float sa, const float *pattern,
                     unsigned char *out);

} // namespace avx2
} // namespace edx

#endif // EDX_HAVE_AVX2
