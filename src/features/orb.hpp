/**
 * @file
 * ORB descriptors: oriented FAST + rotated BRIEF (Rublee et al., 2011).
 *
 * This is the "Feature Descriptor Calculation (FC)" task of the frontend
 * pipeline. Each key point gets an intensity-centroid orientation and a
 * 256-bit binary descriptor sampled from a fixed pseudo-random pattern
 * rotated to that orientation. Descriptors feed stereo matching and the
 * bag-of-words tracking backend.
 *
 * computeOrbDescriptorsInto() is the workspace form with a raw-pointer
 * interior fast path (row-pointer moment accumulation over precomputed
 * circle extents; unclamped bilinear taps for points far enough from
 * the border). Each key point's descriptor and angle depend on that
 * point and the image alone, which lets the frontend split the list
 * into chunks (computeOrbDescriptorsRange) across lanes.
 * computeOrbDescriptorsReference() retains the scalar clamped-sampling
 * formulation; the two are bit-exact (golden-tested). On the AVX2 tier
 * the interior points' 256 comparisons run 8 at a time in an AVX2 twin
 * (features/orb_avx2.hpp) that keeps the scalar expression order per
 * element, so descriptors are bit-identical on every tier; the
 * reference never dispatches.
 */
#pragma once

#include <vector>

#include "features/keypoint.hpp"
#include "image/image.hpp"

namespace edx {

/** Half-size of the square patch the descriptor samples from. */
inline constexpr int kOrbPatchRadius = 15;

/**
 * Computes the intensity-centroid orientation of a patch around
 * (@p x, @p y); the point must be at least kOrbPatchRadius from the
 * image border.
 */
float orbOrientation(const ImageU8 &img, float x, float y);

/**
 * Computes ORB descriptors for @p kps on @p img (typically the Gaussian-
 * filtered image, as in the reference implementation). Orientations are
 * written back into the key points. Points too close to the border get
 * a zero descriptor.
 */
std::vector<Descriptor> computeOrbDescriptors(const ImageU8 &img,
                                              std::vector<KeyPoint> &kps);

/** computeOrbDescriptors into a caller-owned output (zero-alloc form). */
void computeOrbDescriptorsInto(const ImageU8 &img,
                               std::vector<KeyPoint> &kps,
                               std::vector<Descriptor> &out);

/**
 * computeOrbDescriptorsInto over the key points [@p begin, @p end)
 * only: writes out[i] and kps[i].angle for each i in the range and
 * nothing else, so disjoint ranges may run concurrently. @p out must
 * already hold kps.size() entries.
 */
void computeOrbDescriptorsRange(const ImageU8 &img,
                                std::vector<KeyPoint> &kps, size_t begin,
                                size_t end, std::vector<Descriptor> &out);

/** Scalar clamped-sampling reference (golden tests). */
std::vector<Descriptor> computeOrbDescriptorsReference(
    const ImageU8 &img, std::vector<KeyPoint> &kps);

/** Scalar reference of orbOrientation (golden tests). */
float orbOrientationReference(const ImageU8 &img, float x, float y);

} // namespace edx
