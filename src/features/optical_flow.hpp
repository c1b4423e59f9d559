/**
 * @file
 * Pyramidal Lucas-Kanade optical flow (Lucas & Kanade, 1981; Bouguet's
 * pyramidal formulation).
 *
 * This is the "Temporal Matching" block of the frontend (Fig. 12): the
 * derivatives-calculation (DC) task samples the spatial gradients and
 * builds the normal matrix, and the least-squares-solver (LSS) task
 * iterates the 2x2 solve per feature per pyramid level.
 *
 * Spatial gradients are central-difference images computed once per
 * pyramid level (image/filter.hpp) and sampled bilinearly per feature
 * window — mirroring the accelerator's DC stage, which streams
 * whole-image derivatives, and letting the frontend workspace cache
 * them across features, iterations and frames. trackLucasKanadeInto() is the
 * zero-alloc form over caller-cached gradients;
 * trackLucasKanadeReference() recomputes the gradients per call
 * through the scalar reference kernel (golden-tested bit-exact).
 *
 * On the AVX2 tier, with the default 7-px window radius, the window's
 * elementwise products (DC's bilinear intensity and gradients, LSS's
 * dI * ix, dI * iy and |dI|) come from an AVX2 twin
 * (features/optical_flow_avx2.hpp) and the six window sums stay scalar
 * in index order, so every tier tracks bit-identically. The reference
 * runs the scalar windows on every tier.
 */
#pragma once

#include <vector>

#include "features/keypoint.hpp"
#include "image/filter.hpp"
#include "image/pyramid.hpp"

namespace edx {

/** LK tracker configuration. */
struct FlowConfig
{
    int window_radius = 7;     //!< integration window half-size
    int pyramid_levels = 3;
    int max_iterations = 12;
    double epsilon = 0.03;     //!< convergence threshold on the update
    double max_residual = 18.0; //!< mean photometric residual gate
    double min_eigenvalue = 1e-3; //!< conditioning gate on G
};

/** Reusable per-window buffers of the LK tracker. */
struct FlowScratch
{
    std::vector<double> iv; //!< template window intensities
    std::vector<double> ix; //!< template window x-gradients
    std::vector<double> iy; //!< template window y-gradients
    // One iteration's per-sample terms, written by the AVX2 tier and
    // summed in index order: dI * ix, dI * iy and |dI|.
    std::vector<double> dix;
    std::vector<double> diy;
    std::vector<double> adi;

    size_t
    capacityBytes() const
    {
        return (iv.capacity() + ix.capacity() + iy.capacity() +
                dix.capacity() + diy.capacity() + adi.capacity()) *
               sizeof(double);
    }
};

/**
 * Tracks @p prev_pts from the previous frame into the current frame
 * over caller-cached per-level gradients of @p prev.
 *
 * @param prev pyramid of the previous frame
 * @param prev_grads one Gradients per level of @p prev (at least as
 *        many as the levels tracked)
 * @param next pyramid of the current frame
 * @param prev_pts feature locations in the previous frame
 * @param cfg tracker configuration
 * @param scratch reusable window buffers
 * @param out one TemporalMatch per successfully tracked input point,
 *        with prev_index referring to @p prev_pts
 */
void trackLucasKanadeInto(const Pyramid &prev,
                          const std::vector<Gradients> &prev_grads,
                          const Pyramid &next,
                          const std::vector<KeyPoint> &prev_pts,
                          const FlowConfig &cfg, FlowScratch &scratch,
                          std::vector<TemporalMatch> &out);

/**
 * Tracks prev_pts[@p begin, @p end) only, one result slot per point:
 * slots[i] is point i's match, or a default TemporalMatch
 * (prev_index -1) when it is lost. Writes nothing else, so disjoint
 * ranges may run concurrently, each with its own @p scratch. @p slots
 * must already hold prev_pts.size() entries; dropLostTracks() then
 * turns them into trackLucasKanadeInto's output, which is this over
 * the whole list.
 */
void trackLucasKanadeRange(const Pyramid &prev,
                           const std::vector<Gradients> &prev_grads,
                           const Pyramid &next,
                           const std::vector<KeyPoint> &prev_pts,
                           int begin, int end, const FlowConfig &cfg,
                           FlowScratch &scratch,
                           std::vector<TemporalMatch> &slots);

/** Removes the lost slots (prev_index < 0) in place, keeping order. */
void dropLostTracks(std::vector<TemporalMatch> &slots);

/** Allocating convenience form: computes the gradients internally. */
std::vector<TemporalMatch> trackLucasKanade(
    const Pyramid &prev, const Pyramid &next,
    const std::vector<KeyPoint> &prev_pts, const FlowConfig &cfg = {});

/** Scalar reference: per-call gradients via the reference kernel. */
std::vector<TemporalMatch> trackLucasKanadeReference(
    const Pyramid &prev, const Pyramid &next,
    const std::vector<KeyPoint> &prev_pts, const FlowConfig &cfg = {});

} // namespace edx
