/**
 * @file
 * The per-frame frontend workspace: every buffer the vision frontend
 * touches on its hot path, owned in one place and reused frame to
 * frame so steady-state frames perform zero heap allocations.
 *
 * Ownership model:
 *  - VisionFrontend owns one FrameWorkspace for the lifetime of the
 *    session; processFrame() only ever writes into it.
 *  - Per-eye state (EyeWorkspace) is disjoint between left and right,
 *    so the FE lanes can fill them concurrently without
 *    synchronization; ORB chunks write disjoint descriptor slots.
 *  - LK keeps one FlowScratch per lane, and each lane writes only its
 *    chunk's slots of the output track list, so the TM lanes share no
 *    mutable buffer.
 *  - Temporal state is double-buffered: the current frame's pyramid
 *    and per-level gradient images are built into `cur_*` and swapped
 *    with `prev_*` at frame end (pointer swaps, never copies).
 *
 * Allocation accounting: capacityBytes() folds the capacity of every
 * buffer into one number. VisionFrontend snapshots it around each
 * frame and counts frames that grew anything (allocationEvents());
 * the zero-alloc tests assert the counter stops moving once warm.
 */
#pragma once

#include <vector>

#include "features/fast.hpp"
#include "features/keypoint.hpp"
#include "features/optical_flow.hpp"
#include "features/stereo.hpp"
#include "image/filter.hpp"
#include "image/pyramid.hpp"

namespace edx {

/** Per-eye buffers of the feature-extraction block (FD + IF + FC). */
struct EyeWorkspace
{
    FastScratch fast;                  //!< FD score map / candidates
    std::vector<KeyPoint> keypoints;   //!< FD output
    BlurScratch blur;                  //!< IF horizontal-pass buffer
    ImageU8 blurred;                   //!< IF output
    std::vector<Descriptor> descriptors; //!< FC output

    size_t
    capacityBytes() const
    {
        return fast.capacityBytes() +
               keypoints.capacity() * sizeof(KeyPoint) +
               blur.tmp.capacity() * sizeof(uint16_t) +
               blurred.capacity() +
               descriptors.capacity() * sizeof(Descriptor);
    }
};

/** All reusable buffers of one frontend session. */
struct FrameWorkspace
{
    EyeWorkspace left, right;

    // Stereo-matching block (MO + DR).
    StereoRowIndex stereo_rows;
    std::vector<StereoMatch> stereo;
    std::vector<double> dr_costs;

    // Temporal-matching block: double-buffered pyramid + gradients.
    Pyramid cur_pyramid, prev_pyramid;
    std::vector<Gradients> cur_gradients, prev_gradients;
    std::vector<KeyPoint> prev_keypoints;
    std::vector<FlowScratch> flow; //!< one per lane

    size_t
    capacityBytes() const
    {
        size_t n = left.capacityBytes() + right.capacityBytes() +
                   stereo_rows.capacityBytes() +
                   stereo.capacity() * sizeof(StereoMatch) +
                   dr_costs.capacity() * sizeof(double) +
                   cur_pyramid.capacityBytes() +
                   prev_pyramid.capacityBytes() +
                   prev_keypoints.capacity() * sizeof(KeyPoint) +
                   flow.capacity() * sizeof(FlowScratch);
        for (const FlowScratch &f : flow)
            n += f.capacityBytes();
        for (const auto *grads : {&cur_gradients, &prev_gradients}) {
            n += grads->capacity() * sizeof(Gradients);
            for (const Gradients &g : *grads)
                n += (g.gx.capacity() + g.gy.capacity()) * sizeof(float);
        }
        return n;
    }
};

} // namespace edx
