/**
 * @file
 * Synthetic stereo renderer.
 *
 * Projects the landmark field into a rectified stereo pair at a given
 * pose and draws each visible landmark as a textured patch whose on-
 * screen size follows its depth. The result is a pair of real 8-bit
 * images the actual FAST/ORB/LK/stereo frontend runs on, so frontend
 * behaviour (feature counts, matching quality, latency variation)
 * emerges from image content rather than being scripted.
 */
#pragma once

#include <utility>

#include "image/image.hpp"
#include "math/rng.hpp"
#include "math/se3.hpp"
#include "sensors/camera.hpp"
#include "sim/world.hpp"

namespace edx {

/** Rendering options. */
struct RenderConfig
{
    double background_mean = 95.0;
    double background_sigma = 9.0;
    double pixel_noise_sigma = 2.5;  //!< sensor noise per frame
    double min_depth = 0.8;          //!< near clip, m
    double max_depth = 70.0;         //!< far clip, m
    int max_patch_half_size = 27;
    int min_patch_half_size = 2;
};

/** A rendered stereo pair. */
struct StereoFrame
{
    ImageU8 left;
    ImageU8 right;
    int visible_landmarks = 0; //!< number of landmarks drawn (left)
};

/** Renders stereo frames of a World through a StereoRig. */
class StereoRenderer
{
  public:
    /**
     * @param rig camera rig (intrinsics + baseline + extrinsics)
     * @param cfg render options
     * @param seed base seed for background/sensor noise
     */
    StereoRenderer(const StereoRig &rig, const RenderConfig &cfg,
                   uint64_t seed);

    /**
     * Renders the world from the body pose @p world_from_body.
     * @p frame_index decorrelates per-frame noise; @p lighting_gain
     * scales the global illumination of this frame. Const and free of
     * shared mutable state, so threads may render concurrently.
     */
    StereoFrame render(const World &world, const Pose &world_from_body,
                       int frame_index, double lighting_gain = 1.0) const;

    const StereoRig &rig() const { return rig_; }
    const RenderConfig &config() const { return cfg_; }

  private:
    void renderView(const World &world, const Pose &camera_from_world,
                    double baseline_shift, double lighting_gain,
                    ImageU8 &out, Rng &noise_rng, int *visible) const;

    StereoRig rig_;
    RenderConfig cfg_;
    uint64_t seed_;
    ImageU8 noise_tile_; //!< pre-generated background texture tile
};

} // namespace edx
