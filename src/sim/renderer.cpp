#include "sim/renderer.hpp"

#include <algorithm>
#include <cmath>

#include "image/draw.hpp"

namespace edx {

namespace {
/** Side length of the pre-generated background noise tile. */
constexpr int kTile = 256;
} // namespace

StereoRenderer::StereoRenderer(const StereoRig &rig, const RenderConfig &cfg,
                               uint64_t seed)
    : rig_(rig), cfg_(cfg), seed_(seed), noise_tile_(kTile, kTile)
{
    // The background texture is generated once and tiled with per-frame
    // offsets: visually identical to per-pixel regeneration at a small
    // fraction of the cost.
    Rng rng(seed ^ 0xbadc0ffeULL);
    fillNoisyBackground(noise_tile_, cfg_.background_mean,
                        cfg_.background_sigma, rng);
}

void
StereoRenderer::renderView(const World &world, const Pose &camera_from_world,
                           double baseline_shift, double lighting_gain,
                           ImageU8 &out, Rng &noise_rng, int *visible) const
{
    const CameraIntrinsics &cam = rig_.cam;
    out = ImageU8(cam.width, cam.height);

    // Tiled background with a random phase so consecutive frames differ.
    int ox = static_cast<int>(noise_rng.nextU32() % kTile);
    int oy = static_cast<int>(noise_rng.nextU32() % kTile);
    for (int y = 0; y < cam.height; ++y) {
        uint8_t *row = out.rowPtr(y);
        const uint8_t *src = noise_tile_.rowPtr((y + oy) % kTile);
        for (int x = 0; x < cam.width; ++x)
            row[x] = src[(x + ox) % kTile];
    }

    // Project all landmarks; collect draw commands sorted far-to-near so
    // near landmarks occlude far ones.
    struct DrawCmd
    {
        double depth;
        double px, py;
        int half;
        uint32_t tex;
        int brightness;
    };
    std::vector<DrawCmd> cmds;
    cmds.reserve(world.size() / 4);

    for (const Landmark &lm : world.landmarks()) {
        Vec3 p_cam = camera_from_world.apply(lm.position) -
                     Vec3{baseline_shift, 0.0, 0.0};
        if (p_cam[2] < cfg_.min_depth || p_cam[2] > cfg_.max_depth)
            continue;
        auto px = cam.project(p_cam);
        if (!px || !cam.inImage(*px, -cfg_.max_patch_half_size))
            continue;
        int half = static_cast<int>(lm.size_m * cam.fx / p_cam[2]);
        half = std::clamp(half, cfg_.min_patch_half_size,
                          cfg_.max_patch_half_size);
        cmds.push_back({p_cam[2], (*px)[0], (*px)[1], half, lm.texture_id,
                        lm.brightness});
    }
    std::sort(cmds.begin(), cmds.end(),
              [](const DrawCmd &a, const DrawCmd &b) {
                  return a.depth > b.depth;
              });

    for (const DrawCmd &c : cmds)
        drawTexturedPatch(out, c.px, c.py, c.half, c.tex, c.brightness);
    if (visible)
        *visible = static_cast<int>(cmds.size());

    if (lighting_gain != 1.0)
        scaleBrightness(out, lighting_gain);
    addPixelNoise(out, cfg_.pixel_noise_sigma, noise_rng);
}

StereoFrame
StereoRenderer::render(const World &world, const Pose &world_from_body,
                       int frame_index, double lighting_gain) const
{
    // camera_from_world = (world_from_body * body_from_camera)^-1
    Pose world_from_camera = world_from_body * rig_.body_from_camera;
    Pose camera_from_world = world_from_camera.inverse();

    StereoFrame f;
    Rng noise_rng(seed_ + 77777u * static_cast<uint64_t>(frame_index + 1));
    renderView(world, camera_from_world, 0.0, lighting_gain, f.left,
               noise_rng, &f.visible_landmarks);
    renderView(world, camera_from_world, rig_.baseline, lighting_gain,
               f.right, noise_rng, nullptr);
    return f;
}

} // namespace edx
