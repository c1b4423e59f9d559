#include "frontend/frontend.hpp"

#include <algorithm>
#include <array>

#include "image/filter.hpp"
#include "math/cpu_features.hpp"
#include "runtime/telemetry.hpp"

namespace edx {

namespace {

/**
 * Key points per ORB or LK task. A constant, so the split of the work
 * never depends on the lane count.
 */
constexpr int kChunk = 32;

int
chunksOf(size_t points)
{
    return static_cast<int>((points + kChunk - 1) / kChunk);
}

} // namespace

VisionFrontend::VisionFrontend(const FrontendConfig &cfg)
    : cfg_(cfg), lanes_(availableCpus())
{}

VisionFrontend::~VisionFrontend() = default;

void
VisionFrontend::setLanes(int lanes)
{
    lanes_.store(std::max(1, lanes), std::memory_order_relaxed);
}

void
VisionFrontend::reset()
{
    has_prev_ = false;
    ws_.prev_keypoints.clear();
}

FrontendOutput
VisionFrontend::processFrame(const ImageU8 &left, const ImageU8 &right)
{
    FrontendOutput out;
    processFrameInto(left, right, out);
    return out;
}

void
VisionFrontend::processFrameInto(const ImageU8 &left,
                                 const ImageU8 &right,
                                 FrontendOutput &out)
{
    // The monolithic frame call is exactly the three sub-stage calls in
    // sequence, so the split pipeline topologies are bit-identical to
    // this one by construction. The allocation accounting brackets all
    // three (the capacity sum is only safe to read when no other stage
    // worker is concurrently touching the workspace).
    const size_t cap_before =
        ws_.capacityBytes() + mono_ctx_.capacityBytes();
    runFeStage(left, right, mono_ctx_, out);
    runSmStage(left, right, mono_ctx_, out);
    runTmStage(left, mono_ctx_, out);
    if (ws_.capacityBytes() + mono_ctx_.capacityBytes() != cap_before)
        ++alloc_events_;
}

void
VisionFrontend::runFeStage(const ImageU8 &left, const ImageU8 &right,
                           FrontendStageContext &ctx, FrontendOutput &out)
{
    out.timing = {};
    out.workload = {};
    out.workload.image_pixels = left.pixelCount();

    // --- Feature extraction block (FD + IF + FC), both images. The
    // hardware time-shares one FE pipeline across the two streams
    // (Sec. V-B); the software runs FAST and blur of each eye as four
    // independent tasks, then ORB over kChunk-keypoint chunks of both
    // eyes. Each task writes only its eye's buffers or its chunk's
    // descriptor slots, so the products do not depend on the lanes.
    const int lanes = lanes_.load(std::memory_order_relaxed);
    EyeWorkspace *const eyes[2] = {&ws_.left, &ws_.right};
    const ImageU8 *const images[2] = {&left, &right};

    // Tasks 0-1 detect, 2-3 blur (left, right). The lanes overlap, so
    // the per-task times are scaled to the phase's wall time: the
    // reported split keeps the task proportions and fd + if stays a
    // wall span.
    std::array<double, 4> task_ms{};
    double wall_ms = 0.0;
    {
        StageTimer wall(wall_ms);
        fe_lanes_.run(lanes, 4, [&](int t, int) {
            EyeWorkspace &eye = *eyes[t % 2];
            const ImageU8 &img = *images[t % 2];
            StageTimer timer(task_ms[t]);
            if (t < 2)
                detectFastInto(img, cfg_.fast, eye.fast, eye.keypoints);
            else
                gaussianBlurInto(img, eye.blur, eye.blurred);
        });
    }
    const double fd_ms = task_ms[0] + task_ms[1];
    const double if_ms = task_ms[2] + task_ms[3];
    const double scale = fd_ms + if_ms > 0.0 ? wall_ms / (fd_ms + if_ms)
                                             : 0.0;
    out.timing.fd_ms = scale * fd_ms;
    out.timing.if_ms = scale * if_ms;

    {
        StageTimer timer(out.timing.fc_ms);
        const int left_chunks = chunksOf(ws_.left.keypoints.size());
        for (EyeWorkspace *eye : eyes)
            eye->descriptors.resize(eye->keypoints.size());
        fe_lanes_.run(
            lanes, left_chunks + chunksOf(ws_.right.keypoints.size()),
            [&](int t, int) {
                const bool in_left = t < left_chunks;
                EyeWorkspace &eye = in_left ? ws_.left : ws_.right;
                const size_t begin =
                    static_cast<size_t>(in_left ? t : t - left_chunks) *
                    kChunk;
                const size_t end =
                    std::min(begin + kChunk, eye.keypoints.size());
                computeOrbDescriptorsRange(eye.blurred, eye.keypoints,
                                           begin, end, eye.descriptors);
            });
    }

    // Copy (not swap) the products out: the workspace keeps its
    // capacity, and a reused output packet keeps its own. The right-eye
    // products travel in the stage context — stereo matching may run on
    // a different stage worker while this FE section is already filling
    // the next frame.
    out.keypoints.assign(ws_.left.keypoints.begin(),
                         ws_.left.keypoints.end());
    out.descriptors.assign(ws_.left.descriptors.begin(),
                           ws_.left.descriptors.end());
    ctx.right_keypoints.assign(ws_.right.keypoints.begin(),
                               ws_.right.keypoints.end());
    ctx.right_descriptors.assign(ws_.right.descriptors.begin(),
                                 ws_.right.descriptors.end());
    out.workload.left_features = static_cast<int>(out.keypoints.size());
    out.workload.right_features =
        static_cast<int>(ctx.right_keypoints.size());
    out.workload.stereo_candidates_allpairs =
        out.workload.left_features * out.workload.right_features;
}

void
VisionFrontend::runSmStage(const ImageU8 &left, const ImageU8 &right,
                           FrontendStageContext &ctx, FrontendOutput &out)
{
    // --- Stereo matching block (MO + DR): epipolar row-band bucketing
    // instead of the all-pairs Hamming sweep.
    {
        StageTimer timer(out.timing.mo_ms);
        ws_.stereo_rows.build(ctx.right_keypoints, left.height());
        long evaluated = stereoMatchBandedInto(
            out.keypoints, out.descriptors, ctx.right_keypoints,
            ctx.right_descriptors, cfg_.stereo, ws_.stereo_rows,
            ws_.stereo);
        out.workload.stereo_candidates = static_cast<int>(evaluated);
    }
    {
        StageTimer timer(out.timing.dr_ms);
        stereoRefineDisparityInto(left, right, out.keypoints, ws_.stereo,
                                  cfg_.stereo, ws_.dr_costs);
    }
    out.stereo.assign(ws_.stereo.begin(), ws_.stereo.end());
    out.workload.stereo_matches = static_cast<int>(out.stereo.size());
}

void
VisionFrontend::runTmStage(const ImageU8 &left, FrontendStageContext &,
                           FrontendOutput &out)
{
    // --- Temporal matching block (DC + LSS): LK against the previous
    // left frame, on the raw (unfiltered) pyramid. The pyramid and its
    // per-level gradient images are built once into the workspace's
    // current-frame slots and double-buffer-swapped into the previous
    // slots at frame end.
    const int lanes = lanes_.load(std::memory_order_relaxed);
    StageTimer timer(out.timing.tm_ms);
    ws_.cur_pyramid.rebuild(left, cfg_.flow.pyramid_levels);
    const int levels = ws_.cur_pyramid.levels();
    if (static_cast<int>(ws_.cur_gradients.size()) < levels)
        ws_.cur_gradients.resize(levels);
    for (int l = 0; l < levels; ++l)
        centralDiffGradientsInto(ws_.cur_pyramid.level(l),
                                 ws_.cur_gradients[l]);
    out.temporal.clear();
    if (has_prev_) {
        // LK over kChunk-keypoint chunks of the previous key points:
        // each lane tracks with its own window scratch into one slot
        // per point, and the lost slots are dropped in index order
        // after the join — trackLucasKanadeInto's output.
        const std::vector<KeyPoint> &pts = ws_.prev_keypoints;
        const int n = static_cast<int>(pts.size());
        if (static_cast<int>(ws_.flow.size()) < lanes)
            ws_.flow.resize(lanes);
        out.temporal.resize(pts.size());
        tm_lanes_.run(lanes, chunksOf(pts.size()), [&](int t, int lane) {
            const int begin = t * kChunk;
            trackLucasKanadeRange(ws_.prev_pyramid, ws_.prev_gradients,
                                  ws_.cur_pyramid, pts, begin,
                                  std::min(begin + kChunk, n), cfg_.flow,
                                  ws_.flow[lane], out.temporal);
        });
        dropLostTracks(out.temporal);
    }
    swap(ws_.prev_pyramid, ws_.cur_pyramid);
    std::swap(ws_.prev_gradients, ws_.cur_gradients);
    timer.stop();
    out.workload.temporal_tracks = static_cast<int>(out.temporal.size());
    ws_.prev_keypoints.assign(out.keypoints.begin(), out.keypoints.end());
    has_prev_ = true;
}

} // namespace edx
