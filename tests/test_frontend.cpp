/**
 * @file
 * Unit tests for the unified vision frontend: the FE / SM / TM block
 * products, their timing/workload instrumentation, and the
 * correspondence payload the backend consumes (Sec. IV-A / V).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "frontend/frontend.hpp"
#include "frontend/lane_group.hpp"
#include "image/filter.hpp"
#include "sim/dataset.hpp"
#include "simd_tiers.hpp"

// --- global allocation counter ------------------------------------------
// The zero-alloc acceptance test counts *every* heap allocation made
// while a steady-state frame is processed, not just workspace growth.
namespace {
std::atomic<long> g_alloc_count{0};
}

void *
operator new(std::size_t n)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace edx {
namespace {

DatasetConfig
droneScene(int frames = 4)
{
    DatasetConfig cfg;
    cfg.scene = SceneType::IndoorUnknown;
    cfg.platform = Platform::Drone;
    cfg.frame_count = frames;
    cfg.fps = 10.0;
    cfg.seed = 21;
    return cfg;
}

// --- LaneGroup ------------------------------------------------------------

TEST(LaneGroup, RunsEveryTaskOnceOnDistinctLanes)
{
    // Lane counts grow and shrink between jobs, as an epoch swap
    // changes them between frames.
    LaneGroup group;
    for (int lanes : {1, 3, 2, 4, 1}) {
        const int tasks = 37;
        std::vector<std::atomic<int>> runs(tasks);
        std::vector<std::atomic<int>> busy(lanes);
        std::atomic<bool> overlap{false};
        group.run(lanes, tasks, [&](int t, int lane) {
            ASSERT_GE(lane, 0);
            ASSERT_LT(lane, lanes);
            if (busy[lane].fetch_add(1) != 0)
                overlap = true; // two calls on one lane at once
            runs[t].fetch_add(1);
            busy[lane].fetch_sub(1);
        });
        for (int t = 0; t < tasks; ++t)
            EXPECT_EQ(runs[t].load(), 1) << lanes << " lanes, task " << t;
        EXPECT_FALSE(overlap.load()) << lanes << " lanes";
    }
}

TEST(LaneGroup, RethrowsATaskExceptionAfterTheJoin)
{
    LaneGroup group;
    std::atomic<int> ran{0};
    EXPECT_THROW(group.run(3, 64,
                           [&](int t, int) {
                               ran.fetch_add(1);
                               if (t == 5)
                                   throw std::runtime_error("task 5");
                           }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 6);
    // The group stays usable for the next job.
    std::atomic<int> after{0};
    group.run(3, 10, [&](int, int) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 10);
}

TEST(Frontend, KeypointsAndDescriptorsAreAligned)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput out = fe.processFrame(f.stereo.left, f.stereo.right);
    ASSERT_GT(out.keypoints.size(), 20u);
    EXPECT_EQ(out.keypoints.size(), out.descriptors.size());
    for (const KeyPoint &kp : out.keypoints) {
        EXPECT_GE(kp.x, 0.0f);
        EXPECT_LT(kp.x, static_cast<float>(f.stereo.left.width()));
        EXPECT_GE(kp.y, 0.0f);
        EXPECT_LT(kp.y, static_cast<float>(f.stereo.left.height()));
    }
}

TEST(Frontend, SplitStageCallsMatchMonolithicBitExact)
{
    // The staged runtime runs FE / SM / TM as separate sub-stage calls
    // with a job-owned handoff context; the products must be
    // bit-identical to the monolithic processFrame, frame after frame
    // (the temporal state advances identically).
    Dataset d(droneScene(4));
    VisionFrontend mono, split;
    for (int i = 0; i < d.frameCount(); ++i) {
        DatasetFrame f = d.frame(i);
        FrontendOutput a =
            mono.processFrame(f.stereo.left, f.stereo.right);

        FrontendOutput b;
        FrontendStageContext ctx;
        split.runFeStage(f.stereo.left, f.stereo.right, ctx, b);
        split.runSmStage(f.stereo.left, f.stereo.right, ctx, b);
        split.runTmStage(f.stereo.left, ctx, b);

        ASSERT_EQ(a.keypoints.size(), b.keypoints.size()) << i;
        for (size_t k = 0; k < a.keypoints.size(); ++k) {
            EXPECT_EQ(a.keypoints[k].x, b.keypoints[k].x);
            EXPECT_EQ(a.keypoints[k].y, b.keypoints[k].y);
        }
        ASSERT_EQ(a.descriptors.size(), b.descriptors.size());
        for (size_t k = 0; k < a.descriptors.size(); ++k)
            EXPECT_EQ(0, std::memcmp(&a.descriptors[k],
                                     &b.descriptors[k],
                                     sizeof(Descriptor)));
        ASSERT_EQ(a.stereo.size(), b.stereo.size());
        for (size_t k = 0; k < a.stereo.size(); ++k) {
            EXPECT_EQ(a.stereo[k].left_index, b.stereo[k].left_index);
            EXPECT_EQ(a.stereo[k].disparity, b.stereo[k].disparity);
        }
        ASSERT_EQ(a.temporal.size(), b.temporal.size()) << i;
        for (size_t k = 0; k < a.temporal.size(); ++k) {
            EXPECT_EQ(a.temporal[k].prev_index, b.temporal[k].prev_index);
            EXPECT_EQ(a.temporal[k].x, b.temporal[k].x);
            EXPECT_EQ(a.temporal[k].y, b.temporal[k].y);
        }
        EXPECT_EQ(a.workload.stereo_matches, b.workload.stereo_matches);
        EXPECT_EQ(a.workload.temporal_tracks,
                  b.workload.temporal_tracks);
    }
}

TEST(Frontend, FirstFrameHasNoTemporalMatches)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput out = fe.processFrame(f.stereo.left, f.stereo.right);
    EXPECT_TRUE(out.temporal.empty());
    EXPECT_EQ(out.workload.temporal_tracks, 0);
}

TEST(Frontend, SecondFrameTracksTemporally)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    EXPECT_GT(out.temporal.size(), 10u)
        << "optical flow lost nearly everything between frames";
    for (const TemporalMatch &m : out.temporal) {
        EXPECT_GE(m.prev_index, 0);
        EXPECT_GE(m.x, 0.0f);
        EXPECT_GE(m.y, 0.0f);
    }
}

TEST(Frontend, StereoMatchesHavePositiveBoundedDisparity)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput out = fe.processFrame(f.stereo.left, f.stereo.right);
    ASSERT_GT(out.stereo.size(), 10u);
    const StereoRig &rig = d.rig();
    for (const StereoMatch &m : out.stereo) {
        EXPECT_GE(m.left_index, 0);
        EXPECT_LT(m.left_index, static_cast<int>(out.keypoints.size()));
        EXPECT_GT(m.disparity, 0.0f);
        // Disparity must correspond to a physically sensible depth.
        auto depth = rig.depthFromDisparity(m.disparity);
        ASSERT_TRUE(depth.has_value());
        EXPECT_GT(*depth, 0.2);
        EXPECT_LT(*depth, 200.0);
    }
}

TEST(Frontend, StereoDepthsMatchSceneGeometry)
{
    // The indoor room has a known extent; most stereo depths must land
    // inside it (far outliers indicate disparity mismatches).
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput out = fe.processFrame(f.stereo.left, f.stereo.right);
    int plausible = 0;
    for (const StereoMatch &m : out.stereo) {
        auto depth = d.rig().depthFromDisparity(m.disparity);
        if (depth && *depth < 40.0)
            ++plausible;
    }
    EXPECT_GT(plausible, static_cast<int>(out.stereo.size()) * 7 / 10);
}

TEST(Frontend, TimingCoversEveryTask)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    EXPECT_GT(out.timing.fd_ms, 0.0);
    EXPECT_GT(out.timing.if_ms, 0.0);
    EXPECT_GT(out.timing.fc_ms, 0.0);
    EXPECT_GT(out.timing.mo_ms, 0.0);
    EXPECT_GT(out.timing.dr_ms, 0.0);
    EXPECT_GT(out.timing.tm_ms, 0.0);
    EXPECT_NEAR(out.timing.total(),
                out.timing.feBlock() + out.timing.smBlock() +
                    out.timing.tmBlock(),
                1e-9);
}

TEST(Frontend, WorkloadCountsAreConsistent)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    EXPECT_EQ(out.workload.left_features,
              static_cast<int>(out.keypoints.size()));
    EXPECT_GT(out.workload.right_features, 0);
    EXPECT_EQ(out.workload.stereo_matches,
              static_cast<int>(out.stereo.size()));
    EXPECT_EQ(out.workload.temporal_tracks,
              static_cast<int>(out.temporal.size()));
    EXPECT_EQ(out.workload.image_pixels,
              static_cast<long>(f1.stereo.left.width()) *
                  f1.stereo.left.height());
    EXPECT_GE(out.workload.stereo_candidates,
              out.workload.stereo_matches);
}

TEST(Frontend, ResetDropsTemporalState)
{
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    fe.reset();
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    EXPECT_TRUE(out.temporal.empty());
}

TEST(Frontend, CorrespondencePayloadIsKilobyteClass)
{
    // Sec. V-A: the temporal + spatial correspondences shipped to the
    // backend are about 2-3 KB per frame.
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput out = fe.processFrame(f1.stereo.left, f1.stereo.right);
    size_t bytes = correspondencePayloadBytes(out.stereo, out.temporal);
    EXPECT_GT(bytes, 500u);
    EXPECT_LT(bytes, 32768u);
}

TEST(Frontend, StaticSceneTracksStayPut)
{
    // Rendering the same pose twice: optical flow displacement must be
    // sub-pixel on average (sensor noise only).
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f = d.frame(0);
    FrontendOutput a = fe.processFrame(f.stereo.left, f.stereo.right);
    FrontendOutput b = fe.processFrame(f.stereo.left, f.stereo.right);
    ASSERT_GT(b.temporal.size(), 10u);
    double disp = 0.0;
    for (const TemporalMatch &m : b.temporal) {
        const KeyPoint &kp = a.keypoints[m.prev_index];
        disp += std::hypot(m.x - kp.x, m.y - kp.y);
    }
    disp /= static_cast<double>(b.temporal.size());
    EXPECT_LT(disp, 0.75) << "static scene drifted " << disp << " px";
}

TEST(Frontend, MovingCameraProducesCoherentFlow)
{
    // Between consecutive frames of a smooth trajectory, most temporal
    // matches move by less than a generous per-frame bound.
    Dataset d(droneScene());
    VisionFrontend fe;
    DatasetFrame f0 = d.frame(0);
    DatasetFrame f1 = d.frame(1);
    FrontendOutput a = fe.processFrame(f0.stereo.left, f0.stereo.right);
    FrontendOutput b = fe.processFrame(f1.stereo.left, f1.stereo.right);
    ASSERT_GT(b.temporal.size(), 10u);
    int coherent = 0;
    for (const TemporalMatch &m : b.temporal) {
        const KeyPoint &kp = a.keypoints[m.prev_index];
        if (std::hypot(m.x - kp.x, m.y - kp.y) < 40.0)
            ++coherent;
    }
    EXPECT_GT(coherent, static_cast<int>(b.temporal.size()) * 8 / 10);
}

// --- workspace / lanes / reference-path equivalence ---------------------

void
expectOutputsIdentical(const FrontendOutput &a, const FrontendOutput &b)
{
    ASSERT_EQ(a.keypoints.size(), b.keypoints.size());
    for (size_t i = 0; i < a.keypoints.size(); ++i) {
        EXPECT_EQ(a.keypoints[i].x, b.keypoints[i].x);
        EXPECT_EQ(a.keypoints[i].y, b.keypoints[i].y);
        EXPECT_EQ(a.keypoints[i].score, b.keypoints[i].score);
        EXPECT_EQ(a.keypoints[i].angle, b.keypoints[i].angle);
    }
    ASSERT_EQ(a.descriptors.size(), b.descriptors.size());
    for (size_t i = 0; i < a.descriptors.size(); ++i)
        EXPECT_EQ(a.descriptors[i], b.descriptors[i]);
    ASSERT_EQ(a.stereo.size(), b.stereo.size());
    for (size_t i = 0; i < a.stereo.size(); ++i) {
        EXPECT_EQ(a.stereo[i].left_index, b.stereo[i].left_index);
        EXPECT_EQ(a.stereo[i].disparity, b.stereo[i].disparity);
        EXPECT_EQ(a.stereo[i].hamming, b.stereo[i].hamming);
    }
    ASSERT_EQ(a.temporal.size(), b.temporal.size());
    for (size_t i = 0; i < a.temporal.size(); ++i) {
        EXPECT_EQ(a.temporal[i].prev_index, b.temporal[i].prev_index);
        EXPECT_EQ(a.temporal[i].x, b.temporal[i].x);
        EXPECT_EQ(a.temporal[i].y, b.temporal[i].y);
        EXPECT_EQ(a.temporal[i].residual, b.temporal[i].residual);
    }
}

/**
 * The frontend recomposed from the retained scalar kernel twins, with
 * no workspace and no lanes: FAST, blur and ORB per eye, the all-pairs
 * stereo sweep plus the reference disparity refinement, then LK
 * against the previous frame's pyramid and key points.
 */
class ReferenceFrontend
{
  public:
    FrontendOutput
    process(const ImageU8 &left, const ImageU8 &right)
    {
        FrontendOutput out;
        out.keypoints = detectFastReference(left, cfg_.fast);
        std::vector<KeyPoint> right_kps =
            detectFastReference(right, cfg_.fast);
        out.descriptors = computeOrbDescriptorsReference(
            gaussianBlurReference(left), out.keypoints);
        std::vector<Descriptor> right_desc = computeOrbDescriptorsReference(
            gaussianBlurReference(right), right_kps);
        out.workload.stereo_candidates_allpairs =
            static_cast<int>(out.keypoints.size() * right_kps.size());

        out.stereo = stereoMatchInitial(out.keypoints, out.descriptors,
                                        right_kps, right_desc, cfg_.stereo);
        stereoRefineDisparityReference(left, right, out.keypoints,
                                       out.stereo, cfg_.stereo);

        Pyramid cur(left, cfg_.flow.pyramid_levels);
        if (!prev_pyramid_.empty())
            out.temporal = trackLucasKanadeReference(
                prev_pyramid_, cur, prev_keypoints_, cfg_.flow);
        prev_pyramid_ = std::move(cur);
        prev_keypoints_ = out.keypoints;
        return out;
    }

  private:
    FrontendConfig cfg_;
    Pyramid prev_pyramid_;
    std::vector<KeyPoint> prev_keypoints_;
};

TEST(Frontend, OptimizedPathMatchesReferencePath)
{
    // The whole frontend (workspace kernels, banded stereo, cached
    // gradients, lanes) against the kernel twins composed above:
    // bit-exact products over a multi-frame sequence, on the VGA drone
    // and on the 720p outdoor car, on every SIMD tier (the twins never
    // dispatch, so each tier faces the same scalar oracle).
    DatasetConfig car;
    car.scene = SceneType::OutdoorUnknown;
    car.platform = Platform::Car;
    car.frame_count = 3;
    car.seed = 21;
    for (const DatasetConfig &cfg : {droneScene(3), car}) {
        Dataset d(cfg);
        std::vector<DatasetFrame> frames;
        for (int i = 0; i < 3; ++i)
            frames.push_back(d.frame(i));
        forEachSimdTier([&] {
            VisionFrontend opt;
            ReferenceFrontend ref;
            for (const DatasetFrame &f : frames) {
                SCOPED_TRACE(std::to_string(f.stereo.left.width()) +
                             "px wide, frame " +
                             std::to_string(&f - frames.data()));
                FrontendOutput a =
                    opt.processFrame(f.stereo.left, f.stereo.right);
                FrontendOutput b =
                    ref.process(f.stereo.left, f.stereo.right);
                expectOutputsIdentical(a, b);
                EXPECT_EQ(a.workload.stereo_candidates_allpairs,
                          b.workload.stereo_candidates_allpairs);
                // The banded matcher must evaluate a strict subset of
                // the all-pairs sweep.
                EXPECT_LE(a.workload.stereo_candidates,
                          a.workload.stereo_candidates_allpairs);
            }
        });
    }
}

TEST(Frontend, SteadyStateFramesAllocateNothing)
{
    // Warm the workspace over the sequence once, reset (which keeps
    // the buffers), then run the same frames again: not a single heap
    // allocation may occur anywhere in the frontend.
    Dataset d(droneScene());
    std::vector<DatasetFrame> frames;
    for (int i = 0; i < 4; ++i)
        frames.push_back(d.frame(i));

    VisionFrontend fe;
    FrontendOutput out;
    for (const DatasetFrame &f : frames)
        fe.processFrameInto(f.stereo.left, f.stereo.right, out);
    const size_t warm_events = fe.workspaceAllocationEvents();
    EXPECT_GT(fe.workspaceCapacityBytes(), 0u);

    fe.reset();
    for (const DatasetFrame &f : frames) {
        const long before = g_alloc_count.load();
        fe.processFrameInto(f.stereo.left, f.stereo.right, out);
        EXPECT_EQ(g_alloc_count.load() - before, 0)
            << "steady-state frame allocated";
    }
    EXPECT_EQ(fe.workspaceAllocationEvents(), warm_events);
}

void
expectProductsIdentical(const FrontendOutput &a, const FrontendOutput &b)
{
    expectOutputsIdentical(a, b);
    EXPECT_EQ(a.workload.left_features, b.workload.left_features);
    EXPECT_EQ(a.workload.right_features, b.workload.right_features);
    EXPECT_EQ(a.workload.stereo_candidates, b.workload.stereo_candidates);
    EXPECT_EQ(a.workload.stereo_matches, b.workload.stereo_matches);
    EXPECT_EQ(a.workload.temporal_tracks, b.workload.temporal_tracks);
}

TEST(Frontend, EveryLaneCountIsBitIdenticalToOneLane)
{
    // Lane counts are set explicitly, so the coverage does not depend
    // on the runner's core count. Both the VGA drone and the 720p
    // outdoor car scene, through the monolithic call and through the
    // split FE/SM/TM calls with FE(N+1) on a second thread beside
    // TM(N), as a pipeline with a cut after FE runs them.
    DatasetConfig car;
    car.scene = SceneType::OutdoorUnknown;
    car.platform = Platform::Car;
    car.frame_count = 4;
    car.seed = 21;
    for (const DatasetConfig &cfg : {droneScene(4), car}) {
        Dataset d(cfg);
        std::vector<DatasetFrame> frames;
        for (int i = 0; i < d.frameCount(); ++i)
            frames.push_back(d.frame(i));
        const size_t n = frames.size();

        VisionFrontend one;
        one.setLanes(1);
        std::vector<FrontendOutput> want(n);
        for (size_t i = 0; i < n; ++i)
            one.processFrameInto(frames[i].stereo.left,
                                 frames[i].stereo.right, want[i]);

        for (int lanes : {1, 2, 3, 4}) {
            SCOPED_TRACE(std::to_string(frames[0].stereo.left.width()) +
                         "px wide, " + std::to_string(lanes) + " lanes");
            VisionFrontend fe;
            fe.setLanes(lanes);
            ASSERT_EQ(fe.lanes(), lanes);
            FrontendOutput out;
            for (size_t i = 0; i < n; ++i) {
                fe.processFrameInto(frames[i].stereo.left,
                                    frames[i].stereo.right, out);
                expectProductsIdentical(want[i], out);
            }
            // Once warm, the same frames grow no workspace buffer.
            const size_t warm_events = fe.workspaceAllocationEvents();
            fe.reset();
            for (const DatasetFrame &f : frames)
                fe.processFrameInto(f.stereo.left, f.stereo.right, out);
            EXPECT_EQ(fe.workspaceAllocationEvents(), warm_events);

            VisionFrontend split;
            split.setLanes(lanes);
            std::vector<FrontendStageContext> ctx(n);
            std::vector<FrontendOutput> got(n);
            auto runFe = [&](size_t i) {
                split.runFeStage(frames[i].stereo.left,
                                 frames[i].stereo.right, ctx[i], got[i]);
            };
            runFe(0);
            split.runSmStage(frames[0].stereo.left, frames[0].stereo.right,
                             ctx[0], got[0]);
            for (size_t i = 0; i < n; ++i) {
                std::thread next([&] {
                    if (i + 1 < n)
                        runFe(i + 1);
                });
                split.runTmStage(frames[i].stereo.left, ctx[i], got[i]);
                next.join();
                if (i + 1 < n)
                    split.runSmStage(frames[i + 1].stereo.left,
                                     frames[i + 1].stereo.right,
                                     ctx[i + 1], got[i + 1]);
                expectProductsIdentical(want[i], got[i]);
            }
        }
    }
}

} // namespace
} // namespace edx
