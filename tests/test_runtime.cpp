/**
 * @file
 * Tests of the staged runtime layer: StageTimer accumulation,
 * pipelined-vs-sequential pose equivalence (the pipeline must change
 * *when* stages run, never *what* they compute), backpressure, and
 * multi-session serving through the LocalizerPool.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <thread>

#include "core/evaluation.hpp"
#include "core/localizer.hpp"
#include "math/blas.hpp"
#include "math/cpu_features.hpp"
#include "math/rng.hpp"
#include "runtime/localizer_pool.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/placement.hpp"
#include "runtime/replan.hpp"
#include "runtime/solve_hub.hpp"
#include "runtime/telemetry.hpp"
#include "sim/dataset.hpp"

namespace edx {
namespace {

// --- StageTimer -------------------------------------------------------------

TEST(StageTimer, AccumulatesIntoSink)
{
    double sink = 0.0;
    {
        StageTimer t(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GT(sink, 0.0);

    // Several scoped timers accumulate into the same sink.
    double before = sink;
    {
        StageTimer t(sink);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GT(sink, before);
}

TEST(StageTimer, StopIsIdempotent)
{
    double sink = 0.0;
    StageTimer t(sink);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    t.stop();
    double v = sink;
    EXPECT_GT(v, 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    t.stop(); // disarmed: must not accumulate again
    EXPECT_EQ(sink, v);
}

// --- Pipeline equivalence ---------------------------------------------------

struct TestRun
{
    DatasetConfig dcfg;
    LocalizerConfig lcfg;
    Vocabulary voc;
    Map prior_map;
    bool has_prior = false;
};

TestRun
makeRun(SceneType scene, int frames)
{
    TestRun r;
    r.dcfg.scene = scene;
    r.dcfg.platform = Platform::Drone;
    r.dcfg.frame_count = frames;
    r.dcfg.seed = 99;
    r.lcfg = configForScenario(scene);

    Dataset d(r.dcfg);
    if (r.lcfg.mode != BackendMode::Vio) {
        r.voc = buildVocabulary(d, /*frame_stride=*/4);
        if (r.lcfg.mode == BackendMode::Registration) {
            MapBuildConfig mcfg;
            mcfg.frame_stride = 4;
            r.prior_map = buildPriorMap(d, r.voc, mcfg);
            r.has_prior = true;
        }
    }
    return r;
}

std::unique_ptr<Localizer>
makeLocalizer(const TestRun &r, const Dataset &d)
{
    auto loc = std::make_unique<Localizer>(
        r.lcfg, d.rig(),
        r.lcfg.mode != BackendMode::Vio ? &r.voc : nullptr,
        r.has_prior ? &r.prior_map : nullptr);
    loc->initialize(d.truthAt(0), 0.0, d.trajectory().velocityAt(0.0));
    return loc;
}

FrameInput
inputFor(const Dataset &d, int i)
{
    DatasetFrame f = d.frame(i);
    FrameInput in;
    in.frame_index = i;
    in.t = f.t;
    in.left = std::move(f.stereo.left);
    in.right = std::move(f.stereo.right);
    in.imu = d.imuBetweenFrames(i);
    in.gps = d.gpsAtFrame(i);
    return in;
}

void
expectPosesIdentical(const LocalizationResult &a,
                     const LocalizationResult &b, int i)
{
    EXPECT_EQ(a.ok, b.ok) << "frame " << i;
    for (int k = 0; k < 3; ++k)
        EXPECT_EQ(a.pose.translation[k], b.pose.translation[k])
            << "frame " << i << " t[" << k << "]";
    EXPECT_EQ(a.pose.rotation.w(), b.pose.rotation.w()) << "frame " << i;
    EXPECT_EQ(a.pose.rotation.x(), b.pose.rotation.x()) << "frame " << i;
    EXPECT_EQ(a.pose.rotation.y(), b.pose.rotation.y()) << "frame " << i;
    EXPECT_EQ(a.pose.rotation.z(), b.pose.rotation.z()) << "frame " << i;
}

void
checkEquivalence(SceneType scene, int frames)
{
    TestRun r = makeRun(scene, frames);
    Dataset d(r.dcfg);

    // Reference: strictly sequential processFrame calls.
    auto seq_loc = makeLocalizer(r, d);
    std::vector<LocalizationResult> seq;
    for (int i = 0; i < frames; ++i)
        seq.push_back(seq_loc->processFrame(inputFor(d, i)));

    // Pipelined: same frames through the 2-stage runtime.
    auto pipe_loc = makeLocalizer(r, d);
    PipelineConfig pcfg;
    pcfg.cuts = {2};
    pcfg.queue_capacity = 3;
    std::vector<LocalizationResult> piped(frames);
    {
        FramePipeline pipeline(*pipe_loc, pcfg);
        for (int i = 0; i < frames; ++i)
            ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
        pipeline.flush();
        LocalizationResult res;
        while (pipeline.poll(res)) {
            ASSERT_GE(res.frame_index, 0);
            ASSERT_LT(res.frame_index, frames);
            piped[res.frame_index] = std::move(res);
        }
    }

    for (int i = 0; i < frames; ++i)
        expectPosesIdentical(seq[i], piped[i], i);
}

TEST(FramePipeline, SlamPosesMatchSequentialBitExact)
{
    checkEquivalence(SceneType::IndoorUnknown, 14);
}

// --- N-stage topologies -----------------------------------------------------

/**
 * Every cut topology must reproduce the sequential pose stream
 * bit-exactly: the cuts change where sub-stages execute, never what
 * they compute.
 */
void
checkCutEquivalence(SceneType scene, int frames,
                    const std::vector<std::vector<int>> &cut_lists,
                    const std::function<void(LocalizerConfig &)> &tune =
                        nullptr)
{
    TestRun r = makeRun(scene, frames);
    if (tune)
        tune(r.lcfg);
    Dataset d(r.dcfg);

    auto seq_loc = makeLocalizer(r, d);
    std::vector<LocalizationResult> seq;
    for (int i = 0; i < frames; ++i)
        seq.push_back(seq_loc->processFrame(inputFor(d, i)));

    for (const std::vector<int> &cuts : cut_lists) {
        auto loc = makeLocalizer(r, d);
        PipelineConfig pcfg;
        pcfg.cuts = cuts;
        pcfg.queue_capacity = 3;
        std::vector<LocalizationResult> piped(frames);
        {
            FramePipeline pipeline(*loc, pcfg);
            EXPECT_EQ(pipeline.cuts(), cuts);
            for (int i = 0; i < frames; ++i)
                ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
            pipeline.flush();
            LocalizationResult res;
            while (pipeline.poll(res))
                piped[res.frame_index] = std::move(res);
        }
        for (int i = 0; i < frames; ++i) {
            SCOPED_TRACE("cuts " + describeCuts(cuts));
            expectPosesIdentical(seq[i], piped[i], i);
            EXPECT_EQ(piped[i].telemetry.pipeline_stages,
                      static_cast<int>(cuts.size()) + 1);
        }
    }
}

TEST(FramePipeline, SlamNStagePosesMatchSequentialBitExact)
{
    // Dense keyframing with a small window so marginalization and the
    // solve|finish handoff are exercised within the short run.
    checkCutEquivalence(
        SceneType::IndoorUnknown, 12,
        {{0}, {2, 3}, {0, 2, 3}, {0, 1, 2, 3}},
        [](LocalizerConfig &lc) {
            lc.mapping.keyframe_interval = 1;
            lc.mapping.window_size = 4;
        });
}

TEST(FramePipeline, VioNStagePosesMatchSequentialBitExact)
{
    // OutdoorUnknown provides GPS, so the solve|finish boundary splits
    // MSCKF from the fusion block.
    checkCutEquivalence(SceneType::OutdoorUnknown, 12,
                        {{3}, {1, 3}, {0, 1, 2, 3}});
}

TEST(FramePipeline, RegistrationNStagePosesMatchSequentialBitExact)
{
    checkCutEquivalence(SceneType::IndoorKnown, 10,
                        {{0, 2}, {0, 1, 2, 3}});
}

// --- Mid-run cut swaps (self-repipelining) ----------------------------------

/** One scheduled swapCuts() call, issued just before submitting @c at. */
struct SwapPoint
{
    int at = 0;
    std::vector<int> cuts;
};

/**
 * Drives one pipeline through a schedule of swapCuts() calls issued
 * between submissions — frames of the old cut list still in flight —
 * and checks the pose stream stays bit-identical to the sequential
 * reference: a swap changes where sub-stages run from that frame on,
 * never what any frame computes.
 */
void
checkSwapEquivalence(SceneType scene, int frames, PipelineConfig pcfg,
                     const std::vector<SwapPoint> &swaps,
                     const std::function<void(LocalizerConfig &)> &tune =
                         nullptr)
{
    TestRun r = makeRun(scene, frames);
    if (tune)
        tune(r.lcfg);
    Dataset d(r.dcfg);

    auto seq_loc = makeLocalizer(r, d);
    std::vector<LocalizationResult> seq;
    for (int i = 0; i < frames; ++i)
        seq.push_back(seq_loc->processFrame(inputFor(d, i)));

    auto loc = makeLocalizer(r, d);
    pcfg.queue_capacity = 3;
    std::vector<LocalizationResult> piped(frames);
    long applied = 0;
    {
        FramePipeline pipeline(*loc, pcfg);
        size_t next = 0;
        for (int i = 0; i < frames; ++i) {
            if (next < swaps.size() && swaps[next].at == i) {
                ASSERT_TRUE(pipeline.swapCuts(swaps[next].cuts))
                    << "swap before frame " << i;
                ++next;
            }
            ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
        }
        pipeline.flush();
        LocalizationResult res;
        while (pipeline.poll(res))
            piped[res.frame_index] = std::move(res);
        applied = pipeline.stats().cut_swaps;
        EXPECT_EQ(pipeline.cuts(), swaps.back().cuts);
    }
    EXPECT_EQ(applied, static_cast<long>(swaps.size()));
    for (int i = 0; i < frames; ++i) {
        SCOPED_TRACE("swap schedule, frame " + std::to_string(i));
        expectPosesIdentical(seq[i], piped[i], i);
    }
}

TEST(FramePipeline, MidRunCutSwapsKeepSlamPosesBitExact)
{
    // Staged -> deeper -> sequential ({}) -> max depth -> back: both
    // directions of the one-stage <-> staged transition plus two
    // staged -> staged swaps, each with old-list frames in flight.
    PipelineConfig pcfg;
    pcfg.cuts = {2};
    checkSwapEquivalence(
        SceneType::IndoorUnknown, 16, pcfg,
        {{4, {0, 2, 3}}, {8, {}}, {11, {0, 1, 2, 3}}, {14, {3}}},
        [](LocalizerConfig &lc) {
            lc.mapping.keyframe_interval = 1;
            lc.mapping.window_size = 4;
        });
}

TEST(FramePipeline, MidRunCutSwapsKeepVioPosesBitExact)
{
    // Starts sequential: the first swap brings the staged runtime up
    // mid-stream. OutdoorUnknown provides GPS, so the solve|finish
    // boundary splits MSCKF from the fusion block across the swaps.
    PipelineConfig pcfg;
    pcfg.cuts = {};
    checkSwapEquivalence(SceneType::OutdoorUnknown, 14, pcfg,
                         {{3, {1, 3}}, {7, {}}, {10, {0, 1, 2, 3}}});
}

TEST(FramePipeline, MidRunCutSwapsKeepRegistrationPosesBitExact)
{
    PipelineConfig pcfg;
    pcfg.cuts = {0, 2};
    checkSwapEquivalence(SceneType::IndoorKnown, 12, pcfg,
                         {{4, {0, 1, 2, 3}}, {8, {2}}});
}

TEST(FramePipeline, SwapCutsRejectsNoopAndInvalidTopologies)
{
    TestRun r = makeRun(SceneType::OutdoorUnknown, 2);
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);
    PipelineConfig pcfg;
    pcfg.cuts = {2};
    FramePipeline pipeline(*loc, pcfg);
    EXPECT_FALSE(pipeline.swapCuts({2})); // already the active cuts
    EXPECT_THROW(pipeline.swapCuts({4}), std::invalid_argument);
    EXPECT_THROW(pipeline.swapCuts({2, 1}), std::invalid_argument);
    EXPECT_TRUE(pipeline.swapCuts({1}));
    EXPECT_EQ(pipeline.cuts(), std::vector<int>{1});
    pipeline.close();
    EXPECT_FALSE(pipeline.swapCuts({3})); // closed
}

TEST(FramePipeline, ReplannerAutoSwapKeepsPosesBitExact)
{
    const int frames = 20;
    TestRun r = makeRun(SceneType::IndoorUnknown, frames);
    r.lcfg.mapping.keyframe_interval = 1;
    r.lcfg.mapping.window_size = 4;
    Dataset d(r.dcfg);

    auto seq_loc = makeLocalizer(r, d);
    std::vector<LocalizationResult> seq;
    for (int i = 0; i < frames; ++i)
        seq.push_back(seq_loc->processFrame(inputFor(d, i)));

    ReplanConfig rcfg; // tick fast enough to adapt within the run
    rcfg.window = 12;
    rcfg.tick_frames = 4;
    rcfg.min_mode_frames = 3;
    SessionReplanner replanner(rcfg);

    // A deliberately lopsided start (FE alone | everything else) on a
    // backend-heavy workload: the replanner must find better.
    auto loc = makeLocalizer(r, d);
    PipelineConfig pcfg;
    pcfg.cuts = {0};
    pcfg.replanner = &replanner;
    pcfg.queue_capacity = 3;
    std::vector<LocalizationResult> piped(frames);
    long swaps = 0;
    {
        FramePipeline pipeline(*loc, pcfg);
        for (int i = 0; i < frames; ++i)
            ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
        pipeline.flush();
        LocalizationResult res;
        while (pipeline.poll(res))
            piped[res.frame_index] = std::move(res);
        swaps = pipeline.stats().cut_swaps;
    }

    ReplanStats rs = replanner.stats();
    EXPECT_EQ(rs.observed, frames);
    EXPECT_GE(rs.ticks, 1);
    EXPECT_GE(rs.proposals, 1);
    // Every proposal was applied...
    EXPECT_EQ(swaps, rs.proposals);
    // ...and adaptation never changed what any frame computed.
    for (int i = 0; i < frames; ++i)
        expectPosesIdentical(seq[i], piped[i], i);
}

TEST(FramePipeline, PlannerChosenTopologyMatchesSequentialBitExact)
{
    const int frames = 12;
    TestRun r = makeRun(SceneType::IndoorUnknown, frames);
    r.lcfg.mapping.keyframe_interval = 1;
    r.lcfg.mapping.window_size = 4;
    Dataset d(r.dcfg);

    // Profile a sequential run, plan, then run the planned topology.
    auto seq_loc = makeLocalizer(r, d);
    std::vector<LocalizationResult> seq;
    std::vector<FrameTelemetry> tel;
    for (int i = 0; i < frames; ++i) {
        seq.push_back(seq_loc->processFrame(inputFor(d, i)));
        tel.push_back(seq.back().telemetry);
    }
    StagePlan plan = PlacementPlanner::plan(
        PlacementPlanner::profileFromTelemetry(tel, BackendMode::Slam));
    ASSERT_LE(plan.period_ms, plan.sequential_ms);

    auto loc = makeLocalizer(r, d);
    PipelineConfig pcfg;
    pcfg.cuts = plan.cuts;
    std::vector<LocalizationResult> piped(frames);
    {
        FramePipeline pipeline(*loc, pcfg);
        for (int i = 0; i < frames; ++i)
            ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
        pipeline.flush();
        LocalizationResult res;
        while (pipeline.poll(res))
            piped[res.frame_index] = std::move(res);
    }
    for (int i = 0; i < frames; ++i)
        expectPosesIdentical(seq[i], piped[i], i);
}

TEST(FramePipeline, InvalidStageConfigsAreRejected)
{
    TestRun r = makeRun(SceneType::OutdoorUnknown, 2);
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);

    auto expectRejected = [&](PipelineConfig pcfg) {
        EXPECT_THROW(FramePipeline(*loc, pcfg), std::invalid_argument);
    };

    // Out-of-range, unsorted, and duplicate cuts.
    expectRejected(PipelineConfig{.cuts = {4}});
    expectRejected(PipelineConfig{.cuts = {-1}});
    expectRejected(PipelineConfig{.cuts = {2, 1}});
    expectRejected(PipelineConfig{.cuts = {1, 1}});

    // Valid shapes still construct.
    FramePipeline dflt(*loc, PipelineConfig{});
    EXPECT_EQ(dflt.cuts(), std::vector<int>{2}); // classic 2-stage
    dflt.close();
    FramePipeline ok(*loc, PipelineConfig{.cuts = {2}});
    EXPECT_EQ(ok.cuts(), std::vector<int>{2});
    ok.close();
    FramePipeline ok2(*loc, PipelineConfig{.cuts = {0, 2, 3}});
    ok2.close();
}

TEST(FramePipeline, FrontendLanesFollowTheExecutorRule)
{
    // The rule itself, on hosts of several widths: one CPU per stage
    // worker and one for the producer side (a single stage takes every
    // CPU), the free CPUs to FE/TM, split in two when a cut separates
    // FE from TM (they then run at once on two workers).
    EXPECT_EQ(FramePipeline::frontendLanes({}, 4), 4);
    EXPECT_EQ(FramePipeline::frontendLanes({2}, 4), 2);
    EXPECT_EQ(FramePipeline::frontendLanes({2}, 2), 1);
    EXPECT_EQ(FramePipeline::frontendLanes({2, 3}, 8), 5);
    EXPECT_EQ(FramePipeline::frontendLanes({0, 1, 2, 3}, 4), 1);
    EXPECT_EQ(FramePipeline::frontendLanes({0, 1, 2, 3}, 1), 1);
    EXPECT_EQ(FramePipeline::frontendLanes({1, 2}, 4), 1);
    EXPECT_EQ(FramePipeline::frontendLanes({0, 2, 3}, 8), 2);
    EXPECT_EQ(FramePipeline::frontendLanes({0, 1, 2, 3}, 16), 6);

    // A bare localizer's frontend has every CPU; a pipeline sets the
    // rule's count on every cut swap; a pool session runs one lane
    // beside the pool's workers.
    const int cpus = availableCpus();
    auto rule = [&](const std::vector<int> &cuts) {
        return FramePipeline::frontendLanes(cuts, cpus);
    };
    TestRun r = makeRun(SceneType::OutdoorUnknown, 1);
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);
    EXPECT_EQ(loc->frontendLanes(), cpus);
    {
        PipelineConfig two;
        two.cuts = {2};
        FramePipeline pipe(*loc, two);
        EXPECT_EQ(loc->frontendLanes(), rule(pipe.cuts()));
        EXPECT_EQ(loc->frontendLanes(), std::max(1, cpus - 2));
        ASSERT_TRUE(pipe.swapCuts({0, 1, 2, 3}));
        EXPECT_EQ(loc->frontendLanes(), rule({0, 1, 2, 3}));
        ASSERT_TRUE(pipe.swapCuts({0, 2, 3}));
        EXPECT_EQ(loc->frontendLanes(), rule({0, 2, 3}));
        ASSERT_TRUE(pipe.swapCuts({2}));
        EXPECT_EQ(loc->frontendLanes(), rule({2}));
    }
    {
        PipelineConfig five;
        five.cuts = {0, 1, 2, 3};
        FramePipeline pipe(*loc, five);
        EXPECT_EQ(loc->frontendLanes(), rule({0, 1, 2, 3}));
    }
    PoolConfig pcfg;
    pcfg.workers = 1;
    LocalizerPool pool(pcfg);
    const int sid = pool.addSession(makeLocalizer(r, d));
    EXPECT_EQ(pool.session(sid).frontendLanes(), 1);
}

TEST(FramePipeline, VioPosesMatchSequentialBitExact)
{
    checkEquivalence(SceneType::OutdoorUnknown, 16);
}

TEST(FramePipeline, RegistrationPosesMatchSequentialBitExact)
{
    checkEquivalence(SceneType::IndoorKnown, 12);
}

TEST(FramePipeline, ResultsArriveInSubmissionOrder)
{
    TestRun r = makeRun(SceneType::OutdoorUnknown, 10);
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);
    FramePipeline pipeline(*loc, PipelineConfig{.cuts = {2}});
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
    LocalizationResult res;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(pipeline.awaitResult(res));
        EXPECT_EQ(res.frame_index, i);
    }
}

/**
 * Camera dropouts mid-run, with the dead-reckoning fallback off (the
 * frame is rejected) and on (the session dead-reckons through the gap,
 * handing the frames' IMU to the filter). A frame the localizer cannot
 * split must behave as in processFrame() on every executor: ok,
 * dead_reckoned and pose match bit for bit on every frame.
 */
TEST(FramePipeline, RejectedFramesMatchSequentialPath)
{
    for (bool fallback : {false, true}) {
        SCOPED_TRACE(fallback ? "fallback on" : "fallback off");
        const int frames = fallback ? 12 : 8;
        TestRun r = makeRun(SceneType::OutdoorUnknown, frames);
        r.lcfg.health.enable_fallback = fallback;
        Dataset d(r.dcfg);
        auto input = [&](int i) {
            FrameInput in = inputFor(d, i);
            if (fallback ? (i >= 4 && i <= 6) : i == 3) {
                in.left = ImageU8();
                in.right = ImageU8();
            }
            return in;
        };

        auto seq_loc = makeLocalizer(r, d);
        std::vector<LocalizationResult> seq;
        for (int i = 0; i < frames; ++i)
            seq.push_back(seq_loc->processFrame(input(i)));
        if (fallback)
            EXPECT_TRUE(seq[6].telemetry.dead_reckoned);
        else
            EXPECT_FALSE(seq[3].ok);

        auto expectSequential =
            [&](const std::vector<LocalizationResult> &got) {
                ASSERT_EQ(got.size(), static_cast<size_t>(frames));
                for (int i = 0; i < frames; ++i) {
                    expectPosesIdentical(seq[i], got[i], i);
                    EXPECT_EQ(got[i].telemetry.dead_reckoned,
                              seq[i].telemetry.dead_reckoned)
                        << "frame " << i;
                }
            };
        for (const std::vector<int> &cuts :
             {std::vector<int>{2}, std::vector<int>{0, 2, 3}}) {
            SCOPED_TRACE("cuts " + describeCuts(cuts));
            auto loc = makeLocalizer(r, d);
            std::vector<LocalizationResult> piped(frames);
            {
                FramePipeline pipeline(*loc, PipelineConfig{.cuts = cuts});
                for (int i = 0; i < frames; ++i)
                    ASSERT_TRUE(pipeline.submit(input(i)));
                pipeline.flush();
                LocalizationResult res;
                while (pipeline.poll(res))
                    piped[res.frame_index] = std::move(res);
            }
            expectSequential(piped);
        }

        SCOPED_TRACE("pool session");
        LocalizerPool pool(PoolConfig{.workers = 2});
        const int sid = pool.addSession(makeLocalizer(r, d));
        for (int i = 0; i < frames; ++i)
            ASSERT_TRUE(pool.submit(sid, input(i)));
        pool.drain();
        std::vector<LocalizationResult> pooled;
        PoolResult pr;
        while (pool.poll(pr))
            pooled.push_back(std::move(pr.result));
        expectSequential(pooled);
    }
}

TEST(FramePipeline, BoundedInputQueueGivesBackpressure)
{
    TestRun r = makeRun(SceneType::OutdoorUnknown, 12);
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);
    PipelineConfig pcfg;
    pcfg.cuts = {2};
    pcfg.queue_capacity = 2;
    FramePipeline pipeline(*loc, pcfg);
    for (int i = 0; i < 12; ++i)
        ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
    pipeline.flush();
    EXPECT_LE(pipeline.stats().input_high_water, 2u);
    EXPECT_EQ(pipeline.stats().frames, 12);
}

TEST(FramePipeline, SubmitAfterCloseFails)
{
    TestRun r = makeRun(SceneType::OutdoorUnknown, 2);
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);
    FramePipeline pipeline(*loc, PipelineConfig{.cuts = {2}});
    ASSERT_TRUE(pipeline.submit(inputFor(d, 0)));
    pipeline.close();
    EXPECT_FALSE(pipeline.submit(inputFor(d, 1)));
    EXPECT_EQ(pipeline.stats().frames, 1);
}

// --- Localizer mode switching -----------------------------------------------

TEST(Localizer, RequestModeSwitchValidatesTarget)
{
    TestRun r = makeRun(SceneType::OutdoorUnknown, 2); // VIO, no map
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);
    EXPECT_FALSE(loc->requestModeSwitch(BackendMode::Vio)); // no-op
    // Registration needs a prior map; this session has none.
    EXPECT_FALSE(loc->requestModeSwitch(BackendMode::Registration));
}

/**
 * VIO -> dense-keyframing SLAM mid-run, once through sequential
 * processFrame calls and once through a 4-stage pipeline. The deferred
 * switch is consumed at a solve boundary, so the pipelined request is
 * issued at a drained point to pin it to the same frame as the
 * reference — then both streams must match bit-exactly, including the
 * per-frame mode stamps.
 */
TEST(Localizer, ModeSwitchThroughPipelineMatchesSequential)
{
    const int frames = 14, switch_at = 7;
    TestRun r = makeRun(SceneType::IndoorUnknown, frames); // builds voc
    r.lcfg.mapping.keyframe_interval = 1;
    r.lcfg.mapping.window_size = 4;
    Dataset d(r.dcfg);

    LocalizerConfig vio = r.lcfg;
    vio.mode = BackendMode::Vio;
    vio.use_gps = false;
    auto make = [&] {
        auto loc =
            std::make_unique<Localizer>(vio, d.rig(), &r.voc, nullptr);
        loc->initialize(d.truthAt(0), 0.0,
                        d.trajectory().velocityAt(0.0));
        return loc;
    };

    auto seq_loc = make();
    std::vector<LocalizationResult> seq;
    for (int i = 0; i < frames; ++i) {
        if (i == switch_at)
            ASSERT_TRUE(seq_loc->requestModeSwitch(BackendMode::Slam,
                                                   &r.lcfg.mapping));
        seq.push_back(seq_loc->processFrame(inputFor(d, i)));
    }
    for (int i = 0; i < frames; ++i)
        ASSERT_EQ(seq[i].mode, i < switch_at ? BackendMode::Vio
                                             : BackendMode::Slam)
            << "frame " << i;

    auto pipe_loc = make();
    PipelineConfig pcfg;
    pcfg.cuts = {0, 2, 3};
    pcfg.queue_capacity = 3;
    std::vector<LocalizationResult> piped(frames);
    {
        FramePipeline pipeline(*pipe_loc, pcfg);
        for (int i = 0; i < switch_at; ++i)
            ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
        pipeline.flush();
        ASSERT_TRUE(pipe_loc->requestModeSwitch(BackendMode::Slam,
                                                &r.lcfg.mapping));
        for (int i = switch_at; i < frames; ++i)
            ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
        pipeline.flush();
        LocalizationResult res;
        while (pipeline.poll(res))
            piped[res.frame_index] = std::move(res);
    }
    for (int i = 0; i < frames; ++i) {
        expectPosesIdentical(seq[i], piped[i], i);
        EXPECT_EQ(piped[i].mode, seq[i].mode) << "frame " << i;
    }
}

// --- LocalizerPool ----------------------------------------------------------

TEST(LocalizerPool, ServesConcurrentSessionsInOrder)
{
    const int kSessions = 4;
    const int kFrames = 8;
    TestRun r = makeRun(SceneType::OutdoorUnknown, kFrames);
    Dataset d(r.dcfg);

    // Reference poses from one sequential session.
    auto ref = makeLocalizer(r, d);
    std::vector<LocalizationResult> expected;
    for (int i = 0; i < kFrames; ++i)
        expected.push_back(ref->processFrame(inputFor(d, i)));

    PoolConfig pcfg;
    pcfg.workers = 3;
    pcfg.queue_capacity = 6; // exercise submit-side backpressure too
    LocalizerPool pool(pcfg);
    for (int sid = 0; sid < kSessions; ++sid)
        pool.addSession(makeLocalizer(r, d));
    ASSERT_EQ(pool.sessionCount(), kSessions);

    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain();

    std::vector<std::vector<LocalizationResult>> per(kSessions);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));

    for (int sid = 0; sid < kSessions; ++sid) {
        ASSERT_EQ(per[sid].size(), static_cast<size_t>(kFrames))
            << "session " << sid;
        for (int i = 0; i < kFrames; ++i) {
            // Results of one session arrive in submission order...
            EXPECT_EQ(per[sid][i].frame_index, i);
            // ...and every session reproduces the sequential poses
            // exactly: sessions are fully isolated from one another.
            expectPosesIdentical(expected[i], per[sid][i], i);
        }
    }
}

TEST(LocalizerPool, SharesPriorMapAcrossRegistrationSessions)
{
    const int kSessions = 4;
    const int kFrames = 6;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    LocalizerPool pool(PoolConfig{.workers = 2, .queue_capacity = 8});
    for (int sid = 0; sid < kSessions; ++sid) {
        int id = pool.createSession(r.lcfg, d.rig(), &r.voc, &r.prior_map,
                                    d.truthAt(0), 0.0,
                                    d.trajectory().velocityAt(0.0));
        EXPECT_EQ(id, sid);
    }
    // All sessions localize against the *same* map object.
    for (int sid = 0; sid < kSessions; ++sid)
        EXPECT_EQ(pool.session(sid).currentMap(), &r.prior_map);

    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain();

    int results = 0, ok = 0;
    PoolResult pr;
    while (pool.poll(pr)) {
        ++results;
        if (pr.result.ok)
            ++ok;
    }
    EXPECT_EQ(results, kSessions * kFrames);
    EXPECT_GT(ok, 0);
}

TEST(LocalizerPool, UnknownSessionIdsThrow)
{
    // submit() used to silently return false while session() had an
    // assert-only bounds check (UB in Release builds); both now follow
    // the throw-on-invalid policy.
    LocalizerPool pool;
    EXPECT_THROW(pool.submit(0, FrameInput{}), std::out_of_range);
    EXPECT_THROW(pool.submit(-1, FrameInput{}), std::out_of_range);
    EXPECT_THROW(pool.session(0), std::out_of_range);
    EXPECT_THROW(pool.session(-1), std::out_of_range);
}

// --- SolveHub: cross-session batched backend solves -------------------

/**
 * Pool with batch_solves on: every session must still reproduce the
 * plain sequential poses bit-exactly — batching changes where the
 * kernels execute, never what they compute.
 */
void
checkBatchedPoolEquivalence(SceneType scene, int frames,
                            BatchKernel expected_kernel,
                            const std::function<void(LocalizerConfig &)>
                                &tune = nullptr)
{
    TestRun r = makeRun(scene, frames);
    if (tune)
        tune(r.lcfg);
    Dataset d(r.dcfg);

    auto ref = makeLocalizer(r, d);
    std::vector<LocalizationResult> expected;
    for (int i = 0; i < frames; ++i)
        expected.push_back(ref->processFrame(inputFor(d, i)));

    const int kSessions = 4;
    PoolConfig pcfg;
    pcfg.workers = 3;
    pcfg.queue_capacity = 8;
    pcfg.batch_solves = true;
    LocalizerPool pool(pcfg);
    for (int sid = 0; sid < kSessions; ++sid)
        pool.addSession(makeLocalizer(r, d));

    for (int i = 0; i < frames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain();

    std::vector<std::vector<LocalizationResult>> per(kSessions);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));
    for (int sid = 0; sid < kSessions; ++sid) {
        ASSERT_EQ(per[sid].size(), static_cast<size_t>(frames));
        for (int i = 0; i < frames; ++i)
            expectPosesIdentical(expected[i], per[sid][i], i);
    }

    // The mode's kernel went through the hub (grouping itself is
    // opportunistic and timing-dependent — bit-identity must hold
    // either way).
    SolveHubStats stats = pool.solveStats();
    EXPECT_GT(stats.requests[static_cast<int>(expected_kernel)], 0)
        << "expected kernel was never routed through the hub";
}

TEST(SolveHub, BatchedRegistrationPoolMatchesSequentialBitExact)
{
    checkBatchedPoolEquivalence(SceneType::IndoorKnown, 10,
                                BatchKernel::Projection);
}

TEST(SolveHub, BatchedVioPoolMatchesSequentialBitExact)
{
    checkBatchedPoolEquivalence(SceneType::OutdoorUnknown, 12,
                                BatchKernel::SpdSolve);
}

TEST(SolveHub, BatchedSlamPoolMatchesSequentialBitExact)
{
    // Dense keyframing + a small window so marginalization (the LU
    // kernel) actually fires within the short run.
    checkBatchedPoolEquivalence(
        SceneType::IndoorUnknown, 12, BatchKernel::LuSolve,
        [](LocalizerConfig &lc) {
            lc.mapping.keyframe_interval = 1;
            lc.mapping.window_size = 4;
        });
}

TEST(SolveHub, RendezvousGroupsConcurrentRequestsDeterministically)
{
    // N participants all enter their backend stage before any submits:
    // the rendezvous must serve all N in ONE batch, each request
    // bit-identical to the direct kernel.
    const int kThreads = 4, n = 40;
    SolveHub hub;

    std::vector<MatX> a(kThreads), b(kThreads), x(kThreads);
    std::vector<MatX> expected(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        Rng rng(100 + t);
        MatX g(n, n);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                g(i, j) = rng.gaussian();
        a[t] = gram(g);
        for (int i = 0; i < n; ++i)
            a[t](i, i) += n;
        b[t] = MatX(n, 3);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < 3; ++j)
                b[t](i, j) = rng.gaussian();
        // Direct flow (what Msckf does without a hub).
        Cholesky chol(a[t]);
        ASSERT_TRUE(chol.ok());
        expected[t] = chol.solve(b[t]);
    }

    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            SolveHub::StageGuard guard(&hub);
            sync.arrive_and_wait(); // all stages registered
            if (!hub.solveSpd(a[t], b[t], x[t]))
                failures.fetch_add(1);
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(failures.load(), 0);
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(x[t].rows(), n);
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < 3; ++j)
                EXPECT_EQ(x[t](i, j), expected[t](i, j))
                    << "thread " << t;
    }
    SolveHubStats stats = hub.stats();
    const int k = static_cast<int>(BatchKernel::SpdSolve);
    EXPECT_EQ(stats.requests[k], kThreads);
    EXPECT_EQ(stats.batches[k], 1);
    EXPECT_EQ(stats.max_batch[k], kThreads);
}

TEST(SolveHub, SafetyRequestNeverWaitsOnBestEffortStages)
{
    // Two best-effort stages register and then never submit; a
    // safety-class stage submits one request. The priority rendezvous
    // must release it as a safety-led batch instead of waiting for the
    // full (and here, never-completing) best-effort wave — with the
    // result bit-identical to the direct kernel.
    const int n = 24;
    SolveHub hub;

    Rng rng(7);
    MatX g(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j)
            g(i, j) = rng.gaussian();
    MatX a = gram(g);
    for (int i = 0; i < n; ++i)
        a(i, i) += n;
    MatX b(n, 3);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < 3; ++j)
            b(i, j) = rng.gaussian();
    Cholesky chol(a);
    ASSERT_TRUE(chol.ok());
    MatX expected = chol.solve(b);

    std::atomic<bool> release{false};
    std::barrier sync(3);
    auto bystander = [&] {
        SolveHub::StageGuard guard(&hub, /*safety=*/false);
        sync.arrive_and_wait(); // registered, now stall
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    std::thread be1(bystander), be2(bystander);
    sync.arrive_and_wait(); // both best-effort stages are inside

    MatX x;
    {
        SolveHub::StageGuard guard(&hub, /*safety=*/true);
        ASSERT_TRUE(hub.solveSpd(a, b, x)); // must not deadlock
    }
    release.store(true);
    be1.join();
    be2.join();

    ASSERT_EQ(x.rows(), n);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_EQ(x(i, j), expected(i, j));
    SolveHubStats stats = hub.stats();
    EXPECT_EQ(stats.safety_requests, 1);
    EXPECT_EQ(stats.safety_batches, 1);
}

// --- Gang window ------------------------------------------------------------

TEST(LocalizerPool, GangWindowKeepsPosesBitIdenticalAndAlignsBatches)
{
    const int kSessions = 4;
    const int kFrames = 8;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    auto ref = makeLocalizer(r, d);
    std::vector<LocalizationResult> expected;
    for (int i = 0; i < kFrames; ++i)
        expected.push_back(ref->processFrame(inputFor(d, i)));

    PoolConfig pcfg;
    pcfg.workers = kSessions; // alignment width = min(workers, sessions)
    pcfg.queue_capacity = 16;
    pcfg.gang_window = true; // implies batch_solves
    LocalizerPool pool(pcfg);
    for (int sid = 0; sid < kSessions; ++sid)
        pool.addSession(makeLocalizer(r, d));

    // Atomic lockstep arrival: admitting every session's frames in one
    // batch keeps submission from racing worker dispatch, so wave
    // widths are deterministic (streamed per-frame submit() would let
    // an early worker stage a lone first arrival into a narrow wave).
    std::vector<std::pair<int, FrameInput>> batch;
    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            batch.emplace_back(sid, inputFor(d, i));
    ASSERT_EQ(pool.submitBatch(std::move(batch)), kFrames * kSessions);
    pool.drain();

    std::vector<std::vector<LocalizationResult>> per(kSessions);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));
    for (int sid = 0; sid < kSessions; ++sid) {
        ASSERT_EQ(per[sid].size(), static_cast<size_t>(kFrames));
        for (int i = 0; i < kFrames; ++i)
            expectPosesIdentical(expected[i], per[sid][i], i);
    }

    // The gang window aligns the sessions' backend stages, so the hub
    // must observe batches near the session count — the acceptance
    // target, not just opportunistic grouping.
    SolveHubStats stats = pool.solveStats();
    const int k = static_cast<int>(BatchKernel::Projection);
    ASSERT_GT(stats.requests[k], 0);
    EXPECT_GE(stats.meanBatch(BatchKernel::Projection),
              0.8 * kSessions);
    EXPECT_EQ(stats.max_batch[k], kSessions);
}

/**
 * Pool stress with *different* modes under the gang window: VIO + SLAM
 * + registration sessions rendezvous at the same windows (each mode
 * batching its own kernel class), every per-session pose stream stays
 * bit-identical to its solo run, and the rendezvous never deadlocks
 * (SLAM frames submit zero or one hub request depending on
 * marginalization, registration one or two — the window must absorb
 * all of it).
 */
TEST(LocalizerPool, MixedModeGangStressMatchesSoloRuns)
{
    const int kFrames = 10;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    // Per-session configurations over the shared dataset/assets.
    std::vector<LocalizerConfig> cfgs;
    {
        LocalizerConfig vio;
        vio.mode = BackendMode::Vio;
        vio.use_gps = false;
        LocalizerConfig slam;
        slam.mode = BackendMode::Slam;
        slam.mapping.keyframe_interval = 1;
        slam.mapping.window_size = 4;
        LocalizerConfig reg = r.lcfg;
        ASSERT_EQ(reg.mode, BackendMode::Registration);
        cfgs = {vio, slam, reg, vio};
    }
    const int kSessions = static_cast<int>(cfgs.size());

    auto makeFor = [&](const LocalizerConfig &cfg) {
        auto loc = std::make_unique<Localizer>(
            cfg, d.rig(),
            cfg.mode != BackendMode::Vio ? &r.voc : nullptr,
            cfg.mode == BackendMode::Registration ? &r.prior_map
                                                  : nullptr);
        loc->initialize(d.truthAt(0), 0.0,
                        d.trajectory().velocityAt(0.0));
        return loc;
    };

    // Solo references.
    std::vector<std::vector<LocalizationResult>> expected(kSessions);
    for (int sid = 0; sid < kSessions; ++sid) {
        auto solo = makeFor(cfgs[sid]);
        for (int i = 0; i < kFrames; ++i)
            expected[sid].push_back(solo->processFrame(inputFor(d, i)));
    }

    PoolConfig pcfg;
    pcfg.workers = kSessions;
    pcfg.queue_capacity = 12;
    pcfg.gang_window = true;
    LocalizerPool pool(pcfg);
    for (int sid = 0; sid < kSessions; ++sid)
        pool.addSession(makeFor(cfgs[sid]));

    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain(); // completing at all proves no rendezvous deadlock

    std::vector<std::vector<LocalizationResult>> per(kSessions);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));
    for (int sid = 0; sid < kSessions; ++sid) {
        ASSERT_EQ(per[sid].size(), static_cast<size_t>(kFrames))
            << "session " << sid;
        for (int i = 0; i < kFrames; ++i) {
            SCOPED_TRACE("session " + std::to_string(sid));
            expectPosesIdentical(expected[sid][i], per[sid][i], i);
        }
    }

    // Every mode's kernel class went through the hub.
    SolveHubStats stats = pool.solveStats();
    EXPECT_GT(stats.requests[static_cast<int>(BatchKernel::Projection)],
              0);
    EXPECT_GT(stats.requests[static_cast<int>(BatchKernel::SpdSolve)],
              0);
    EXPECT_GT(stats.requests[static_cast<int>(BatchKernel::LuSolve)], 0);
}

TEST(SolveHub, BatchedProjectionMatchesDirectKernel)
{
    // Two sessions sharing one map: the stacked product must hand each
    // session exactly the pixels of the direct per-session kernel.
    Map map;
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        MapPoint mp;
        mp.position =
            Vec3{rng.uniform(-20, 20), rng.uniform(-20, 20),
                 rng.uniform(1, 30)};
        map.addPoint(mp);
    }
    const int m = map.pointCount();

    auto randomC = [&](uint64_t seed) {
        Rng r2(seed);
        MatX c(3, 4);
        for (int i = 0; i < 3; ++i)
            for (int j = 0; j < 4; ++j)
                c(i, j) = r2.gaussian();
        return c;
    };
    std::vector<MatX> cs = {randomC(1), randomC(2)};

    // Direct kernel (the hubless Tracker path).
    MatX x_rows(m, 4);
    for (int i = 0; i < m; ++i) {
        x_rows(i, 0) = map.points()[i].position[0];
        x_rows(i, 1) = map.points()[i].position[1];
        x_rows(i, 2) = map.points()[i].position[2];
        x_rows(i, 3) = 1.0;
    }
    std::vector<MatX> expected(2);
    multiplyTransposedInto(x_rows, cs[0], expected[0]);
    multiplyTransposedInto(x_rows, cs[1], expected[1]);

    SolveHub hub;
    std::vector<MatX> f(2);
    std::barrier sync(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            SolveHub::StageGuard guard(&hub);
            sync.arrive_and_wait();
            hub.project(&map, /*static_map=*/true, cs[t], f[t]);
        });
    }
    for (auto &th : threads)
        th.join();

    for (int t = 0; t < 2; ++t) {
        ASSERT_EQ(f[t].rows(), m);
        for (int i = 0; i < m; ++i)
            for (int j = 0; j < 3; ++j)
                EXPECT_EQ(f[t](i, j), expected[t](i, j))
                    << "session " << t << " point " << i;
    }
    const int k = static_cast<int>(BatchKernel::Projection);
    EXPECT_EQ(hub.stats().max_batch[k], 2);

    // Second round against the now-warm static-map cache (and the
    // singleton-group path): still bit-identical.
    MatX f2;
    {
        SolveHub::StageGuard guard(&hub);
        hub.project(&map, /*static_map=*/true, cs[0], f2);
    }
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_EQ(f2(i, j), expected[0](i, j)) << "cached point " << i;
}

// --- Pool / pipeline lifecycle edges ----------------------------------------

TEST(LocalizerPool, QueueCapacityZeroClampsToOne)
{
    const int kFrames = 3;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);
    PoolConfig pcfg;
    pcfg.workers = 1;
    pcfg.queue_capacity = 0; // must clamp, not divide-by-zero / livelock
    LocalizerPool pool(pcfg);
    int sid = pool.addSession(makeLocalizer(r, d));
    for (int i = 0; i < kFrames; ++i)
        ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain();
    int results = 0;
    PoolResult pr;
    while (pool.poll(pr))
        ++results;
    EXPECT_EQ(results, kFrames);
}

TEST(LocalizerPool, ShutdownWithQueuedWorkCompletesEverything)
{
    const int kFrames = 6;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);
    PoolConfig pcfg;
    pcfg.workers = 1;
    pcfg.queue_capacity = kFrames;
    LocalizerPool pool(pcfg);
    int sid = pool.addSession(makeLocalizer(r, d));
    for (int i = 0; i < kFrames; ++i)
        ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    // No drain(): shutdown itself must drain the queued frames, not
    // abandon them.
    pool.shutdown();
    int results = 0;
    PoolResult pr;
    while (pool.poll(pr))
        ++results;
    EXPECT_EQ(results, kFrames);
    // Unknown ids still throw after shutdown; valid ids are rejected.
    EXPECT_THROW(pool.submit(99, inputFor(d, 0)), std::out_of_range);
    EXPECT_FALSE(pool.submit(sid, inputFor(d, 0)));
}

TEST(LocalizerPool, DrainWaitsForParkedSubmitter)
{
    // A producer parked in submit() on the class quota used to be
    // invisible to drain()/shutdown() (it had not yet incremented the
    // submitted counter), so a racing shutdown dropped its frame after
    // the wake-up stopping check. In-flight submitters are now
    // tracked: every submit() entered before shutdown() began must
    // succeed and yield a result.
    const int kFrames = 4;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);
    PoolConfig pcfg;
    pcfg.workers = 1;
    pcfg.queue_capacity = 1; // park the producer while a frame runs
    LocalizerPool pool(pcfg);
    int sid = pool.addSession(makeLocalizer(r, d));

    // Inputs pre-built: the submit stream must be tight so the drain
    // inside shutdown() cannot legitimately complete between two
    // widely-spaced submissions.
    std::vector<FrameInput> inputs;
    for (int i = 0; i < kFrames; ++i)
        inputs.push_back(inputFor(d, i));

    std::atomic<int> accepted{0};
    std::thread producer([&] {
        for (FrameInput &in : inputs)
            if (pool.submit(sid, std::move(in)))
                accepted.fetch_add(1);
    });
    // Shut down once the producer is demonstrably mid-stream: with a
    // quota of 1 and multi-millisecond frames, the later submits are
    // parked on the quota and must still be honored.
    while (pool.stats().submitted < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.shutdown();
    producer.join();

    EXPECT_EQ(accepted.load(), kFrames);
    int results = 0;
    PoolResult pr;
    while (pool.poll(pr))
        ++results;
    EXPECT_EQ(results, kFrames);
}

TEST(LocalizerPool, AwaitResultSurvivesProducerGaps)
{
    // The old predicate returned false ("all drained") whenever
    // completed == submitted held transiently between two producer
    // submissions; with gaps in the producer stream a consumer loop
    // exited after the first frame. The predicate is now
    // shutdown-aware: the loop must collect every frame.
    const int kFrames = 5;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);
    LocalizerPool pool(PoolConfig{.workers = 1, .queue_capacity = 4});
    int sid = pool.addSession(makeLocalizer(r, d));

    std::thread producer([&] {
        for (int i = 0; i < kFrames; ++i) {
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
            // Idle gap: the pool fully drains between submissions.
            std::this_thread::sleep_for(std::chrono::milliseconds(15));
        }
        pool.shutdown();
    });

    int collected = 0;
    PoolResult pr;
    while (pool.awaitResult(pr)) {
        EXPECT_EQ(pr.result.frame_index, collected);
        ++collected;
    }
    producer.join();
    EXPECT_EQ(collected, kFrames);
}

TEST(FramePipeline, AwaitResultSurvivesProducerGaps)
{
    const int kFrames = 5;
    TestRun r = makeRun(SceneType::OutdoorUnknown, kFrames);
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);
    FramePipeline pipeline(*loc, PipelineConfig{.cuts = {2}});

    std::thread producer([&] {
        for (int i = 0; i < kFrames; ++i) {
            ASSERT_TRUE(pipeline.submit(inputFor(d, i)));
            std::this_thread::sleep_for(std::chrono::milliseconds(15));
        }
        pipeline.close();
    });

    int collected = 0;
    LocalizationResult res;
    while (pipeline.awaitResult(res)) {
        EXPECT_EQ(res.frame_index, collected);
        ++collected;
    }
    producer.join();
    EXPECT_EQ(collected, kFrames);
}

TEST(FramePipeline, ConcurrentCloseIsSafe)
{
    // close() used to drop its lock between the closed check and
    // flush(), so two concurrent closers could both flush and race
    // in_q_.close()/join() — double-join is UB. Closers are now
    // serialized end-to-end; every caller returns only after the
    // workers are joined.
    const int kFrames = 6;
    TestRun r = makeRun(SceneType::OutdoorUnknown, kFrames);
    Dataset d(r.dcfg);
    auto loc = makeLocalizer(r, d);
    FramePipeline pipeline(*loc, PipelineConfig{.cuts = {2}});
    for (int i = 0; i < kFrames; ++i)
        ASSERT_TRUE(pipeline.submit(inputFor(d, i)));

    std::vector<std::thread> closers;
    for (int t = 0; t < 3; ++t)
        closers.emplace_back([&] { pipeline.close(); });
    for (auto &t : closers)
        t.join();

    // Defined submit-after-close behavior: rejected, no side effects.
    EXPECT_FALSE(pipeline.submit(inputFor(d, 0)));
    EXPECT_EQ(pipeline.stats().frames, kFrames);
}

// --- QoS admission control --------------------------------------------------

/**
 * Oversubscribed mixed-class pool: one safety-critical session and a
 * fleet of best-effort sessions submit faster than the workers can
 * serve. The pool must degrade selectively — the safety-critical
 * stream completes in full and bit-identical to an unloaded run, the
 * best-effort sessions shed frames via drop-oldest, and every
 * non-dropped best-effort pose is bit-identical to replaying exactly
 * the admitted subset through a solo localizer (a dropped frame
 * behaves like one that was never captured).
 */
void
checkQosShedding(bool gang)
{
    const int kFrames = 10;
    const int kBestEffort = 3;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);
    // Every input is rendered before the first submit, so the producer
    // below only copies frames and always outpaces the pool, whatever
    // the host's speed or instrumentation.
    std::vector<FrameInput> inputs;
    for (int i = 0; i < kFrames; ++i)
        inputs.push_back(inputFor(d, i));

    auto ref = makeLocalizer(r, d);
    std::vector<LocalizationResult> expected;
    for (int i = 0; i < kFrames; ++i)
        expected.push_back(ref->processFrame(inputs[i]));

    PoolConfig pcfg;
    pcfg.workers = 2;
    pcfg.reserved_workers = 1; // one worker held back for the vehicle
    pcfg.queue_capacity = 16;
    pcfg.best_effort_capacity = 2; // tiny: forces drop-oldest shedding
    pcfg.gang_window = gang;
    if (gang)
        pcfg.gang_timeout_ms = 20.0; // waves must not wait on laggards
    LocalizerPool pool(pcfg);

    const int sc = pool.addSession(
        makeLocalizer(r, d), SessionConfig{QosClass::SafetyCritical});
    std::vector<int> be;
    for (int k = 0; k < kBestEffort; ++k)
        be.push_back(pool.addSession(
            makeLocalizer(r, d), SessionConfig{QosClass::BestEffort}));

    for (int i = 0; i < kFrames; ++i) {
        ASSERT_TRUE(pool.submit(sc, inputs[i]));
        for (int sid : be)
            ASSERT_TRUE(pool.submit(sid, inputs[i]));
    }
    pool.drain();

    std::vector<std::vector<LocalizationResult>> per(1 + kBestEffort);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));

    // Safety-critical: complete, in order, bit-identical.
    ASSERT_EQ(per[sc].size(), static_cast<size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
        SCOPED_TRACE(gang ? "gang on" : "gang off");
        EXPECT_EQ(per[sc][i].frame_index, i);
        expectPosesIdentical(expected[i], per[sc][i], i);
    }

    // Best-effort: the non-dropped subset is bit-identical to a solo
    // run over exactly that subset.
    for (int sid : be) {
        auto solo = makeLocalizer(r, d);
        int prev = -1;
        for (const LocalizationResult &res : per[sid]) {
            SCOPED_TRACE("session " + std::to_string(sid) +
                         (gang ? " gang on" : " gang off"));
            EXPECT_GT(res.frame_index, prev); // order preserved
            prev = res.frame_index;
            LocalizationResult cmp =
                solo->processFrame(inputs[res.frame_index]);
            expectPosesIdentical(cmp, res, res.frame_index);
        }
    }

    PoolStats st = pool.stats();
    EXPECT_EQ(st.sessions[sc].qos, QosClass::SafetyCritical);
    EXPECT_EQ(st.sessions[sc].completed, kFrames);
    EXPECT_EQ(st.sessions[sc].dropped(), 0);
    long be_dropped = 0, be_completed = 0;
    for (int sid : be) {
        const SessionPoolStats &s = st.sessions[sid];
        EXPECT_EQ(s.qos, QosClass::BestEffort);
        EXPECT_EQ(s.completed + s.dropped(), s.submitted);
        EXPECT_EQ(s.completed,
                  static_cast<long>(per[sid].size()));
        be_dropped += s.dropped();
        be_completed += s.completed;
    }
    // The pool was offered 4x its serving rate into a 2-deep
    // best-effort quota: shedding must have happened.
    EXPECT_GT(be_dropped, 0);
    EXPECT_EQ(st.dropped, be_dropped);
    EXPECT_EQ(st.completed, kFrames + be_completed);
    EXPECT_EQ(st.submitted, st.completed + st.dropped);
}

TEST(LocalizerPool, OversubscribedPoolShedsOnlyBestEffort)
{
    checkQosShedding(/*gang=*/false);
}

TEST(LocalizerPool, OversubscribedPoolShedsOnlyBestEffortGangWindow)
{
    checkQosShedding(/*gang=*/true);
}

TEST(LocalizerPool, BestEffortDeadlineDropsStaleFrames)
{
    const int kFrames = 4;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    PoolConfig pcfg;
    pcfg.workers = 1;
    pcfg.queue_capacity = 2 * kFrames;
    LocalizerPool pool(pcfg);
    const int sc = pool.addSession(
        makeLocalizer(r, d), SessionConfig{QosClass::SafetyCritical});
    SessionConfig be_cfg;
    be_cfg.qos = QosClass::BestEffort;
    be_cfg.frame_deadline_ms = 0.01; // far below one frame's latency
    const int be = pool.addSession(makeLocalizer(r, d), be_cfg);

    // The single worker starts on the safety-critical backlog, so by
    // the time any best-effort frame reaches dispatch it has aged past
    // its deadline — all of them must be shed, none processed.
    for (int i = 0; i < kFrames; ++i)
        ASSERT_TRUE(pool.submit(sc, inputFor(d, i)));
    for (int i = 0; i < kFrames; ++i)
        ASSERT_TRUE(pool.submit(be, inputFor(d, i)));
    pool.drain();

    PoolStats st = pool.stats();
    EXPECT_EQ(st.sessions[sc].completed, kFrames);
    EXPECT_EQ(st.sessions[be].completed, 0);
    EXPECT_EQ(st.sessions[be].dropped_deadline, kFrames);
    int results = 0;
    PoolResult pr;
    while (pool.poll(pr)) {
        EXPECT_EQ(pr.session_id, sc);
        EXPECT_EQ(pr.qos, QosClass::SafetyCritical);
        ++results;
    }
    EXPECT_EQ(results, kFrames);
}

TEST(LocalizerPool, GangWindowSingleWorkerCompletes)
{
    // One worker, several gang sessions: waves can only ever be one
    // backend wide, and the window must keep cycling instead of
    // waiting for a concurrency that cannot exist.
    const int kSessions = 2;
    const int kFrames = 4;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    auto ref = makeLocalizer(r, d);
    std::vector<LocalizationResult> expected;
    for (int i = 0; i < kFrames; ++i)
        expected.push_back(ref->processFrame(inputFor(d, i)));

    PoolConfig pcfg;
    pcfg.workers = 1;
    pcfg.queue_capacity = 8;
    pcfg.gang_window = true;
    LocalizerPool pool(pcfg);
    for (int sid = 0; sid < kSessions; ++sid)
        pool.addSession(makeLocalizer(r, d));
    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain(); // completing at all proves the window cannot stall

    std::vector<std::vector<LocalizationResult>> per(kSessions);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));
    for (int sid = 0; sid < kSessions; ++sid) {
        ASSERT_EQ(per[sid].size(), static_cast<size_t>(kFrames));
        for (int i = 0; i < kFrames; ++i)
            expectPosesIdentical(expected[i], per[sid][i], i);
    }
}

TEST(LocalizerPool, GangTimeoutReleasesNarrowerWavesBitIdentical)
{
    // A tiny wave timeout forces the window to release narrower
    // pre-announced waves whenever frontends lag behind the first
    // parked frame. Narrowing changes only *when* backends run: the
    // pose streams must stay bit-identical and the pool must drain.
    const int kSessions = 4;
    const int kFrames = 6;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    auto ref = makeLocalizer(r, d);
    std::vector<LocalizationResult> expected;
    for (int i = 0; i < kFrames; ++i)
        expected.push_back(ref->processFrame(inputFor(d, i)));

    PoolConfig pcfg;
    pcfg.workers = kSessions;
    pcfg.queue_capacity = 16;
    pcfg.gang_window = true;
    pcfg.gang_timeout_ms = 1.0; // well below one frontend's latency
    LocalizerPool pool(pcfg);
    for (int sid = 0; sid < kSessions; ++sid)
        pool.addSession(makeLocalizer(r, d));
    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain();

    std::vector<std::vector<LocalizationResult>> per(kSessions);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));
    for (int sid = 0; sid < kSessions; ++sid) {
        ASSERT_EQ(per[sid].size(), static_cast<size_t>(kFrames));
        for (int i = 0; i < kFrames; ++i)
            expectPosesIdentical(expected[i], per[sid][i], i);
    }

    // Every released wave was pre-announced to the hub, whatever its
    // width (dynamic gang width).
    SolveHubStats stats = pool.solveStats();
    EXPECT_GT(stats.waves_announced, 0);
    EXPECT_GE(stats.min_wave, 1);
    EXPECT_LE(stats.max_wave, kSessions);
    EXPECT_EQ(stats.entries_announced >= stats.waves_announced, true);
}

/**
 * Fault injection under the gang window: one session's sensors
 * collapse mid-run (featureless frames + GPS outage). The faulty
 * session must neither stall its gang wave (the pool drains all
 * frames of all sessions) nor poison its neighbours (every healthy
 * session stays bit-identical to the solo run), and the pool's
 * serving counters must expose the victim's degraded health.
 */
TEST(LocalizerPool, FaultySessionDoesNotStallOrPoisonTheGang)
{
    const int kSessions = 3;
    const int kFrames = 10;
    const int kFaulty = 1;
    const int kFaultFrom = 3, kFaultTo = 7;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    ImageU8 blank(d.rig().cam.width, d.rig().cam.height, 128);
    auto faultyInput = [&](int i) {
        FrameInput in = inputFor(d, i);
        if (i >= kFaultFrom && i < kFaultTo) {
            in.left = blank;
            in.right = blank;
            in.gps = GpsSample{}; // valid = false
        }
        return in;
    };

    // Solo references: the clean stream and the faulty stream.
    auto clean_ref = makeLocalizer(r, d);
    auto faulty_ref = makeLocalizer(r, d);
    std::vector<LocalizationResult> clean_expected, faulty_expected;
    for (int i = 0; i < kFrames; ++i) {
        clean_expected.push_back(clean_ref->processFrame(inputFor(d, i)));
        faulty_expected.push_back(faulty_ref->processFrame(faultyInput(i)));
    }

    PoolConfig pcfg;
    pcfg.workers = kSessions;
    pcfg.queue_capacity = 16;
    pcfg.gang_window = true;
    pcfg.gang_timeout_ms = 50.0; // a stalled wave must time out, not hang
    LocalizerPool pool(pcfg);
    for (int sid = 0; sid < kSessions; ++sid)
        pool.addSession(makeLocalizer(r, d));

    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(
                sid, sid == kFaulty ? faultyInput(i) : inputFor(d, i)));
    pool.drain();

    std::vector<std::vector<LocalizationResult>> per(kSessions);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));

    for (int sid = 0; sid < kSessions; ++sid) {
        // No stall: every session completed every frame.
        ASSERT_EQ(per[sid].size(), static_cast<size_t>(kFrames))
            << "session " << sid;
        const auto &expected =
            sid == kFaulty ? faulty_expected : clean_expected;
        for (int i = 0; i < kFrames; ++i)
            expectPosesIdentical(expected[i], per[sid][i], i);
    }

    // The victim's collapse is visible in the pool's serving counters;
    // the healthy sessions report clean streams.
    PoolStats stats = pool.stats();
    ASSERT_EQ(stats.sessions.size(), static_cast<size_t>(kSessions));
    long victim_unhealthy = 0;
    for (int h = 1; h < kTrackingHealthStates; ++h)
        victim_unhealthy += stats.sessions[kFaulty].health_frames[h];
    EXPECT_GT(victim_unhealthy, 0);
    for (int sid = 0; sid < kSessions; ++sid) {
        if (sid == kFaulty)
            continue;
        EXPECT_EQ(stats.sessions[sid].health_frames[static_cast<int>(
                      TrackingHealth::Nominal)],
                  static_cast<long>(kFrames))
            << "session " << sid;
        EXPECT_EQ(stats.sessions[sid].dead_reckoned_frames, 0);
    }
}

// --- Elastic worker scaling ------------------------------------------------

TEST(LocalizerPool, ElasticPoolGrowsUnderLoadAndShrinksWhenIdle)
{
    const int kSessions = 3, kFrames = 6;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    PoolConfig pcfg;
    pcfg.workers = 1; // starting width only
    pcfg.elastic_workers = true;
    pcfg.max_workers = 3;
    pcfg.grow_wait_ms = 0.5;   // any real backlog triggers growth
    pcfg.shrink_idle_ms = 25.0; // retire fast once the burst is done
    pcfg.queue_capacity = 8;
    LocalizerPool pool(pcfg);
    for (int sid = 0; sid < kSessions; ++sid)
        pool.addSession(makeLocalizer(r, d));

    // Burst: three streams over one worker force queue waits past the
    // growth threshold.
    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain();

    PoolStats busy = pool.stats();
    EXPECT_EQ(busy.completed, static_cast<long>(kSessions) * kFrames);
    EXPECT_GT(busy.workers_grown, 0);
    EXPECT_LE(busy.workers, 3);

    // Sustained idle: the pool must fall back to the minimum width
    // (one worker here — no reservation).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (pool.stats().workers > 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    PoolStats idle = pool.stats();
    EXPECT_EQ(idle.workers, 1);
    EXPECT_GT(idle.workers_retired, 0);

    // ...and still serves new work afterwards.
    ASSERT_TRUE(pool.submit(0, inputFor(d, 0)));
    pool.drain();
    EXPECT_EQ(pool.stats().completed, busy.completed + 1);
}

TEST(LocalizerPool, GangWindowWithReplanAndSafetySessionStaysBitExact)
{
    // A safety-class member must not disturb the gang rendezvous:
    // every pose stays bit-identical to the solo run, and the safety
    // session's hub requests are tracked by the priority rendezvous.
    const int kSessions = 4, kFrames = 8;
    TestRun r = makeRun(SceneType::IndoorKnown, kFrames);
    Dataset d(r.dcfg);

    auto ref = makeLocalizer(r, d);
    std::vector<LocalizationResult> expected;
    for (int i = 0; i < kFrames; ++i)
        expected.push_back(ref->processFrame(inputFor(d, i)));

    PoolConfig pcfg;
    pcfg.workers = kSessions;
    pcfg.queue_capacity = 8;
    pcfg.gang_window = true;
    pcfg.gang_timeout_ms = 50.0;
    LocalizerPool pool(pcfg);
    SessionConfig safety_cfg;
    safety_cfg.qos = QosClass::SafetyCritical;
    pool.addSession(makeLocalizer(r, d), safety_cfg);
    for (int sid = 1; sid < kSessions; ++sid)
        pool.addSession(makeLocalizer(r, d));

    for (int i = 0; i < kFrames; ++i)
        for (int sid = 0; sid < kSessions; ++sid)
            ASSERT_TRUE(pool.submit(sid, inputFor(d, i)));
    pool.drain();

    std::vector<std::vector<LocalizationResult>> per(kSessions);
    PoolResult pr;
    while (pool.poll(pr))
        per[pr.session_id].push_back(std::move(pr.result));
    for (int sid = 0; sid < kSessions; ++sid) {
        ASSERT_EQ(per[sid].size(), static_cast<size_t>(kFrames))
            << "session " << sid;
        for (int i = 0; i < kFrames; ++i)
            expectPosesIdentical(expected[i], per[sid][i], i);
    }

    SolveHubStats hs = pool.solveStats();
    EXPECT_GT(hs.safety_requests, 0);
}

} // namespace
} // namespace edx
