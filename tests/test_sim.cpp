/**
 * @file
 * Unit tests for the simulation substrate: worlds, trajectories, the
 * stereo renderer, and the full dataset generator that replaces the
 * paper's KITTI/EuRoC/in-house logs.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "sim/dataset.hpp"
#include "sim/renderer.hpp"
#include "sim/trajectory.hpp"
#include "sim/world.hpp"

namespace edx {
namespace {

TEST(World, IndoorGenerationIsDeterministic)
{
    WorldConfig cfg;
    cfg.seed = 99;
    World a = World::generateIndoor(cfg);
    World b = World::generateIndoor(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.landmarks()[i].texture_id, b.landmarks()[i].texture_id);
        EXPECT_NEAR(
            (a.landmarks()[i].position - b.landmarks()[i].position).norm(),
            0.0, 1e-15);
    }
}

TEST(World, DifferentSeedsGiveDifferentWorlds)
{
    WorldConfig a_cfg, b_cfg;
    a_cfg.seed = 1;
    b_cfg.seed = 2;
    World a = World::generateIndoor(a_cfg);
    World b = World::generateIndoor(b_cfg);
    ASSERT_EQ(a.size(), b.size());
    bool any_differs = false;
    for (size_t i = 0; i < a.size() && !any_differs; ++i)
        any_differs =
            (a.landmarks()[i].position - b.landmarks()[i].position).norm() >
            1e-9;
    EXPECT_TRUE(any_differs);
}

TEST(World, IndoorLandmarksStayInsideRoom)
{
    WorldConfig cfg;
    cfg.room_half_extent = 10.0;
    World w = World::generateIndoor(cfg);
    ASSERT_EQ(w.size(), static_cast<size_t>(cfg.landmark_count));
    for (const Landmark &l : w.landmarks()) {
        EXPECT_LE(std::abs(l.position[0]), cfg.room_half_extent + 1e-9);
        EXPECT_LE(std::abs(l.position[1]), cfg.room_half_extent + 1e-9);
        EXPECT_GE(l.position[2], 0.0);
        EXPECT_GE(l.brightness, 0);
        EXPECT_LE(l.brightness, 255);
    }
}

TEST(World, OutdoorLandmarksSurroundTheLoop)
{
    WorldConfig cfg;
    cfg.loop_radius = 40.0;
    World w = World::generateOutdoor(cfg);
    int near_loop = 0;
    for (const Landmark &l : w.landmarks()) {
        double r = std::hypot(l.position[0], l.position[1]);
        if (r > 0.3 * cfg.loop_radius && r < 3.0 * cfg.loop_radius)
            ++near_loop;
    }
    // The bulk of the landmark mass lives in the annulus around the loop.
    EXPECT_GT(near_loop, static_cast<int>(w.size()) / 2);
}

TEST(Trajectory, PositionIsSmoothAndPeriodic)
{
    Trajectory traj = Trajectory::car(30.0, 60.0);
    Vec3 start = traj.positionAt(0.0);
    Vec3 lap = traj.positionAt(60.0);
    EXPECT_NEAR((start - lap).norm(), 0.0, 1e-6);

    // No teleporting: adjacent samples are close.
    for (double t = 0.0; t < 60.0; t += 0.05) {
        Vec3 a = traj.positionAt(t);
        Vec3 b = traj.positionAt(t + 0.05);
        EXPECT_LT((a - b).norm(), 1.0);
    }
}

TEST(Trajectory, VelocityMatchesFiniteDifference)
{
    Trajectory traj = Trajectory::drone(8.0, 40.0);
    const double h = 1e-5;
    for (double t = 0.3; t < 39.0; t += 2.7) {
        Vec3 num = (traj.positionAt(t + h) - traj.positionAt(t - h)) /
                   (2.0 * h);
        Vec3 v = traj.velocityAt(t);
        EXPECT_NEAR((num - v).norm(), 0.0, 1e-3)
            << "velocity mismatch at t=" << t;
    }
}

TEST(Trajectory, ImuTruthIntegratesBackToTrajectory)
{
    // Strapdown-integrate the analytic IMU truth and verify the result
    // tracks the analytic pose. This is the property the MSCKF relies on.
    Trajectory traj = Trajectory::drone(8.0, 40.0);
    const double dt = 1e-3;

    Pose pose = traj.poseAt(0.0);
    Vec3 v = traj.velocityAt(0.0);
    Quat q = pose.rotation;
    Vec3 p = pose.translation;
    const Vec3 g = gravityWorld();

    for (double t = 0.0; t < 2.0; t += dt) {
        ImuSample s = traj.imuTruthAt(t + 0.5 * dt); // midpoint
        Vec3 a_world = q.rotate(s.accel) + g;
        q = (q * Quat::exp(s.gyro * dt)).normalized();
        p += v * dt + a_world * (0.5 * dt * dt);
        v += a_world * dt;
    }
    Pose truth = traj.poseAt(2.0);
    EXPECT_LT((p - truth.translation).norm(), 0.02)
        << "integrated position drifted";
    EXPECT_LT(q.angularDistance(truth.rotation), 0.01)
        << "integrated orientation drifted";
}

TEST(Trajectory, BodyXAxisAlignsWithVelocity)
{
    Trajectory traj = Trajectory::car(30.0, 60.0);
    for (double t = 1.0; t < 50.0; t += 7.3) {
        Pose pose = traj.poseAt(t);
        Vec3 fwd = pose.rotation.rotate(Vec3{1.0, 0.0, 0.0});
        Vec3 v = traj.velocityAt(t).normalized();
        EXPECT_GT(fwd.dot(v), 0.95) << "heading not along velocity at " << t;
    }
}

TEST(Renderer, LandmarkInViewProducesTexture)
{
    // A world with a single landmark straight ahead must yield brighter
    // or darker pixels than the background near its projection.
    WorldConfig wcfg;
    wcfg.landmark_count = 1;
    World world = World::generateIndoor(wcfg);

    StereoRig rig = platformRig(Platform::Drone);
    StereoRenderer renderer(rig, RenderConfig{}, /*seed=*/3);

    // Place the body so the landmark is ~4m in front along +x.
    const Landmark &lm = world.landmarks()[0];
    Pose pose(Quat::identity(), lm.position - Vec3{4.0, 0.0, 0.0});
    StereoFrame f = renderer.render(world, pose, 0);
    ASSERT_EQ(f.left.width(), rig.cam.width);
    ASSERT_EQ(f.left.height(), rig.cam.height);

    // Contrast check: the frame is not a constant image.
    int mn = 255, mx = 0;
    for (int y = 0; y < f.left.height(); ++y) {
        for (int x = 0; x < f.left.width(); ++x) {
            int v = f.left.at(x, y);
            mn = std::min(mn, v);
            mx = std::max(mx, v);
        }
    }
    EXPECT_GT(mx - mn, 30) << "rendered frame has no texture contrast";
}

TEST(Renderer, RenderingIsDeterministic)
{
    WorldConfig wcfg;
    World world = World::generateIndoor(wcfg);
    StereoRig rig = platformRig(Platform::Drone);
    StereoRenderer renderer(rig, RenderConfig{}, /*seed=*/4);
    Pose pose(Quat::identity(), Vec3{0.0, 0.0, 1.2});
    StereoFrame a = renderer.render(world, pose, 7);
    StereoFrame b = renderer.render(world, pose, 7);
    for (int y = 0; y < a.left.height(); y += 13)
        for (int x = 0; x < a.left.width(); x += 13)
            ASSERT_EQ(a.left.at(x, y), b.left.at(x, y));
}

DatasetConfig
smallDrone(SceneType scene)
{
    DatasetConfig cfg;
    cfg.scene = scene;
    cfg.platform = Platform::Drone;
    cfg.frame_count = 20;
    cfg.fps = 10.0;
    cfg.seed = 5;
    return cfg;
}

TEST(Dataset, FramesAreDeterministicAcrossInstances)
{
    Dataset a(smallDrone(SceneType::IndoorUnknown));
    Dataset b(smallDrone(SceneType::IndoorUnknown));
    DatasetFrame fa = a.frame(3);
    DatasetFrame fb = b.frame(3);
    ASSERT_EQ(fa.stereo.left.width(), fb.stereo.left.width());
    for (int y = 0; y < fa.stereo.left.height(); y += 7)
        for (int x = 0; x < fa.stereo.left.width(); x += 7)
            ASSERT_EQ(fa.stereo.left.at(x, y), fb.stereo.left.at(x, y));
    EXPECT_NEAR((fa.truth.translation - fb.truth.translation).norm(), 0.0,
                1e-15);
}

TEST(Dataset, ConcurrentOutdoorRendersMatchSequential)
{
    // Outdoor frames carry a per-frame lighting gain. It travels as a
    // render() argument, so two threads sharing one Dataset render
    // exactly the bytes a sequential caller gets.
    const Dataset d(smallDrone(SceneType::OutdoorUnknown));
    const int n = 8;
    std::vector<DatasetFrame> seq;
    for (int i = 0; i < n; ++i)
        seq.push_back(d.frame(i));
    std::vector<DatasetFrame> par(n);
    auto every_other = [&](int first) {
        for (int i = first; i < n; i += 2)
            par[i] = d.frame(i);
    };
    std::thread even(every_other, 0), odd(every_other, 1);
    even.join();
    odd.join();
    for (int i = 0; i < n; ++i)
        for (auto eye : {&StereoFrame::left, &StereoFrame::right}) {
            const ImageU8 &a = seq[i].stereo.*eye;
            const ImageU8 &b = par[i].stereo.*eye;
            ASSERT_EQ(a.pixelCount(), b.pixelCount());
            EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.pixelCount()))
                << "frame " << i;
        }
}

TEST(Dataset, TruthMatchesTrajectory)
{
    Dataset d(smallDrone(SceneType::IndoorUnknown));
    for (int i = 0; i < d.frameCount(); i += 3) {
        Pose truth = d.truthAt(i);
        Pose traj = d.trajectory().poseAt(i / d.config().fps);
        EXPECT_NEAR((truth.translation - traj.translation).norm(), 0.0,
                    1e-12);
    }
}

TEST(Dataset, ImuBatchesCoverInterFrameIntervals)
{
    Dataset d(smallDrone(SceneType::IndoorUnknown));
    double period = d.framePeriod();
    for (int i = 1; i < d.frameCount(); ++i) {
        auto batch = d.imuBetweenFrames(i);
        ASSERT_FALSE(batch.empty()) << "no IMU between frames at " << i;
        double t0 = (i - 1) * period;
        double t1 = i * period;
        for (const ImuSample &s : batch) {
            EXPECT_GT(s.t, t0 - 1e-9);
            EXPECT_LE(s.t, t1 + 1e-9);
        }
        // Roughly imu_rate / fps samples per interval.
        double expected = d.config().imu_rate_hz / d.config().fps;
        EXPECT_NEAR(static_cast<double>(batch.size()), expected,
                    expected * 0.5);
    }
    EXPECT_TRUE(d.imuBetweenFrames(0).empty());
}

TEST(Dataset, IndoorScenesHaveNoGps)
{
    Dataset d(smallDrone(SceneType::IndoorUnknown));
    for (int i = 0; i < d.frameCount(); ++i)
        EXPECT_FALSE(d.gpsAtFrame(i).valid);
}

TEST(Dataset, OutdoorScenesProvideGpsFixes)
{
    Dataset d(smallDrone(SceneType::OutdoorUnknown));
    int valid = 0;
    for (int i = 0; i < d.frameCount(); ++i)
        if (d.gpsAtFrame(i).valid)
            ++valid;
    EXPECT_GT(valid, d.frameCount() / 2);
}

TEST(Dataset, GpsFixesAreNearTruth)
{
    Dataset d(smallDrone(SceneType::OutdoorUnknown));
    for (int i = 0; i < d.frameCount(); ++i) {
        GpsSample s = d.gpsAtFrame(i);
        if (!s.valid)
            continue;
        // A fix is at most multipath-glitch distance from the truth at
        // its own timestamp.
        Pose truth = d.trajectory().poseAt(s.t);
        EXPECT_LT((s.position - truth.translation).norm(), 15.0);
    }
}

TEST(Dataset, PlatformRigsMatchPaperResolutions)
{
    StereoRig car = platformRig(Platform::Car);
    StereoRig drone = platformRig(Platform::Drone);
    EXPECT_EQ(car.cam.width, 1280);
    EXPECT_EQ(car.cam.height, 720);
    EXPECT_EQ(drone.cam.width, 640);
    EXPECT_EQ(drone.cam.height, 480);
    EXPECT_GT(car.baseline, 0.0);
    EXPECT_GT(drone.baseline, 0.0);
}

TEST(Dataset, SceneTraitsDriveSensorAvailability)
{
    for (SceneType scene :
         {SceneType::IndoorUnknown, SceneType::IndoorKnown,
          SceneType::OutdoorUnknown, SceneType::OutdoorKnown}) {
        Dataset d(smallDrone(scene));
        ScenarioTraits traits = d.traits();
        bool any_gps = false;
        for (int i = 0; i < d.frameCount(); ++i)
            any_gps = any_gps || d.gpsAtFrame(i).valid;
        EXPECT_EQ(any_gps, traits.gps_available)
            << "scene " << sceneName(scene);
    }
}

} // namespace
} // namespace edx
