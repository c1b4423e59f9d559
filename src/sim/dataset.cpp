#include "sim/dataset.hpp"

#include <cmath>

namespace edx {

StereoRig
platformRig(Platform p)
{
    StereoRig rig;
    // Camera optical frame: z forward, x right, y down. Body frame:
    // x forward, y left, z up. Columns of R are the camera axes
    // expressed in body coordinates.
    rig.body_from_camera.rotation = Quat::fromRotationMatrix(
        Mat3{0, 0, 1,
             -1, 0, 0,
             0, -1, 0});
    rig.body_from_camera.translation = Vec3{0.1, 0.0, 0.0};

    if (p == Platform::Car) {
        rig.cam.width = 1280;
        rig.cam.height = 720;
        rig.cam.fx = 720.0;
        rig.cam.fy = 720.0;
        rig.cam.cx = 640.0;
        rig.cam.cy = 360.0;
        rig.baseline = 0.30;
    } else {
        rig.cam.width = 640;
        rig.cam.height = 480;
        rig.cam.fx = 400.0;
        rig.cam.fy = 400.0;
        rig.cam.cx = 320.0;
        rig.cam.cy = 240.0;
        rig.baseline = 0.12;
    }
    return rig;
}

namespace {

World
makeWorld(const DatasetConfig &cfg, bool indoor)
{
    WorldConfig wc;
    wc.seed = cfg.seed;
    if (indoor) {
        wc.landmark_count = 700;
        wc.room_half_extent = 12.0;
        return World::generateIndoor(wc);
    }
    wc.landmark_count = 1600;
    wc.loop_radius = 40.0;
    wc.max_height = 9.0;
    return World::generateOutdoor(wc);
}

Trajectory
makeTrajectory(const DatasetConfig &cfg, bool indoor)
{
    // Loop period scales with the number of frames so every dataset
    // covers roughly one full lap regardless of frame budget.
    double duration = cfg.frame_count / cfg.fps;
    double period = std::max(duration, 30.0);
    if (cfg.platform == Platform::Car) {
        return Trajectory::car(indoor ? 7.0 : 40.0, period);
    }
    return Trajectory::drone(indoor ? 6.0 : 40.0, period);
}

} // namespace

Dataset::Dataset(const DatasetConfig &cfg)
    : cfg_(cfg), rig_(platformRig(cfg.platform)),
      world_(makeWorld(cfg, scenarioTraits(cfg.scene).indoor)),
      traj_(makeTrajectory(cfg, scenarioTraits(cfg.scene).indoor))
{
    RenderConfig rc;
    const ScenarioTraits traits = scenarioTraits(cfg.scene);
    if (!traits.indoor) {
        // Outdoor: stronger sensor noise, lighting handled per frame.
        rc.pixel_noise_sigma = 4.0;
        rc.max_depth = 90.0;
    }
    renderer_ = std::make_unique<StereoRenderer>(rig_, rc, cfg.seed);

    // IMU stream (corrupted).
    const double duration = cfg.frame_count / cfg.fps;
    const int imu_n =
        static_cast<int>(std::ceil(duration * cfg.imu_rate_hz)) + 1;
    ImuCorruptor imu_model(cfg.imu_noise, cfg.imu_rate_hz, cfg.seed + 17);
    imu_.reserve(imu_n);
    for (int k = 0; k < imu_n; ++k) {
        double t = k / cfg.imu_rate_hz;
        imu_.push_back(imu_model.corrupt(traj_.imuTruthAt(t)));
    }

    // GPS stream: availability follows the scenario taxonomy.
    GpsCorruptor gps_model(cfg.gps_noise, traits.gps_available,
                           cfg.seed + 31);
    const int gps_n =
        static_cast<int>(std::ceil(duration * cfg.gps_rate_hz)) + 1;
    gps_.reserve(gps_n);
    for (int k = 0; k < gps_n; ++k) {
        double t = k / cfg.gps_rate_hz;
        gps_.push_back(gps_model.sample(t, traj_.positionAt(t)));
    }
}

DatasetFrame
Dataset::frame(int i) const
{
    assert(i >= 0 && i < cfg_.frame_count);
    DatasetFrame f;
    f.index = i;
    f.t = frameTime(i);
    f.truth = traj_.poseAt(f.t);

    double gain = 1.0;
    if (!scenarioTraits(cfg_.scene).indoor) {
        // Slow illumination drift over the run plus mild flicker: the
        // outdoor lighting variation the paper identifies as a source of
        // SLAM error (Sec. III).
        double drift = 1.0 + 0.22 * std::sin(2.0 * M_PI * f.t / 40.0);
        double flicker = 1.0 + 0.03 * std::sin(2.0 * M_PI * f.t * 1.7);
        gain = drift * flicker;
    }
    f.stereo = renderer_->render(world_, f.truth, i, gain);
    return f;
}

Pose
Dataset::truthAt(int i) const
{
    return traj_.poseAt(frameTime(i));
}

std::vector<ImuSample>
Dataset::imuBetweenFrames(int i) const
{
    std::vector<ImuSample> out;
    if (i <= 0)
        return out;
    double t0 = frameTime(i - 1);
    double t1 = frameTime(i);
    for (const ImuSample &s : imu_) {
        if (s.t > t0 && s.t <= t1 + 1e-9)
            out.push_back(s);
        if (s.t > t1)
            break;
    }
    // The synthetic stream is monotonic by construction, but batches
    // feed dt-dividing integrators; keep the guard so a future loader
    // of real logs (where duplicate/regressed stamps do occur) cannot
    // hand a poisoned batch to propagation.
    sanitizeImuBatch(out);
    return out;
}

GpsSample
Dataset::gpsAtFrame(int i) const
{
    double t = frameTime(i);
    GpsSample latest;
    for (const GpsSample &s : gps_) {
        if (s.t > t + 1e-9)
            break;
        latest = s;
    }
    return latest;
}

} // namespace edx
