/**
 * @file
 * Full synthetic dataset generation: camera frames + IMU + GPS + truth.
 *
 * This replaces the paper's KITTI / EuRoC / in-house logs (see DESIGN.md
 * Sec. 2). A dataset is a deterministic function of (scenario, platform,
 * seed): frames are rendered on demand to bound memory, while IMU and
 * GPS streams are pre-generated. Outdoor scenarios add a slow lighting
 * drift (the changing illumination the paper cites as a SLAM failure
 * mode outdoors) and enable GPS; indoor scenarios disable GPS.
 */
#pragma once

#include <memory>
#include <vector>

#include "math/se3.hpp"
#include "sensors/camera.hpp"
#include "sensors/gps.hpp"
#include "sensors/imu.hpp"
#include "sim/renderer.hpp"
#include "sim/scenario.hpp"
#include "sim/trajectory.hpp"
#include "sim/world.hpp"

namespace edx {

/** Target platform of a dataset (paper Sec. VII-A). */
enum class Platform
{
    Car,   //!< 1280x720 input, road-scale loop
    Drone, //!< 640x480 input, room/short-range loop
};

/** Dataset generation parameters. */
struct DatasetConfig
{
    SceneType scene = SceneType::IndoorUnknown;
    Platform platform = Platform::Drone;
    double fps = 10.0;        //!< camera frame rate
    int frame_count = 300;
    double imu_rate_hz = 200.0;
    double gps_rate_hz = 10.0;
    uint64_t seed = 42;

    ImuNoiseModel imu_noise;
    GpsNoiseModel gps_noise;
};

/** One camera observation with its ground truth. */
struct DatasetFrame
{
    int index = 0;
    double t = 0.0;
    StereoFrame stereo;
    Pose truth; //!< world-from-body at capture time
};

/**
 * A generated dataset. Frames are rendered lazily; IMU/GPS/truth streams
 * are materialized at construction.
 */
class Dataset
{
  public:
    explicit Dataset(const DatasetConfig &cfg);

    const DatasetConfig &config() const { return cfg_; }
    int frameCount() const { return cfg_.frame_count; }
    double framePeriod() const { return 1.0 / cfg_.fps; }

    /**
     * Renders frame @p i (deterministic; may be called repeatedly and
     * from several threads at once).
     */
    DatasetFrame frame(int i) const;

    /** Ground-truth pose at frame @p i. */
    Pose truthAt(int i) const;

    /** IMU samples with timestamps in (t_{i-1}, t_i] for frame i > 0. */
    std::vector<ImuSample> imuBetweenFrames(int i) const;

    /** Most recent GPS fix at or before frame @p i (invalid if none). */
    GpsSample gpsAtFrame(int i) const;

    const StereoRig &rig() const { return rig_; }
    const World &world() const { return world_; }
    const Trajectory &trajectory() const { return traj_; }
    ScenarioTraits traits() const { return scenarioTraits(cfg_.scene); }

    /** All corrupted IMU samples (for tests). */
    const std::vector<ImuSample> &imuStream() const { return imu_; }

    /** All GPS fixes (for tests). */
    const std::vector<GpsSample> &gpsStream() const { return gps_; }

  private:
    double frameTime(int i) const { return i / cfg_.fps; }

    DatasetConfig cfg_;
    StereoRig rig_;
    World world_;
    Trajectory traj_;
    std::unique_ptr<StereoRenderer> renderer_;
    std::vector<ImuSample> imu_;
    std::vector<GpsSample> gps_;
};

/** The stereo rig used for a platform (car: 720p, drone: VGA). */
StereoRig platformRig(Platform p);

} // namespace edx
