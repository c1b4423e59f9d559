/**
 * @file
 * Multi-State Constraint Kalman Filter (Mourikis & Roumeliotis, 2007) —
 * the filtering block of the VIO backend mode (Fig. 4).
 *
 * The filter keeps an IMU state (orientation, gyro bias, velocity,
 * accelerometer bias, position) plus a sliding window of camera-pose
 * clones (30 in the paper, Sec. VII-B). Feature tracks spanning several
 * clones produce constraints between the cloned poses: per track the
 * feature position is triangulated, residuals are projected onto the
 * nullspace of the feature Jacobian, all tracks are stacked and
 * QR-compressed, and a standard EKF update follows. The Kalman-gain
 * computation (S = H P H^T + R, solve S K^T = H P^T) is the VIO kernel
 * the backend accelerator targets (Sec. VI-A, Equ. 1).
 *
 * Error-state layout: [theta(3) bg(3) v(3) ba(3) p(3) | theta_c p_c ...]
 * with body-frame (right) multiplicative orientation errors.
 */
#pragma once

#include <vector>

#include "backend/feature_tracks.hpp"
#include "backend/workspace.hpp"
#include "math/matx.hpp"
#include "math/se3.hpp"
#include "sensors/camera.hpp"
#include "sensors/imu.hpp"

namespace edx {

class SolveHub;

/** MSCKF settings. */
struct MsckfConfig
{
    int max_clones = 30;          //!< sliding-window size (paper: 30)
    double pixel_sigma = 1.5;     //!< measurement noise, pixels
    double gyro_sigma = 1.7e-3;   //!< must match the IMU noise model
    double gyro_bias_sigma = 2.0e-5;
    double accel_sigma = 2.0e-2;
    double accel_bias_sigma = 3.0e-3;
    int min_track_length = 3;     //!< shortest track used in an update
    double max_reprojection_px = 6.0; //!< triangulation sanity gate
    int triangulation_iterations = 5;

    /**
     * Runs the covariance-heavy Kalman-gain slice (S = H P Hᵀ + R, the
     * SPD solve for Kᵀ, and the covariance downdate term) in float32
     * (math/blas_f32.hpp): half the memory traffic, twice the SIMD
     * lanes. The f64 state/covariance masters are kept — buffers are
     * packed down per update and the correction/downdate applied back
     * in f64, with the downdate term mirrored so the covariance stays
     * exactly symmetric. Not bit-equal to the f64 path; equivalence is
     * the pose-divergence bound asserted by
     * tests/test_backend.cpp::Float32CovarianceTracksFloat64Path.
     * Falls back to the f64 path for an update when the f32 Cholesky
     * fails, and is ignored under a SolveHub (the hub's
     * batched-vs-direct bit-identity contract is f64-only).
     */
    bool float32_covariance_update = false;
};

/** Wall-clock latency of the VIO kernels, ms (Fig. 7 categories). */
struct MsckfTiming
{
    double imu_ms = 0.0;         //!< propagation ("IMU Proc.")
    double cov_ms = 0.0;         //!< covariance propagation+augmentation
    double jacobian_ms = 0.0;    //!< residual/Jacobian construction
    double qr_ms = 0.0;          //!< nullspace projection + compression
    double kalman_gain_ms = 0.0; //!< S formation and solve
    double update_ms = 0.0;      //!< state/covariance injection

    double
    total() const
    {
        return imu_ms + cov_ms + jacobian_ms + qr_ms + kalman_gain_ms +
               update_ms;
    }
};

/** Workload sizes of one update (scheduler / accelerator inputs). */
struct MsckfWorkload
{
    int stacked_rows = 0; //!< H rows before compression
    int state_dim = 0;    //!< error-state dimension
    int tracks_used = 0;
};

/** Camera-pose clone. */
struct CloneState
{
    long clone_id = 0;
    Quat q_wb;
    Vec3 p_wb;
};

/** The MSCKF filter. */
class Msckf
{
  public:
    /**
     * @param rig stereo rig (intrinsics + extrinsics + baseline)
     * @param cfg filter settings
     */
    Msckf(const StereoRig &rig, const MsckfConfig &cfg = {});

    /**
     * Initializes the filter at a known pose and initial velocity.
     * Deployed systems initialize at rest (velocity zero); when a run
     * starts mid-motion the caller must supply the initial velocity, as
     * the filter's initial velocity uncertainty is moderate.
     */
    void initialize(const Pose &world_from_body, double t,
                    const Vec3 &velocity = Vec3::zero());

    /** Propagates through a batch of IMU samples (ordered by time). */
    void propagate(const std::vector<ImuSample> &samples);

    /**
     * Camera-frame update: augments the state with a clone for this
     * frame and applies the measurement update for finished tracks.
     *
     * @param finished_tracks tracks that terminated at this frame
     * @param clone_id id assigned to the new clone (monotonic)
     * @return the id of the oldest clone still in the window
     */
    long update(const std::vector<FeatureTrack> &finished_tracks,
                long clone_id);

    /** Current world-from-body pose estimate. */
    Pose pose() const;

    /**
     * Routes the Kalman-gain solve through a cross-session batching
     * hub (runtime/solve_hub.hpp). Null (the default) solves directly;
     * the hub path is bit-identical to the direct one.
     */
    void setSolveHub(SolveHub *hub) { hub_ = hub; }

    /** Current velocity estimate (world frame). */
    Vec3 velocity() const { return v_; }

    const MsckfTiming &lastTiming() const { return timing_; }
    const MsckfWorkload &lastWorkload() const { return workload_; }
    int cloneCount() const { return static_cast<int>(clones_.size()); }
    const MatX &covariance() const { return cov_; }
    bool initialized() const { return initialized_; }

    /**
     * Number of updates that grew any workspace buffer (including the
     * covariance storage). Stops increasing once the clone window and
     * track load are warm — the zero-alloc steady-state contract.
     */
    long allocationEvents() const { return allocation_events_; }

    /** Total workspace + covariance capacity, bytes. */
    size_t
    workspaceCapacityBytes() const
    {
        return ws_.capacityBytes() + cov_.capacityBytes() +
               clones_.capacity() * sizeof(CloneState);
    }

  private:
    int stateDim() const
    {
        return 15 + 6 * static_cast<int>(clones_.size());
    }

    void propagateOne(const ImuSample &s, double dt);
    void augmentClone(long clone_id);
    void marginalizeOldestClone();

    /**
     * Triangulates a track in the world frame (stereo init + Gauss-
     * Newton refinement over all observations).
     * @return false when triangulation fails its sanity gates.
     */
    bool triangulateTrack(const FeatureTrack &track, Vec3 &x_world) const;

    /** Finds the window slot of a clone id (-1 when absent). */
    int cloneSlot(long clone_id) const;

    /**
     * Builds the nullspace-projected residual/Jacobian block of one
     * track into workspace buffers. @return rows appended (0 when the
     * track was rejected).
     */
    int buildTrackBlock(const FeatureTrack &track, const Vec3 &x_world,
                        MatX &h_out, VecX &r_out, int row0);

    /**
     * The float32 Kalman-gain slice: packs @p h and the covariance to
     * float, forms S and solves for Kᵀ in f32 (results in ws_.kt_f /
     * ws_.hp_f / ws_.s_f). @return false when the f32 Cholesky is not
     * SPD — the caller then reruns the f64 path for this update.
     */
    bool float32KalmanGain(const MatX &h, int rows, int d, double r_var);

    StereoRig rig_;
    MsckfConfig cfg_;
    SolveHub *hub_ = nullptr;

    // Nominal state.
    Quat q_wb_;
    Vec3 p_wb_;
    Vec3 v_;
    Vec3 bg_;
    Vec3 ba_;
    double t_ = 0.0;
    bool initialized_ = false;

    // Clone window as a flat vector (bounded size): erase-front is a
    // small memmove and — unlike std::deque — never touches the heap
    // in steady state.
    std::vector<CloneState> clones_;
    MatX cov_; //!< error-state covariance

    BackendWorkspace ws_;
    long allocation_events_ = 0;

    MsckfTiming timing_;
    MsckfWorkload workload_;
};

} // namespace edx
