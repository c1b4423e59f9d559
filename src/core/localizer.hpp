/**
 * @file
 * EUDOXUS unified localization framework - the public API (Fig. 4).
 *
 * One Localizer instance runs the shared vision frontend on every frame
 * and dispatches to one of three backend modes depending on the
 * operating scenario (Fig. 2):
 *
 *  - Registration (indoor, map): tracking against a prior map.
 *  - VIO (outdoor): MSCKF filtering + loosely-coupled GPS fusion.
 *  - SLAM (indoor, no map): tracking + mapping with loop closure.
 *
 * Every frame returns the 6 DoF pose along with the unified telemetry
 * record (runtime/telemetry.hpp) that drives the characterization
 * benches and the accelerator/scheduler models.
 *
 * The frame path is split into the two stages the paper's accelerator
 * pipelines (Fig. 18): runFrontend() touches only the vision-frontend
 * state and runBackend() touches only the mode-specific backend state,
 * so the staged runtime (runtime/pipeline.hpp) may run frontend(N+1)
 * concurrently with backend(N) on separate threads. processFrame() is
 * the sequential composition of the two and remains the single-thread
 * API.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

#include "backend/fusion.hpp"
#include "backend/mapping.hpp"
#include "backend/msckf.hpp"
#include "backend/tracking.hpp"
#include "core/health.hpp"
#include "frontend/frontend.hpp"
#include "runtime/telemetry.hpp"
#include "sensors/dead_reckoning.hpp"
#include "sensors/gps.hpp"
#include "sensors/odometry.hpp"
#include "sim/scenario.hpp"

namespace edx {

class SolveHub;
class MapService;
struct MapEpoch;

/** Full framework configuration. */
struct LocalizerConfig
{
    BackendMode mode = BackendMode::Slam;
    bool use_gps = false; //!< enable the fusion block (VIO mode only)
    FrontendConfig frontend;
    MsckfConfig msckf;
    MappingConfig mapping;
    TrackingConfig tracking;
    FusionConfig fusion;

    /**
     * Tracking-quality monitor thresholds and the dead-reckoning
     * fallback switch (core/health.hpp). The monitor always runs and
     * stamps FrameTelemetry::health; only with
     * health.enable_fallback does the localizer substitute the
     * internal-sensor pose when vision collapses — off, pose streams
     * are bit-identical to the pre-health builds.
     */
    HealthConfig health;
    DeadReckoningConfig dead_reckoning;
};

/** Per-frame result: pose + the unified telemetry record. */
struct LocalizationResult
{
    int frame_index = 0;
    bool ok = false;
    Pose pose;
    BackendMode mode = BackendMode::Slam;

    /** All block latencies and workload sizes of this frame. */
    FrameTelemetry telemetry;

    /** Total backend latency of the active mode, ms. */
    double backendMs() const { return telemetry.backendMs(mode); }
    /** Frontend block latency, ms. */
    double frontendMs() const { return telemetry.frontendMs(); }
    /** End-to-end (sequential) frame latency, ms. */
    double totalMs() const { return telemetry.totalMs(mode); }
};

/**
 * Sensor inputs for one frame. The images are *owned*: a FrameInput is
 * a self-contained packet that can be moved into the staged runtime
 * and outlive the caller's scope (the former `const ImageU8 *`
 * borrowing could dangle as soon as frames were queued).
 */
struct FrameInput
{
    int frame_index = 0;
    double t = 0.0;
    ImageU8 left;
    ImageU8 right;
    std::vector<ImuSample> imu; //!< samples since the previous frame
    GpsSample gps;              //!< most recent fix (may be invalid)

    /**
     * Wheel-odometry samples since the previous frame (may be empty;
     * consumed by the dead-reckoning fallback, never by the vision
     * path).
     */
    std::vector<WheelOdometrySample> odometry;

    /** True when both stereo images are present. */
    bool hasImages() const { return !left.empty() && !right.empty(); }
};

/**
 * Compact handoff between the two backend sub-stages (solve | finish).
 *
 * runBackendSolve() fills it; runBackendFinish() consumes it and emits
 * the completed LocalizationResult. The context is owned by the frame
 * job, so the two sub-stages may run on different pipeline workers
 * (finish of frame N overlapping solve of frame N+1).
 */
struct BackendStageContext
{
    LocalizationResult res; //!< progressively completed result
    long seq = -1;          //!< backend frame sequence number
    bool rejected = false;  //!< frame could not be localized

    /**
     * The backend mode this frame solved under, stamped by
     * runBackendSolve(). The finish sub-stage dispatches on it — not
     * on the localizer's current mode — because finish(N) may overlap
     * solve(N+1), and solve(N+1) may have consumed a mode switch.
     */
    BackendMode mode = BackendMode::Slam;

    /**
     * VIO filter-state snapshots taken in the solve sub-stage. The
     * finish sub-stage (health classification, reckoner seeding) must
     * consume these instead of touching the Msckf: the filter is
     * owned by solve, and finish of frame N overlaps solve of frame
     * N+1 on another pipeline worker.
     */
    Vec3 vio_velocity = Vec3::zero();
    double vio_pos_cov_trace = -1.0;
};

/** The unified localizer. */
class Localizer
{
  public:
    /**
     * @param cfg framework configuration (mode, block settings)
     * @param rig the stereo rig of the platform
     * @param vocabulary trained BoW vocabulary (borrowed; may be null
     *        for VIO-only operation)
     * @param prior_map map for the registration mode (borrowed and
     *        shared read-only; must outlive the localizer — many
     *        concurrent sessions may serve the same map). Null outside
     *        registration.
     */
    Localizer(const LocalizerConfig &cfg, const StereoRig &rig,
              const Vocabulary *vocabulary, const Map *prior_map);
    ~Localizer();

    Localizer(const Localizer &) = delete;
    Localizer &operator=(const Localizer &) = delete;

    /**
     * Initializes the state at a known start pose (the standard
     * standstill initialization of deployed systems).
     */
    void initialize(const Pose &start_pose, double t,
                    const Vec3 &start_velocity = Vec3::zero());

    /** Processes one frame; returns pose + telemetry. */
    LocalizationResult processFrame(const FrameInput &input);

    // --- staged API (used by runtime/pipeline.hpp) -------------------

    /**
     * Stage 1: the shared vision frontend. Touches only the frontend
     * state, so it may run on a different thread than runBackend() as
     * long as successive frames enter in order.
     */
    FrontendOutput runFrontend(const ImageU8 &left, const ImageU8 &right);

    /**
     * Stage 2: the mode-specific backend. Touches only backend state
     * (filter / tracker / mapper and the pose history). @p input must
     * be the frame that produced @p fe, and frames must arrive in
     * submission order. Composition of runBackendSolve() +
     * runBackendFinish().
     */
    LocalizationResult runBackend(const FrameInput &input,
                                  const FrontendOutput &fe);

    // --- sub-stage API (the N-stage pipeline's cut points) -----------
    //
    // The frame's sub-stage graph is FE | SM | TM | solve | finish.
    // The frontend trio maps onto VisionFrontend::run{Fe,Sm,Tm}Stage;
    // the backend pair splits each mode at its solver / structural
    // boundary:
    //   - SLAM: tracking + keyframe insertion + local BA  |
    //           marginalization + loop detection (read-only, applied
    //           at the next frame's solve — see backend/mapping.hpp),
    //   - VIO:  MSCKF propagate + update  |  GPS fusion,
    //   - registration: full tracking  |  (empty).
    // Successive frames must enter each sub-stage in submission order;
    // a solve that needs the previous frame's finish outputs blocks on
    // an internal sequence gate, so any topology yields bit-identical
    // pose streams.

    /** Frontend feature extraction (FD + IF + FC). */
    void runFrontendFe(const ImageU8 &left, const ImageU8 &right,
                       FrontendStageContext &ctx, FrontendOutput &out);
    /** Frontend stereo matching (MO + DR). */
    void runFrontendSm(const ImageU8 &left, const ImageU8 &right,
                       FrontendStageContext &ctx, FrontendOutput &out);
    /** Frontend temporal matching (DC + LSS). */
    void runFrontendTm(const ImageU8 &left, FrontendStageContext &ctx,
                       FrontendOutput &out);

    /**
     * Lanes of the frontend's FE and TM blocks (VisionFrontend::
     * setLanes). A bare localizer uses every available CPU;
     * FramePipeline and LocalizerPool set the count from the cores
     * their executor leaves free.
     */
    void setFrontendLanes(int lanes) { frontend_.setLanes(lanes); }
    int frontendLanes() const { return frontend_.lanes(); }

    /** Backend solve sub-stage; fills @p ctx for runBackendFinish(). */
    void runBackendSolve(const FrameInput &input, const FrontendOutput &fe,
                         BackendStageContext &ctx);

    /** Backend finish sub-stage; completes and returns the result. */
    LocalizationResult runBackendFinish(const FrameInput &input,
                                        const FrontendOutput &fe,
                                        BackendStageContext &ctx);

    /** The map being built (SLAM) or localized against (registration). */
    const Map *currentMap() const;

    /**
     * Attaches a cross-session solve-batching hub: the mode-specific
     * backend kernel (projection / Kalman gain / marginalization) is
     * routed through @p hub and runBackend() registers itself as a
     * batching participant. Bit-identical results; null detaches.
     * Set by LocalizerPool when PoolConfig::batch_solves is on.
     */
    void setSolveHub(SolveHub *hub);

    /**
     * Attaches the live shared-map service (map/map_service.hpp),
     * alongside the legacy owned/borrowed-map path (null detaches;
     * detached behavior is bit-identical to pre-service builds,
     * test-enforced):
     *
     *  - SLAM: keyframes the mapper retires from its window (their
     *    poses are final) are contributed to the service after each
     *    applyPendingFinish(). Contribution is *read-only* on the
     *    mapper, so the session's own pose stream is unchanged by
     *    attaching.
     *  - Registration: the solve sub-stage pins the service's current
     *    epoch at each frame boundary and retargets the tracker when a
     *    newer epoch was published (the applyPendingFinish deferred-
     *    application discipline). The epoch-acquire latency is bounded
     *    (a shared_ptr copy) even while a merge is in flight.
     *
     * Wired per session by LocalizerPool via PoolConfig::map_service.
     */
    void attachMapService(MapService *service);

    MapService *mapService() const { return map_service_; }

    // Shared-map session counters (atomics: the pool's stats() reads
    // them while frames are in flight).

    /** Contributions shipped to the service by this session. */
    long
    mapContributions() const
    {
        return map_contributions_.load(std::memory_order_relaxed);
    }

    /** Epoch number this session last adopted (0 = none yet). */
    uint64_t
    mapEpoch() const
    {
        return map_epoch_seq_.load(std::memory_order_relaxed);
    }

    /** Worst observed currentEpoch() acquire latency, ms. */
    double
    maxEpochAcquireMs() const
    {
        return epoch_acquire_max_ms_.load(std::memory_order_relaxed);
    }

    /**
     * Requests a mid-run backend-mode switch (the workload shift of a
     * deployed session: outdoor VIO driving into an unmapped indoor
     * space becomes SLAM). The request is *deferred*: the next frame's
     * solve sub-stage consumes it after joining the previous frame's
     * finish, rebuilds the target mode's backend state bootstrapped
     * from the current pose estimate, and solves under the new mode —
     * so under the staged runtime no frame ever straddles two modes.
     *
     * @param target the mode to switch into
     * @param mapping optional mapping-config override installed with
     *        the switch (e.g. dense keyframing for the new space);
     *        only meaningful when @p target is Slam
     * @return false (request dropped) when @p target is already the
     *         current mode, or is Registration but no prior map was
     *         given at construction.
     */
    bool requestModeSwitch(BackendMode target,
                           const MappingConfig *mapping = nullptr);

    bool initialized() const { return initialized_; }

    /** Current backend mode. Safe to read from any thread (a pipeline
     *  TM worker reads it while the solve worker may be consuming a
     *  mode switch), hence the atomic shadow of cfg_.mode. */
    BackendMode mode() const
    {
        return mode_.load(std::memory_order_relaxed);
    }
    const LocalizerConfig &config() const { return cfg_; }

    /**
     * Tracking-quality state after the most recent frame. Touched by
     * the backend sub-stage that owns the session's pose history, so
     * it is safe to read between frames (e.g. after drain()).
     */
    TrackingHealth health() const { return health_.state(); }
    const HealthMonitor &healthMonitor() const { return health_; }

  private:
    void processVioSolve(const FrameInput &input, const FrontendOutput &fe,
                         BackendStageContext &ctx);
    void processVioFinish(const FrameInput &input, const FrontendOutput &fe,
                          BackendStageContext &ctx);
    void processSlamSolve(const FrameInput &input, const FrontendOutput &fe,
                          BackendStageContext &ctx);
    void processSlamFinish(BackendStageContext &ctx);
    void processRegistrationSolve(const FrameInput &input,
                                  const FrontendOutput &fe,
                                  BackendStageContext &ctx);

    /**
     * Runs the health state machine over one frame's signals and,
     * when the fallback is enabled and vision has collapsed,
     * substitutes the dead-reckoned pose into @p res. Called by the
     * backend sub-stage that owns the pose history (solve for
     * SLAM/registration, finish for VIO) immediately before
     * updatePoseHistory(), so the fallback pose also seeds the next
     * frame's prediction.
     *
     * @p vio_velocity is the solve-stage snapshot of the filter
     * velocity (used to seed the reckoner in VIO mode); the finish
     * stage must not read the Msckf directly, as the next frame's
     * solve may be propagating it concurrently.
     */
    void applyHealth(const FrameInput &input, const FrontendOutput *fe,
                     HealthSignals sig, const Vec3 &vio_velocity,
                     LocalizationResult &res);

    /** Dead-reckon through a frame that carried no images at all. */
    LocalizationResult deadReckonFrame(const FrameInput &input);

    /** Folds the just-solved pose into the prediction history. */
    void updatePoseHistory(const LocalizationResult &res);

    /** Blocks until every finish before backend frame @p seq ran. */
    void waitFinishedBefore(long seq);
    /** Marks one finish sub-stage complete (wakes waiting solves). */
    void markFinished();

    /** Failure result for frames that cannot be localized. */
    LocalizationResult rejectFrame(int frame_index) const;

    /** Tears down / rebuilds backend state for a consumed mode switch.
     *  Solve-stage worker only, after waitFinishedBefore(). */
    void applyModeSwitch(BackendMode target,
                         const std::optional<MappingConfig> &mapping);

    /** Pins the service's current epoch; retargets the registration
     *  tracker when it advanced. Solve-stage worker only. */
    void refreshMapEpoch();

    /** Ships the mapper's newly retired keyframes (and the landmarks
     *  they observe) to the service. Read-only on the mapper's map;
     *  solve-stage worker only, right after applyPendingFinish(). */
    void contributeRetiredKeyframes();

    LocalizerConfig cfg_;
    StereoRig rig_;
    const Vocabulary *voc_;
    SolveHub *hub_ = nullptr;

    VisionFrontend frontend_;

    // VIO mode.
    std::unique_ptr<Msckf> msckf_;
    FeatureTrackManager track_manager_;
    std::unique_ptr<GpsFusion> fusion_;
    long next_clone_id_ = 0;
    double last_frame_t_ = 0.0;

    // SLAM mode.
    std::unique_ptr<Mapper> mapper_;
    std::unique_ptr<Tracker> slam_tracker_;

    // Registration mode: the prior map is shared read-only.
    const Map *registration_map_ = nullptr;
    std::unique_ptr<Tracker> reg_tracker_;

    // Shared-map service attach path (null = legacy map ownership).
    // map_epoch_ is pinned/swapped only by the solve-stage worker; the
    // counters are atomic shadows for cross-thread stats reads.
    MapService *map_service_ = nullptr;
    int map_session_key_ = -1;
    std::shared_ptr<const MapEpoch> map_epoch_;
    std::atomic<long> map_contributions_{0};
    std::atomic<uint64_t> map_epoch_seq_{0};
    std::atomic<double> epoch_acquire_max_ms_{0.0};

    // Shared pose history for constant-velocity prediction.
    std::optional<Pose> last_pose_;
    std::optional<Pose> prev_pose_;
    bool initialized_ = false;

    // Tracking-quality monitor + internal-sensor fallback. Owned by
    // the same sub-stage as the pose history (solve for SLAM/
    // registration, finish for VIO), so no extra synchronization is
    // needed under the staged runtime.
    HealthMonitor health_;
    DeadReckoner reckoner_;

    // solve | finish sequencing: finish(N) publishes before the parts
    // of solve(N+1) that consume its outputs run (SLAM pending apply).
    // Only touched by the solve/finish stage workers.
    long backend_seq_ = 0;    //!< frames entered into the solve stage
    std::mutex finish_m_;
    std::condition_variable finish_cv_;
    long finished_seq_ = 0;   //!< finish sub-stages completed

    // Deferred mode switch: any thread may request, the solve-stage
    // worker consumes at the next frame boundary. mode_ shadows
    // cfg_.mode for lock-free cross-thread reads.
    struct PendingSwitch
    {
        BackendMode target;
        std::optional<MappingConfig> mapping;
    };
    std::mutex switch_m_;
    std::optional<PendingSwitch> pending_switch_;
    std::atomic<BackendMode> mode_;
};

/** Builds the LocalizerConfig for a scenario (Fig. 2 dispatch). */
LocalizerConfig configForScenario(SceneType scene);

} // namespace edx
