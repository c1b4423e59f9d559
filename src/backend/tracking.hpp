/**
 * @file
 * The tracking block (registration mode; also used by SLAM, Fig. 4).
 *
 * Estimates the 6 DoF pose of the current frame against a given map
 * using the bag-of-words place-recognition method. Four stages, matching
 * the latency breakdown of Fig. 6:
 *
 *  - Update: convert the frame to a BoW vector; when no pose prediction
 *    is available (first frame / lost), query the keyframe database.
 *  - Projection: project map points through the predicted camera pose
 *    (the C x X kernel offloaded to the backend accelerator).
 *  - Match: associate projected map points to current key points by
 *    windowed descriptor matching.
 *  - PoseOpt: LM pose-only optimization on the resulting 3D-2D pairs.
 */
#pragma once

#include <optional>

#include "backend/map.hpp"
#include "math/matx.hpp"
#include "backend/pose_opt.hpp"
#include "backend/vocabulary.hpp"
#include "frontend/frontend.hpp"
#include "sensors/camera.hpp"

namespace edx {

class SolveHub;

/** Tracker settings. */
struct TrackingConfig
{
    double match_radius_px = 24.0; //!< projection association window
    int min_matches = 12;          //!< below this the frame is "lost"
    double min_place_score = 0.015; //!< BoW score gate for relocalization
    PoseOptConfig pose_opt;
    MatchConfig match;
};

/** Per-stage wall-clock latency, ms (Fig. 6 categories). */
struct TrackingTiming
{
    double update_ms = 0.0;
    double projection_ms = 0.0;
    double match_ms = 0.0;
    double pose_opt_ms = 0.0;

    double total() const
    {
        return update_ms + projection_ms + match_ms + pose_opt_ms;
    }
};

/** Workload sizes (accelerator-model and scheduler inputs). */
struct TrackingWorkload
{
    int map_points_projected = 0; //!< M of the 3x4 * 4xM projection
    int candidate_matches = 0;
    int pose_opt_points = 0;
};

/** Tracking result for one frame. */
struct TrackingResult
{
    bool ok = false;
    Pose pose;
    int inliers = 0;
    bool relocalized = false; //!< used the BoW database this frame
    TrackingTiming timing;
    TrackingWorkload workload;
};

/** Tracks frames against a (possibly growing) map. */
class Tracker
{
  public:
    /**
     * @param map the map to localize in (not owned; may grow in SLAM)
     * @param vocabulary trained BoW vocabulary (not owned)
     * @param cam camera intrinsics
     * @param body_from_camera rig extrinsics
     */
    Tracker(const Map *map, const Vocabulary *vocabulary,
            const CameraIntrinsics &cam, const Pose &body_from_camera,
            const TrackingConfig &cfg = {});

    /**
     * Localizes one frame.
     * @param frame frontend products for the frame
     * @param prediction optional pose prediction (e.g., previous pose);
     *        when absent the BoW database provides the initial pose.
     */
    TrackingResult track(const FrontendOutput &frame,
                         const std::optional<Pose> &prediction);

    const TrackingConfig &config() const { return cfg_; }

    /**
     * Routes the projection kernel through a cross-session batching
     * hub (bit-identical to the direct path; null = direct).
     */
    void setSolveHub(SolveHub *hub) { hub_ = hub; }

    /**
     * Declares the map immutable (registration mode's shared prior
     * map): the homogeneous point matrix is then built once and reused
     * across frames instead of rebuilt per projection. Never set this
     * for a map whose points move (SLAM local BA).
     */
    void setStaticMap(bool static_map) { static_map_ = static_map; }

    /**
     * Swaps the map this tracker localizes in (a session adopting a
     * fresh shared-map epoch at a solve boundary). Invalidates the
     * static-map projection cache; static_map_ stays as configured —
     * each epoch is itself immutable. The caller owns @p map's
     * lifetime (the localizer pins the epoch's shared_ptr).
     */
    void
    retarget(const Map *map)
    {
        map_ = map;
        cached_points_ = -1;
    }

    const Map *map() const { return map_; }

  private:
    const Map *map_;
    const Vocabulary *voc_;
    SolveHub *hub_ = nullptr;
    bool static_map_ = false;
    int cached_points_ = -1; //!< x_rows_ validity (static maps only)
    CameraIntrinsics cam_;
    Pose body_from_camera_;
    TrackingConfig cfg_;

    // Projection-kernel buffers, reused frame to frame: the map points
    // in homogeneous row-major layout (one point per row, sequential
    // build and sequential consume) and the projected pixels.
    MatX x_rows_; //!< M x 4
    MatX c_;      //!< 3 x 4 camera matrix
    MatX f_;      //!< M x 3 projected homogeneous pixels
};

} // namespace edx
