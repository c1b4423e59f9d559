/**
 * @file
 * The mapping block of the SLAM mode (Fig. 4).
 *
 * Keyframe-based visual SLAM: the mapper maintains a sliding window of
 * keyframes plus the landmarks they observe, and on every keyframe
 * insertion
 *
 *  1. associates current features to window landmarks and triangulates
 *     new stereo landmarks ("Others" in the Fig. 8 breakdown),
 *  2. runs a Levenberg-Marquardt local bundle adjustment over window
 *     poses and landmarks ("Solver"), solved through the Schur
 *     complement on the landmark block,
 *  3. when the window is full, marginalizes the oldest keyframe: the
 *     eliminated system has exactly the [A B; C D] structure of
 *     Sec. VI-A with A block-diagonal (landmarks) and D the 6x6 pose
 *     block ("Marginalization") - the kernel the backend accelerator
 *     targets - and the resulting prior is retained on the window,
 *  4. detects loop closures through the BoW database and applies the
 *     relocalization correction, bounding drift like full SLAM systems.
 *
 * The continuously updated Map doubles as the registration-mode input
 * after persistence (the "Persist Map" path of Fig. 4).
 */
#pragma once

#include <optional>
#include <unordered_map>

#include "backend/map.hpp"
#include "backend/pose_opt.hpp"
#include "backend/vocabulary.hpp"
#include "frontend/frontend.hpp"
#include "math/matx.hpp"
#include "sensors/camera.hpp"

namespace edx {

class SolveHub;

/** Mapper settings. */
struct MappingConfig
{
    int keyframe_interval = 3;   //!< insert a keyframe every N frames
    int window_size = 12;        //!< keyframes kept in the local BA
    int lm_iterations = 10;
    double huber_px = 3.0;
    double pixel_sigma = 1.5;
    double match_radius_px = 18.0;
    int min_obs_for_ba = 2;
    double loop_min_score = 0.04;
    int loop_min_gap = 25;       //!< keyframes between loop candidates
    int loop_min_matches = 15;
};

/** Wall-clock latency of the SLAM kernels, ms (Fig. 8 categories). */
struct MappingTiming
{
    double solver_ms = 0.0;
    double marginalization_ms = 0.0;
    double others_ms = 0.0; //!< association, triangulation, prior apply

    /**
     * Loop detection + correction. Reported separately from others_ms
     * because it belongs to the *finish* sub-stage (marginalization +
     * loop) of the split backend, while the rest of "others" runs in
     * the solve sub-stage; the placement planner needs the two apart.
     */
    double loop_ms = 0.0;

    double total() const
    {
        return solver_ms + marginalization_ms + others_ms + loop_ms;
    }
};

/** Workload sizes (scheduler / accelerator inputs). */
struct MappingWorkload
{
    int window_keyframes = 0;
    int window_landmarks = 0;
    int residual_count = 0;
    int marginalized_landmarks = 0; //!< size of the diagonal A block /3
};

/** Mapper output for one frame. */
struct MappingResult
{
    Pose pose;                //!< (possibly loop-corrected) pose
    bool keyframe_added = false;
    bool loop_closed = false;
    MappingTiming timing;
    MappingWorkload workload;
};

/** The SLAM mapper. */
class Mapper
{
  public:
    Mapper(const StereoRig &rig, const Vocabulary *vocabulary,
           const MappingConfig &cfg = {});

    /**
     * Processes one frame given the tracking pose estimate:
     * applyPendingFinish() + processFrameSolve() + computeFinish().
     * Inserts keyframes on the configured cadence, maintains the map,
     * runs the local BA, and computes marginalization and loop closure
     * for the frame — whose *structural effects* (window pop, prior
     * installation, loop correction) are deferred to the next frame's
     * applyPendingFinish(), identically in every pipeline topology.
     */
    MappingResult processFrame(const FrontendOutput &frame,
                               const Pose &pose_estimate);

    // --- split sub-stage API (solve | marginalization+loop) ----------
    //
    // The staged runtime runs the solve part of frame N+1 concurrently
    // with the finish part of frame N. That is sound because the finish
    // part is *read-only* on the map/window/observations: it computes
    // the marginalization prior and detects a loop closure, and hands
    // both back as a pending record. The next frame's solve applies the
    // pending record (cheap structural mutations) after its tracking
    // step — the only synchronization point between the two stages.

    /**
     * Applies the pending finish record of the previous frame: pops the
     * marginalized keyframe from the window, installs the computed
     * prior, and applies a detected loop correction to the window.
     * @return the loop correction transform when one was applied (the
     *         caller must fold it into its pose history and any
     *         in-flight pose estimate).
     */
    std::optional<Pose> applyPendingFinish(MappingTiming &timing);

    /**
     * Solve sub-stage: keyframe insertion + local BA. Call after
     * applyPendingFinish(). Mutates the map; must not overlap a
     * computeFinish() of this mapper.
     */
    MappingResult processFrameSolve(const FrontendOutput &frame,
                                    const Pose &pose_estimate);

    /**
     * Finish sub-stage: computes the marginalization of the oldest
     * window keyframe (when the window overflowed) and runs loop
     * detection for the keyframe inserted by the matching
     * processFrameSolve(). Read-only on the shared map state; results
     * land in the pending record consumed by the next
     * applyPendingFinish(). Stamps timing/workload and the loop_closed
     * flag into @p res.
     */
    void computeFinish(MappingResult &res);

    const Map &map() const { return map_; }
    Map &map() { return map_; }

    int keyframesInserted() const { return frames_as_keyframes_; }
    int loopClosures() const { return loop_closures_; }

    /**
     * Routes the marginalization solve through a cross-session
     * batching hub (bit-identical to the direct path; null = direct).
     */
    void setSolveHub(SolveHub *hub) { hub_ = hub; }

    /**
     * Enables the keyframe retirement log for the shared-map service:
     * applyPendingFinish() then records each keyframe it pops from the
     * window (its pose is final — no further local BA touches it), and
     * the localizer drains the log into a MapContribution. Off by
     * default so detached sessions pay nothing.
     */
    void setRetireLog(bool enabled) { retire_log_ = enabled; }

    /** Moves the retired-keyframe ids out of the log (oldest first). */
    std::vector<int>
    drainRetiredKeyframes()
    {
        std::vector<int> out;
        out.swap(retired_);
        return out;
    }

  private:
    struct LandmarkObs
    {
        int keyframe_id;
        int keypoint_index;
    };

    /** Associates + triangulates; returns the new keyframe id. */
    int insertKeyframe(const FrontendOutput &frame, const Pose &pose);

    /** Local BA over the window; updates map poses/points in place. */
    void localBundleAdjustment(MappingTiming &timing,
                               MappingWorkload &workload);

    /**
     * Computes the marginalization of the oldest window keyframe
     * (Schur complement) into the pending record. Read-only on the
     * map; the structural pop/prior installation happens at
     * applyPendingFinish().
     */
    void computeMarginalization(MappingTiming &timing,
                                MappingWorkload &workload);

    /**
     * Loop detection for @p new_kf_id (read-only): on a hit, stores
     * the correction transform in the pending record and returns true.
     * The correction is applied at the next applyPendingFinish().
     */
    bool detectLoopClosure(int new_kf_id, MappingTiming &timing);

    /**
     * Deferred finish record: computed by computeFinish() of frame N,
     * applied by applyPendingFinish() of frame N+1.
     */
    struct PendingFinish
    {
        bool marg = false;        //!< a marginalization was computed
        bool marg_solved = false; //!< its 6x6 core solve succeeded
        int old_kf = -1;          //!< keyframe to pop from the window
        int prior_kf = -1;
        MatX prior_h{6, 6};
        VecX prior_b{6};
        bool loop = false;        //!< a loop correction awaits
        Pose correction;
    };

    StereoRig rig_;
    const Vocabulary *voc_;
    MappingConfig cfg_;
    SolveHub *hub_ = nullptr;

    Map map_;
    std::vector<int> window_; //!< keyframe ids, oldest first
    std::unordered_map<int, std::vector<LandmarkObs>> observations_;

    // Marginalization prior on the oldest remaining window pose.
    std::optional<int> prior_kf_ = std::nullopt;
    MatX prior_h_{6, 6};
    VecX prior_b_{6};

    PendingFinish pending_;
    int finish_kf_ = -1; //!< keyframe the next computeFinish() serves

    // Shared-map contribution log (setRetireLog).
    bool retire_log_ = false;
    std::vector<int> retired_;

    int frame_counter_ = 0;
    int frames_as_keyframes_ = 0;
    int loop_closures_ = 0;
};

} // namespace edx
