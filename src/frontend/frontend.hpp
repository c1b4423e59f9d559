/**
 * @file
 * The unified vision frontend (Sec. IV-A / Sec. V of the paper).
 *
 * The frontend is shared by all three backend modes and is always
 * activated. It consists of three blocks:
 *
 *  - Feature extraction (FE): feature point detection (FD), image
 *    filtering (IF) and feature descriptor calculation (FC), run on both
 *    stereo images.
 *  - Stereo matching (SM): matching optimization (MO) + disparity
 *    refinement (DR), establishing spatial correspondences.
 *  - Temporal matching (TM): derivatives calculation (DC) + least
 *    squares solver (LSS), i.e. pyramidal Lucas-Kanade against the
 *    previous left frame.
 *
 * Execution model: all hot-path buffers live in a per-session
 * FrameWorkspace (frontend/workspace.hpp), so steady-state frames do
 * zero heap allocation. The per-eye and per-keypoint work runs on
 * lanes (frontend/lane_group.hpp): the calling thread plus helper
 * threads, mirroring the accelerator's time-shared FE pipeline and its
 * parallel LK lanes (Sec. V-B). FE runs FAST and blur of each eye as
 * four independent tasks, then ORB over fixed 32-keypoint chunks of
 * both eyes; TM runs LK over fixed 32-keypoint chunks of the previous
 * key points, one result slot per point, with the lost slots dropped
 * in index order after the join. Each key point's result is a pure function of the
 * frame and lands in its own slot, so the products are bit-identical
 * for every lane count and every chunk-to-thread assignment. FE and
 * TM own separate lane groups: FE of frame N+1 may run beside TM of
 * frame N on different stage threads.
 *
 * The lane count is derived, never configured: a bare frontend uses
 * every CPU the process may run on (availableCpus()), and the staged
 * runtime sets it with setLanes() from the cores its executor leaves
 * free (runtime/pipeline.hpp, runtime/localizer_pool.hpp). It is read
 * once per call, so changing it between frames is safe.
 *
 * Every task is timed (see FrontendTiming); the timing records feed the
 * characterization benches (Figs. 5, 9-11, 20) and the accelerator
 * model's workload inputs.
 */
#pragma once

#include <atomic>
#include <vector>

#include "features/fast.hpp"
#include "features/keypoint.hpp"
#include "features/matcher.hpp"
#include "features/optical_flow.hpp"
#include "features/orb.hpp"
#include "features/stereo.hpp"
#include "frontend/lane_group.hpp"
#include "frontend/workspace.hpp"
#include "image/pyramid.hpp"

namespace edx {

/** Frontend configuration: per-block sub-configurations. */
struct FrontendConfig
{
    FastConfig fast;
    StereoConfig stereo;
    FlowConfig flow;
};

/**
 * Wall-clock latency of each frontend task, milliseconds. FD and IF
 * run side by side on the lanes, so their task times are scaled to
 * that phase's wall time: fd + if + fc is the FE block's wall time and
 * tm_ms the TM block's, at any lane count.
 */
struct FrontendTiming
{
    double fd_ms = 0.0; //!< feature point detection (both images)
    double if_ms = 0.0; //!< image filtering (both images)
    double fc_ms = 0.0; //!< descriptor calculation (both images)
    double mo_ms = 0.0; //!< stereo matching optimization
    double dr_ms = 0.0; //!< disparity refinement
    double tm_ms = 0.0; //!< temporal matching (DC + LSS)

    /** Feature-extraction block total. */
    double feBlock() const { return fd_ms + if_ms + fc_ms; }
    /** Stereo-matching block total. */
    double smBlock() const { return mo_ms + dr_ms; }
    /** Temporal-matching block total. */
    double tmBlock() const { return tm_ms; }
    /** Sequential software total. */
    double total() const { return feBlock() + smBlock() + tmBlock(); }
};

/** Workload sizes of one frontend invocation (accelerator-model input). */
struct FrontendWorkload
{
    long image_pixels = 0;   //!< per image
    int left_features = 0;
    int right_features = 0;

    /**
     * Candidate pairs whose descriptor distance the software MO task
     * actually evaluated (the row-banded matcher's workload).
     */
    int stereo_candidates = 0;

    /**
     * The all-pairs candidate count (left x right features) of the
     * brute-force epipolar sweep. The MO hardware model streams every
     * pair through its XOR+popcount lanes regardless of the software
     * matcher's bucketing, so the accelerator figures key off this.
     */
    int stereo_candidates_allpairs = 0;

    int stereo_matches = 0;
    int temporal_tracks = 0;
};

/** Frontend products for one frame. */
struct FrontendOutput
{
    std::vector<KeyPoint> keypoints;       //!< left-image key points
    std::vector<Descriptor> descriptors;   //!< aligned with keypoints
    std::vector<StereoMatch> stereo;       //!< left_index -> keypoints
    std::vector<TemporalMatch> temporal;   //!< prev_index -> previous frame
    FrontendTiming timing;
    FrontendWorkload workload;
};

/**
 * Inter-stage handoff of the split frontend (runFeStage / runSmStage /
 * runTmStage). The left-eye products land directly in FrontendOutput;
 * the right-eye products are only consumed by stereo matching, so they
 * travel in this context instead of the public output. The context is
 * owned by the frame job, so a downstream stage never reads the
 * frontend's workspace while an upstream stage of the next frame is
 * overwriting it.
 */
struct FrontendStageContext
{
    std::vector<KeyPoint> right_keypoints;
    std::vector<Descriptor> right_descriptors;

    size_t
    capacityBytes() const
    {
        return right_keypoints.capacity() * sizeof(KeyPoint) +
               right_descriptors.capacity() * sizeof(Descriptor);
    }
};

/**
 * The stateful frontend: owns the FrameWorkspace (including the
 * previous frame's pyramid, gradients and key points for temporal
 * matching) and the FE and TM lane groups.
 */
class VisionFrontend
{
  public:
    explicit VisionFrontend(const FrontendConfig &cfg = {});
    ~VisionFrontend();

    VisionFrontend(const VisionFrontend &) = delete;
    VisionFrontend &operator=(const VisionFrontend &) = delete;

    /**
     * Processes a rectified stereo pair. The first call produces no
     * temporal matches (there is no previous frame yet).
     */
    FrontendOutput processFrame(const ImageU8 &left, const ImageU8 &right);

    /**
     * processFrame into a caller-owned output packet: with a reused
     * @p out, steady-state frames allocate nothing at all.
     */
    void processFrameInto(const ImageU8 &left, const ImageU8 &right,
                          FrontendOutput &out);

    // --- split sub-stage API (runtime/pipeline.hpp) ------------------
    //
    // processFrameInto() is exactly runFeStage(); runSmStage();
    // runTmStage() — the staged runtime calls the three pieces on
    // (possibly) different stage workers. Each call touches a disjoint
    // section of the frame workspace (per-eye buffers / stereo buffers
    // / temporal double-buffer), and all inter-stage data flows through
    // @p ctx and @p out, so FE of frame N+1 may run concurrently with
    // SM/TM of frame N with bit-identical results.

    /** Feature extraction (FD + IF + FC) on both eyes. */
    void runFeStage(const ImageU8 &left, const ImageU8 &right,
                    FrontendStageContext &ctx, FrontendOutput &out);

    /** Stereo matching (MO + DR) over the FE products. */
    void runSmStage(const ImageU8 &left, const ImageU8 &right,
                    FrontendStageContext &ctx, FrontendOutput &out);

    /** Temporal matching (DC + LSS) against the previous left frame. */
    void runTmStage(const ImageU8 &left, FrontendStageContext &ctx,
                    FrontendOutput &out);

    /** Drops temporal state (e.g., on dataset restart). */
    void reset();

    const FrontendConfig &config() const { return cfg_; }

    /**
     * Sets the lanes the FE and TM blocks run on (values below 1 mean
     * 1). Safe between frames and from another thread: each call reads
     * the count once.
     */
    void setLanes(int lanes);

    /** The current lane count (availableCpus() until setLanes()). */
    int lanes() const { return lanes_.load(std::memory_order_relaxed); }

    /**
     * Number of processed frames that grew any workspace buffer. Flat
     * across steady-state frames == the frame ran allocation-free.
     */
    size_t workspaceAllocationEvents() const { return alloc_events_; }

    /** Current workspace footprint (capacity), bytes. */
    size_t
    workspaceCapacityBytes() const
    {
        return ws_.capacityBytes() + mono_ctx_.capacityBytes();
    }

  private:
    FrontendConfig cfg_;
    FrameWorkspace ws_;
    FrontendStageContext mono_ctx_; //!< reused by processFrameInto()
    std::atomic<int> lanes_;
    LaneGroup fe_lanes_, tm_lanes_;
    bool has_prev_ = false;
    size_t alloc_events_ = 0;
};

} // namespace edx
