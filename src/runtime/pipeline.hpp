/**
 * @file
 * The staged frame pipeline (Fig. 18 of the paper, in software),
 * generalized from the fixed frontend|backend split to an N-stage
 * topology over the frame's sub-stage graph:
 *
 *   FE (FD/IF/FC) | SM (MO/DR) | TM (DC/LSS) | solve | finish
 *
 * A *cut list* chooses where the stage boundaries fall: cut b splits
 * the chain between sub-stage b and b+1 (so the classic topology is
 * cuts = {2}, frontend|backend, and the dense-keyframing SLAM showcase
 * is cuts = {0, 2, 3}: FE | SM+TM | tracking+BA | marginalization+loop).
 * The placement planner (runtime/placement.hpp) chooses the cuts per
 * platform by minimizing the max predicted stage time over the hw/
 * accelerator latency models and the KernelLatencyModel fits.
 *
 * FramePipeline is a LocalizerPool (runtime/localizer_pool.hpp) with
 * one Standard session over the borrowed localizer: every frame is a
 * job whose segments run on the pool's workers, one worker per stage.
 * A segment of frame N+1 starts only once frame N has passed the
 * segment's last node, so every sub-stage sees the frames in
 * submission order and the pipelined pose stream is bit-identical to
 * the sequential one — the concurrency changes *when* a sub-stage
 * runs, never *what* it computes. Sub-stages with cross-frame
 * couplings synchronize internally: the SLAM solve of frame N+1 joins
 * the finish of frame N before it mutates the map (see
 * core/localizer.hpp), and the pool starts such a solve only once that
 * finish runs. submit() blocks while queue_capacity frames wait for
 * their first stage (backpressure), and results leave in submission
 * order. A frame the localizer cannot split (not initialized, or no
 * images) runs processFrame() as one segment, as in the pool.
 *
 * **Cut swaps (self-repipelining).** swapCuts() sets the cut list of
 * every frame not yet started, with no restart and no drain barrier:
 * frames in flight finish on the list they started with, and the
 * per-node order makes every swap schedule bit-identical to the
 * sequential run. When PipelineConfig::replanner is set, the worker
 * that finishes a frame feeds its telemetry to the SessionReplanner,
 * and a proposal that clears its hysteresis margin applies at once.
 *
 * **Frontend lanes.** Each of N >= 2 stages is one worker, and the
 * producer and consumer around the pipeline keep one more CPU, so an
 * N-stage topology leaves availableCpus() - N - 1 CPUs free. The FE
 * and TM blocks each run on their stage's worker plus helper lanes on
 * those free CPUs (frontend/frontend.hpp), and every cut change sets
 * the count (frontendLanes()). When one stage runs both blocks it
 * gets them all, max(1, availableCpus() - N) lanes. When a cut
 * separates FE from TM, FE of frame N+1 runs beside TM of frame N, so
 * the two blocks split the free CPUs. A single stage takes every CPU.
 * A topology that already fills the host keeps one lane. Lanes never
 * change what the frontend computes.
 *
 * The CPU left to the producer side is what keeps the pipeline steady:
 * a block's lanes join on the slowest one, so with every CPU taken, a
 * lane preempted by the producer, the consumer, the OS or a co-tenant
 * of a virtual host stalls the whole block.
 */
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "runtime/localizer_pool.hpp"

namespace edx {

class SessionReplanner;

// kPipelineNodes (the sub-stage count) lives in runtime/telemetry.hpp,
// included via core/localizer.hpp.

/** The sub-stage graph nodes, in execution order. */
enum class PipeNode
{
    Fe = 0,     //!< feature extraction (FD + IF + FC)
    Sm = 1,     //!< stereo matching (MO + DR)
    Tm = 2,     //!< temporal matching (DC + LSS)
    Solve = 3,  //!< mode backend solver (tracking / MSCKF / BA)
    Finish = 4, //!< marginalization + loop detection / fusion
};

/** Short display name of a sub-stage node ("FE", "SM", ...). */
const char *pipeNodeName(int node);

/** Renders a cut list as "FE+SM+TM | SOLVE+FIN"-style topology. */
std::string describeCuts(const std::vector<int> &cuts);

/** Pipeline topology and policy. */
struct PipelineConfig
{
    /**
     * Cut points: strictly increasing boundaries in [0, 3], where cut
     * b splits the chain between sub-stage b and b+1. The cut list
     * alone names the topology: the default {2} is the classic
     * frontend|backend split, and {} runs every frame as one stage.
     * Invalid lists are rejected with std::invalid_argument — never
     * silently clamped.
     */
    std::vector<int> cuts = {static_cast<int>(PipeNode::Tm)};

    /**
     * Frames admitted ahead of the first stage; submit() blocks beyond
     * it. Between stages the pipeline buffers as much again per cut.
     */
    size_t queue_capacity = 4;

    /**
     * Optional online replanner (borrowed): every completed frame's
     * telemetry feeds its rolling window, and a plan that clears its
     * hysteresis margin becomes the cut list of every frame not yet
     * started (see runtime/replan.hpp).
     */
    SessionReplanner *replanner = nullptr;
};

/** Aggregate pipeline accounting. */
struct PipelineStats
{
    long frames = 0;
    int stages = 1; //!< stage count of the *current* topology

    /** Total wall time the workers spent executing, per stage index of
     *  each frame's own topology. */
    std::array<double, kPipelineNodes> stage_busy_ms{};

    double wall_ms = 0.0;  //!< first admission -> last completion span
    size_t input_high_water = 0; //!< most frames seen waiting to start

    long cut_swaps = 0; //!< cut lists changed mid-run

    /** Achieved end-to-end throughput, frames/s. */
    double
    fps() const
    {
        return wall_ms > 0.0 ? 1000.0 * frames / wall_ms : 0.0;
    }
};

/**
 * Runs one Localizer as a staged pipeline. The localizer is borrowed
 * and must not be touched by the caller between start and close().
 */
class FramePipeline
{
  public:
    /** @throws std::invalid_argument for an invalid cut list. */
    explicit FramePipeline(Localizer &localizer,
                           const PipelineConfig &cfg = {});

    /** Drains in-flight frames and joins the workers. */
    ~FramePipeline();

    FramePipeline(const FramePipeline &) = delete;
    FramePipeline &operator=(const FramePipeline &) = delete;

    /**
     * Admits one frame (taking ownership of its images). Blocks while
     * queue_capacity frames wait to start (backpressure). Returns
     * false — without admitting or side effects — once close() has
     * stopped the workers.
     */
    bool submit(FrameInput input);

    /**
     * Sets the cut list of every frame not yet started: frames in
     * flight finish on the list they started with, with no drain
     * barrier and a pose stream bit-identical to any fixed topology.
     * A deeper list starts the workers it lacks. @return false when
     * @p cuts already is the current list or close() has stopped the
     * workers.
     * @throws std::invalid_argument for an invalid cut list (same
     *         validation as the constructor).
     */
    bool swapCuts(const std::vector<int> &cuts);

    /**
     * Non-blocking: pops the next completed frame in submission order.
     * @return false when no result is ready.
     */
    bool poll(LocalizationResult &out);

    /**
     * Blocks until the next result. Returns false only once close()
     * has begun and every admitted frame has completed — a transient
     * "nothing in flight" gap between two producer submissions never
     * ends a consumer loop.
     */
    bool awaitResult(LocalizationResult &out);

    /** Blocks until every submitted frame has completed. */
    void flush();

    /** Flushes, stops the workers; submit() fails afterwards. Safe to
     *  call concurrently: late callers block until the first caller's
     *  close completes. */
    void close();

    const PipelineConfig &config() const { return cfg_; }

    /** The cut list the next frame to start takes. */
    std::vector<int> cuts() const;

    PipelineStats stats() const;

    /**
     * Frontend lanes of a cut list on @p cpus CPUs: the free CPUs
     * (cpus minus one per stage worker and one for the producer side)
     * plus the FE/TM stage's own worker, max(1, cpus - stages) for two
     * or more stages and cpus for one. When a cut separates FE from TM
     * the two blocks run at once on two workers and each gets half the
     * free CPUs, max(0, cpus - stages - 1) / 2 + 1.
     */
    static int frontendLanes(const std::vector<int> &cuts, int cpus);

  private:
    /** @return @p cfg after validating its cut list.
     *  @throws std::invalid_argument */
    static const PipelineConfig &checked(const PipelineConfig &cfg);
    static void checkCuts(const std::vector<int> &cuts);

    static constexpr int kSession = 0; //!< the pool's one session

    PipelineConfig cfg_;
    LocalizerPool pool_;
};

} // namespace edx
