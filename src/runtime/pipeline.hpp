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
 *   submit() -> [bounded input queue] -> stage worker 0
 *            -> [bounded stage queue] -> stage worker 1 -> ... -> results
 *
 * Each stage is a single worker consuming a FIFO queue, so frames pass
 * through every stage strictly in submission order and the pipelined
 * pose stream is bit-identical to the sequential one — the concurrency
 * changes *when* a sub-stage runs, never *what* it computes. Sub-stages
 * with cross-frame couplings synchronize internally: the SLAM solve of
 * frame N+1 joins the finish of frame N before it mutates the map (see
 * core/localizer.hpp). Bounded queues give backpressure: a slow stage
 * throttles submit() instead of letting frames accumulate without
 * bound.
 *
 * **Epoch-based cut swaps (self-repipelining).** swapCuts() installs a
 * new topology *between frames* with no restart and no drain barrier:
 * the active topology is an *epoch* (its own stage workers and
 * queues); a swap retires the current epoch's input queue and routes
 * new submissions to a fresh epoch while the old epoch's in-flight
 * frames finish on the old topology. Correctness across the handoff
 * rests on two mechanisms:
 *
 *  - Per-node sequence gates: every frame carries a global submission
 *    sequence number, and each of the five sub-stage nodes executes
 *    frames strictly in that order — across epochs. The localizer
 *    therefore observes exactly the per-node call order of a single
 *    fixed topology, which is what makes every cut list (and so every
 *    swap schedule) bit-identical to the sequential run.
 *  - A sequence-ordered reorder buffer on the result side, so results
 *    surface in submission order even when the first frames of a new
 *    epoch finalize while the old epoch's tail is still in flight.
 *
 * When PipelineConfig::replanner is set the pipeline closes the loop
 * itself: completed-frame telemetry feeds the SessionReplanner and a
 * proposal that clears its hysteresis margin is swapped in
 * automatically (the ROADMAP's self-repipelining item).
 *
 * **Frontend lanes.** Each of N >= 2 stages is one thread, and the
 * producer and consumer around the pipeline keep one more CPU, so an
 * N-stage epoch leaves availableCpus() - N - 1 CPUs free. The FE and
 * TM blocks each run on their stage's thread plus helper lanes on
 * those free CPUs (frontend/frontend.hpp), and every epoch install
 * sets the count (frontendLanes()). When one stage runs both blocks it
 * gets them all, max(1, availableCpus() - N) lanes. When a cut
 * separates FE from TM, FE of frame N+1 runs beside TM of frame N, so
 * the two blocks split the free CPUs. A single stage runs inline on
 * the producer and takes every CPU. A topology that already fills the
 * host keeps one lane. Lanes never change what the frontend computes.
 *
 * The CPU left to the producer side is what keeps the pipeline steady:
 * a block's lanes join on the slowest one, so with every CPU taken, a
 * lane preempted by the producer, the consumer, the OS or a co-tenant
 * of a virtual host stalls the whole block.
 *
 * The offload scheduler (Sec. VI-B) plugs in at the TM -> solve
 * boundary: the decision for the backend kernel is computed from the
 * sizes the frontend just produced, per stage rather than at frame
 * end, and is stamped into the frame's telemetry. When
 * PipelineConfig::refit is set, the measured kernel latency of every
 * completed frame feeds the scheduler's online windowed refit.
 */
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/localizer.hpp"
#include "runtime/frame_queue.hpp"
#include "sched/scheduler.hpp"

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
     * Stage count. 0 (the default) derives the topology: the classic
     * 2-stage frontend|backend split when @ref cuts is empty,
     * cuts.size() + 1 otherwise. An explicit value must be consistent:
     * with an empty cut list only 1 (sequential) and 2 (cuts = {2})
     * are valid — deeper topologies must name their cut points — and
     * with a cut list it must equal cuts.size() + 1. Invalid
     * combinations are rejected with std::invalid_argument — never
     * silently clamped or overridden.
     */
    int stages = 0;

    /**
     * Explicit cut points: strictly increasing boundaries in [0, 3],
     * where cut b splits the chain between sub-stage b and b+1. When
     * non-empty it defines the topology (stages must match
     * cuts.size() + 1 or be left at its default).
     */
    std::vector<int> cuts;

    size_t queue_capacity = 4; //!< bound of each inter-stage queue

    /**
     * Optional per-stage offload scheduler (borrowed). When set, every
     * frame's backend-kernel decision is computed at the TM -> solve
     * boundary against @ref accel_ms.
     *
     * Fit domain: the scheduler's KernelLatencyModel must be fit on
     * the *stage-boundary* size drivers (stageSizeDriver over the
     * frontend workload), not on the backend kernel sizes the fig16
     * benches fit on (map points / stacked rows / marginalized
     * landmarks) — those are a different variable and scale and only
     * exist after the backend has run.
     */
    const RuntimeScheduler *scheduler = nullptr;
    double accel_ms = 0.0; //!< modeled accelerator latency (compute+DMA)

    /**
     * Optional online-refit sink (borrowed, may alias the decision
     * scheduler's object): after every completed frame the measured
     * mode-kernel latency is fed to refit->observe() so the latency
     * model tracks workload drift (arm it with enableOnlineRefit()).
     */
    RuntimeScheduler *refit = nullptr;

    /**
     * Optional online replanner (borrowed): every completed frame's
     * telemetry feeds its rolling window, and a plan that clears its
     * hysteresis margin is swapped in automatically between frames
     * (see runtime/replan.hpp). The swap is applied opportunistically
     * from the finish worker — never blocking a producer parked in
     * submit() — and, failing that, by the next submit() call itself
     * (which already owns the producer lock), so even a saturating
     * producer sees a proposal land within one frame.
     */
    SessionReplanner *replanner = nullptr;
};

/** Aggregate pipeline accounting. */
struct PipelineStats
{
    long frames = 0;
    int stages = 1; //!< stage count of the *current* topology

    /** Total wall time each stage worker spent executing, per stage.
     *  Attributed by stage index within the frame's own epoch. */
    std::array<double, kPipelineNodes> stage_busy_ms{};

    double wall_ms = 0.0;  //!< first submit -> last completion span
    size_t input_high_water = 0; //!< deepest input-queue backlog seen

    long cut_swaps = 0; //!< topologies swapped in mid-run (epochs - 1)

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
    /** @throws std::invalid_argument for an invalid stage/cut config. */
    explicit FramePipeline(Localizer &localizer,
                           const PipelineConfig &cfg = {});

    /** Drains in-flight frames and joins the workers. */
    ~FramePipeline();

    FramePipeline(const FramePipeline &) = delete;
    FramePipeline &operator=(const FramePipeline &) = delete;

    /**
     * Enqueues one frame (taking ownership of its images). Blocks while
     * the bounded input queue is full (backpressure). Returns false —
     * without enqueueing or side effects — once close() has begun.
     */
    bool submit(FrameInput input);

    /**
     * Swaps the active topology to @p cuts between frames: frames
     * already admitted finish on their epoch's topology while later
     * submissions take the new one, with no drain barrier and a pose
     * stream bit-identical to any fixed topology. Callable from any
     * thread except a stage worker. @return false when @p cuts already
     * is the active topology or close() has begun.
     * @throws std::invalid_argument for an invalid stage/cut combo
     *         (same validation as the constructor).
     */
    bool swapCuts(const std::vector<int> &cuts, int stages = 0);

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

    /** The cut list of the current (newest) epoch. */
    std::vector<int> cuts() const;

    /** The node range [first, last) each current-epoch stage executes. */
    std::vector<std::pair<int, int>> segments() const;

    PipelineStats stats() const;

    /**
     * Frontend lanes of a cut list on @p cpus CPUs: the free CPUs
     * (cpus minus one per stage thread and one for the producer side)
     * plus the FE/TM stage's own thread, max(1, cpus - stages) for two
     * or more stages and cpus for one. When a cut separates FE from TM
     * the two blocks run at once on two stage threads and each gets
     * half the free CPUs, max(0, cpus - stages - 1) / 2 + 1.
     */
    static int frontendLanes(const std::vector<int> &cuts, int cpus);

  private:
    /** A frame travelling between the stages. */
    struct StageJob
    {
        long seq = 0; //!< global submission sequence (gates + reorder)
        FrameInput input;
        FrontendOutput fe;
        FrontendStageContext fectx;
        BackendStageContext bectx;
        LocalizationResult res; //!< filled by the finish node
        bool valid = false; //!< false: bypasses every sub-stage
        std::array<double, kPipelineNodes> stage_span_ms{};
        OffloadDecision offload;
        bool has_offload = false;
    };

    /** One installed topology: its own stage workers and queues. */
    struct Epoch
    {
        int index = 0;
        int stages = 1;
        std::vector<int> cuts;
        std::vector<std::pair<int, int>> segments;
        BoundedQueue<StageJob> in_q;
        std::vector<std::unique_ptr<BoundedQueue<StageJob>>> stage_qs;
        std::vector<std::thread> workers;
        std::atomic<int> live_workers{0};

        explicit Epoch(size_t cap) : in_q(cap) {}
    };

    /**
     * Validates a stage/cut combination (the constructor contract) and
     * returns the resolved cut list. @throws std::invalid_argument.
     */
    static std::vector<int> resolveTopology(int stages,
                                            const std::vector<int> &cuts);
    static std::vector<std::pair<int, int>>
    segmentsFor(const std::vector<int> &cuts);

    /** Builds an epoch, starts its stage workers and sets the
     *  session's frontend lanes for its topology. */
    std::unique_ptr<Epoch> spawnEpoch(std::vector<int> cuts, int index);

    /** Builds, spawns and installs an epoch. Caller holds submit_m_. */
    bool installEpoch(std::vector<int> cuts);

    void stageWorker(Epoch *e, int stage);
    void runNode(int node, StageJob &job);
    void executeSegment(Epoch &e, int stage, StageJob &job);
    void finalizeJob(Epoch &e, StageJob &job);
    void runInline(Epoch &e, StageJob job);
    void pushResult(long seq, LocalizationResult res);
    void drainResultsLocked(); //!< under result_m_

    /** Blocks until it is @p seq's turn at sub-stage @p node. */
    void waitNodeTurn(int node, long seq);
    void advanceNodeTurn(int node);
    /** Admitted-then-never-entered seq (close() race): unblocks the
     *  gates and the result order past it. */
    void voidSeq(long seq);

    /** Applies a deferred replanner proposal when no producer holds
     *  submit_m_ (never blocks — called from the finish worker). */
    void trySwapPending();

    Localizer &loc_;
    PipelineConfig cfg_;

    // Epoch bookkeeping. submit_m_ serializes producers *and* swaps,
    // so the global sequence order equals the per-epoch queue order
    // (the gates rely on it). epoch_m_ guards the epoch list/pointer.
    std::mutex submit_m_;
    mutable std::mutex epoch_m_;
    std::vector<std::unique_ptr<Epoch>> epochs_;
    Epoch *current_ = nullptr;
    int epoch_counter_ = 0;
    std::optional<std::vector<int>> pending_swap_;

    // Per-node sequence gates: node_turn_[n] is the next seq allowed
    // to execute sub-stage n (across every epoch).
    std::mutex gate_m_;
    std::condition_variable gate_cv_;
    std::array<long, kPipelineNodes> node_turn_{};
    std::set<long> gate_holes_; //!< voided seqs the gates skip

    // Completed results (unbounded: results are small and draining them
    // must never be able to deadlock the stages). reorder_ holds
    // finalized frames until every earlier seq has surfaced.
    mutable std::mutex result_m_;
    std::condition_variable result_cv_;
    std::deque<LocalizationResult> results_;
    std::map<long, LocalizationResult> reorder_;
    std::set<long> result_holes_; //!< voided seqs the emitter skips
    long next_emit_ = 0;
    long submitted_ = 0;
    long completed_ = 0;
    long voided_ = 0;         //!< admitted seqs that never entered
    bool closed_ = false;     //!< submit() gate, set when close() begins
    bool close_done_ = false; //!< workers joined (under result_m_)
    std::mutex lifecycle_m_;  //!< serializes concurrent close() calls

    mutable std::mutex stats_m_;
    PipelineStats stats_;
    bool first_submit_done_ = false;
    std::chrono::steady_clock::time_point first_submit_;
};

} // namespace edx
