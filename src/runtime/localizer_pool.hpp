/**
 * @file
 * Multi-session serving: N independent Localizer sessions over shared
 * read-only assets.
 *
 * A deployment serves many robots at once (the ROADMAP's production
 * target); each robot is an independent localization *session*, but
 * the heavyweight assets — the trained BoW vocabulary and the prior
 * map — are immutable and shared by every session (the multi-mission
 * structure of maplab-style systems).
 *
 * The pool's worker loop is the runtime's one executor of the frame
 * graph (FE | SM | TM | solve | finish). Every admitted frame becomes
 * a job that runs its session's cut list one segment at a time on
 * whichever worker is free, and per-session node progress orders the
 * jobs: a segment ending at node b of frame s starts only once frame
 * s-1 has completed node b, so every node sees its frames in
 * submission order and each session's results leave in that order
 * (localizers are stateful and order-sensitive). Sessions added here
 * run whole frames, one at a time (actor-style), while different
 * sessions run concurrently across the workers; FramePipeline
 * (runtime/pipeline.hpp) is this pool with one session whose frames
 * run as several segments. The workers already take every core, so
 * addSession() pins each session's frontend to one lane
 * (frontend/frontend.hpp).
 *
 * **QoS admission control.** Robots' frames matter unequally: a
 * safety-critical vehicle's pose must not be starved by a fleet of
 * best-effort mapping robots, and under contention the pool must
 * degrade *selectively*, not uniformly. Every session carries a QoS
 * class, and the single global frame bound of the early pool is
 * replaced by a per-class admission controller:
 *
 *  - SAFETY_CRITICAL frames admit against a reserved queue quota that
 *    no other class can consume, and `PoolConfig::reserved_workers`
 *    worker slots are held back for them at dispatch.
 *  - STANDARD frames keep the classic blocking backpressure against
 *    their own quota.
 *  - BEST_EFFORT submit() never blocks: at quota the *class-oldest*
 *    pending frame is dropped (drop-oldest — a live robot wants the
 *    freshest frame, not the stalest), and an optional per-session
 *    frame deadline sheds frames that waited too long at dispatch.
 *
 * Dispatch picks safety-critical work first but rotates a 1-in-N
 * "first look" to best-effort sessions so reservation never starves
 * them entirely. Dropped frames are first-class: per-session drop and
 * queue-latency counters flow through PoolStats, and every completed
 * frame's telemetry records its admission->dispatch wait.
 */
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/localizer.hpp"
#include "map/map_service.hpp"
#include "runtime/solve_hub.hpp"

namespace edx {

class SessionReplanner;

/** Session QoS classes, in dispatch-priority order. */
enum class QosClass
{
    SafetyCritical = 0, //!< reserved queue + worker capacity, never shed
    Standard = 1,       //!< blocking backpressure against its own quota
    BestEffort = 2,     //!< drop-oldest at quota, optional deadline drop
};

constexpr int kQosClasses = 3;

/** Display name of a QoS class ("safety-critical", ...). */
const char *qosClassName(QosClass q);

/** Per-session serving policy. */
struct SessionConfig
{
    QosClass qos = QosClass::Standard;

    /**
     * BEST_EFFORT only: a frame that waited longer than this between
     * admission and dispatch is dropped instead of processed (a stale
     * pose helps nobody). 0 disables the deadline.
     */
    double frame_deadline_ms = 0.0;

    /**
     * Attach this session to PoolConfig::map_service (no-op when the
     * pool has none). Off, the session keeps the legacy private-map
     * behavior even in a shared-map pool — e.g. a survey robot whose
     * map must stay quarantined until reviewed.
     */
    bool share_map = true;
};

/** Pool sizing and policy. */
struct PoolConfig
{
    /**
     * Worker threads shared by all sessions. With @ref elastic_workers
     * this is only the *initial* count — the pool then sizes itself.
     */
    int workers = 2;

    /**
     * Elastic worker scaling: the pool grows the worker set when
     * dispatched frames aged in their queues (the PR 5 queue-wait
     * telemetry — waiting frames mean the pool is parallelism-bound)
     * and retires workers that sat idle for @ref shrink_idle_ms, so
     * nobody hand-sizes the pool per platform. Growth is capped at
     * @ref max_workers; shrink never goes below reserved_workers + 1
     * (the safety reservation must stay dispatchable, and so must one
     * non-reserved slot). Off by default: a fixed `workers` count.
     */
    bool elastic_workers = false;

    /** Elastic growth bound. 0 = availableCpus() (never below
     *  `workers`). */
    int max_workers = 0;

    /** Elastic growth trigger: a dispatched frame that waited longer
     *  than this (ms) between admission and dispatch spawns a worker. */
    double grow_wait_ms = 2.0;

    /** Elastic shrink trigger: a worker idle this long (ms) retires. */
    double shrink_idle_ms = 250.0;

    /**
     * Queued-frame quota of the STANDARD class (the name predates the
     * QoS classes: it used to be the single global bound). Clamped to
     * >= 1.
     */
    size_t queue_capacity = 16;

    /**
     * Reserved queued-frame quota of the SAFETY_CRITICAL class. Only
     * safety-critical frames consume these slots. 0 defaults to
     * queue_capacity.
     */
    size_t safety_capacity = 0;

    /**
     * Queued-frame quota of the BEST_EFFORT class; at quota submit()
     * drops the class-oldest pending frame instead of blocking.
     * 0 defaults to queue_capacity.
     */
    size_t best_effort_capacity = 0;

    /**
     * Worker slots held back for safety-critical dispatch: non-safety
     * frames are dispatched only while fewer than
     * `workers - reserved_workers` of them are executing. Inert while
     * the pool has no safety-critical session. Clamped to
     * [0, workers - 1].
     */
    int reserved_workers = 0;

    /**
     * Anti-starvation rotation: every Nth dispatch offers best-effort
     * sessions the first look over *standard* ones (still subject to
     * reserved_workers), so a sustained standard backlog cannot starve
     * them entirely. Safety-critical work is never preempted by the
     * rotation: best-effort progresses in the gaps of the
     * safety-critical stream instead. 0 disables the rotation (pure
     * priority order).
     */
    int best_effort_share = 8;

    /**
     * Batch same-mode backend kernels (projection / Kalman gain /
     * marginalization) across concurrently running sessions through a
     * shared SolveHub — one blocked solve instead of N independent
     * ones, with bit-identical poses (the ROADMAP's "batched backend
     * solves"). Off by default.
     */
    bool batch_solves = false;

    /**
     * Gang window: align concurrent sessions' backend stages so the
     * SolveHub observes batch sizes near the session count instead of
     * whoever happens to rendezvous. Frames run their frontend as they
     * arrive, then park before the solve; once every in-flight frame
     * has reached the window the pool releases up to `workers` parked
     * frames together, pre-announcing the group to the hub so their
     * first kernel requests rendezvous at full width. Per-session pose
     * streams stay bit-identical (the window changes *when* a backend
     * runs, never what it computes). Implies batch_solves.
     */
    bool gang_window = false;

    /**
     * Bound on how long a formed wave waits for lagging in-flight
     * frontends (QoS composition: a best-effort session's slow
     * frontend must not hold a safety-critical backend hostage at the
     * window). On timeout the wave releases with a *narrower*
     * pre-announced width — only the frames already parked — and the
     * laggards join the next wave. Generous by default so healthy skew
     * between concurrent frontends never narrows a wave; 0 waits
     * indefinitely (the pre-QoS behavior).
     */
    double gang_timeout_ms = 2000.0;

    /**
     * Live shared-map service (map/map_service.hpp), borrowed; must
     * outlive the pool. Every added session with
     * SessionConfig::share_map attaches: SLAM sessions contribute
     * retired keyframes, registration sessions adopt published map
     * epochs at solve boundaries. Null keeps the classic read-only
     * shared-asset pool.
     */
    MapService *map_service = nullptr;
};

/** One completed frame of one session. */
struct PoolResult
{
    int session_id = -1;
    QosClass qos = QosClass::Standard;
    LocalizationResult result;
};

/** Per-session serving counters (drops are first-class outcomes). */
struct SessionPoolStats
{
    QosClass qos = QosClass::Standard;
    long submitted = 0; //!< frames admitted into the session queue
    long completed = 0; //!< frames that produced a PoolResult
    long dropped_oldest = 0;   //!< shed by drop-oldest at admission
    long dropped_deadline = 0; //!< shed by the frame deadline at dispatch
    double queue_wait_total_ms = 0.0; //!< admission -> dispatch, completed frames
    double queue_wait_max_ms = 0.0;

    /**
     * Tracking-quality accounting (core/health.hpp): the session's
     * health state after its latest completed frame, and how many
     * completed frames it spent in each state. Lets a fleet operator
     * spot a degraded session from the pool's serving counters without
     * touching per-frame telemetry.
     */
    TrackingHealth health = TrackingHealth::Nominal;
    std::array<long, kTrackingHealthStates> health_frames{};
    long dead_reckoned_frames = 0; //!< poses from the fallback reckoner

    /**
     * Shared-map participation (PoolConfig::map_service): contribution
     * batches this session pushed into the service, the epoch its
     * registration tracker currently reads, and the worst observed
     * epoch-acquire latency — the solve-side cost of map sharing, which
     * the service's design bounds to a pointer copy.
     */
    long map_contributions = 0;
    uint64_t map_epoch = 0;
    double epoch_acquire_max_ms = 0.0;

    long dropped() const { return dropped_oldest + dropped_deadline; }

    double
    meanQueueWaitMs() const
    {
        return completed > 0 ? queue_wait_total_ms / completed : 0.0;
    }
};

/** Pool-wide serving counters. */
struct PoolStats
{
    std::vector<SessionPoolStats> sessions;
    long submitted = 0;
    long completed = 0;
    long dropped = 0;

    // Elastic scaling counters.
    int workers = 0;           //!< current live worker count
    long workers_grown = 0;    //!< elastic spawns beyond the initial set
    long workers_retired = 0;  //!< workers retired on sustained idle

    // Shared-map service counters (PoolConfig::map_service).
    bool map_service_attached = false;
    MapServiceStats map_service; //!< zeros when no service is attached
};

/** Serves N concurrent localization sessions. */
class LocalizerPool
{
  public:
    explicit LocalizerPool(const PoolConfig &cfg = {});

    /** Drains all sessions and joins the workers. */
    ~LocalizerPool();

    LocalizerPool(const LocalizerPool &) = delete;
    LocalizerPool &operator=(const LocalizerPool &) = delete;

    /**
     * Registers a session built by the caller (e.g. sharing a
     * vocabulary/map across sessions). @return the session id.
     */
    int addSession(std::unique_ptr<Localizer> localizer,
                   const SessionConfig &session = {});

    /**
     * Convenience: constructs the Localizer in place. The vocabulary
     * and prior map are borrowed read-only and shared across sessions;
     * they must outlive the pool.
     */
    int createSession(const LocalizerConfig &cfg, const StereoRig &rig,
                      const Vocabulary *vocabulary, const Map *prior_map,
                      const Pose &start_pose, double t0,
                      const Vec3 &start_velocity = Vec3::zero(),
                      const SessionConfig &session = {});

    /**
     * Enqueues a frame for @p session_id (taking ownership of its
     * images), subject to the session class's admission quota:
     * safety-critical and standard submissions block while their class
     * quota is reached; best-effort submissions never block (at quota
     * the class-oldest pending frame is dropped and counted). Returns
     * false after shutdown().
     * @throws std::out_of_range for an unknown session id.
     */
    bool submit(int session_id, FrameInput input);

    /**
     * Admits a batch of frames under one lock hold, so the workers
     * observe the whole batch at once — a lockstep driver (replay,
     * benchmark, synchronized multi-robot ingest) submitting one frame
     * per session must not race worker dispatch, or the gang window
     * sees a lone early arrival and releases a narrow wave. Per-frame
     * admission rules match submit(); a safety/standard frame that
     * hits its class quota still waits for space (releasing the lock,
     * so the already-admitted prefix becomes visible early — size the
     * queue for the batch when atomicity matters). @return the number
     * of frames admitted.
     * @throws std::out_of_range for an unknown session id.
     */
    int submitBatch(std::vector<std::pair<int, FrameInput>> frames);

    /** Non-blocking: pops any completed frame. */
    bool poll(PoolResult &out);

    /**
     * Blocks until a result is available. Returns false only once the
     * pool is shutting down and every admitted frame has completed or
     * been dropped — a transient "nothing in flight" gap between two
     * producer submissions never ends a consumer loop.
     */
    bool awaitResult(PoolResult &out);

    /**
     * Blocks until every admitted frame has completed or been dropped,
     * including frames of producers currently parked inside submit()
     * (an in-flight submitter is visible to drain — its frame cannot
     * be silently lost to a concurrent shutdown).
     */
    void drain();

    /** Drains and stops the workers; submit() fails afterwards. Safe
     *  to call concurrently: late callers block until the first
     *  caller's shutdown completes. */
    void shutdown();

    int sessionCount() const;

    /**
     * Direct access to a session's localizer. Only safe when the
     * session has no in-flight frames (e.g. after drain()).
     * @throws std::out_of_range for an unknown session id.
     */
    Localizer &session(int session_id);

    /** Batching counters of the shared hub (zeros when batching off). */
    SolveHubStats solveStats() const;

    /** Per-session and pool-wide serving counters. */
    PoolStats stats() const;

  private:
    friend class FramePipeline;
    using Clock = std::chrono::steady_clock;

    /** A frame admitted into a session queue. */
    struct PendingFrame
    {
        FrameInput input;
        long admit_seq = 0; //!< pool-wide admission order (drop-oldest)
        Clock::time_point admit_time;
    };

    /** Where a started frame stands between its segments. */
    enum class JobState
    {
        Waiting, //!< its next segment is not ready yet
        Queued,  //!< in ready_, waiting for a worker
        Running, //!< a worker is executing one of its segments
        Parked,  //!< at the gang window, before its solve
    };

    /** A started frame: its inputs and the products of its nodes. */
    struct Job
    {
        int sid = -1;
        long seq = 0; //!< the session's frame sequence number
        FrameInput input;
        FrontendOutput fe;
        FrontendStageContext fectx;
        BackendStageContext bectx;
        LocalizationResult res; //!< filled by the finish node

        /** The cut list the frame took at its first segment. */
        std::vector<int> cuts;
        /** One processFrame() call instead of the five nodes. */
        bool whole = false;
        bool park = false;     //!< stops before the solve (gang window)
        bool released = false; //!< member of a released gang wave
        int next = 0;          //!< next node to run
        JobState state = JobState::Waiting;
        double wait_ms = 0.0;  //!< admission -> first segment
        std::array<double, kPipelineNodes> span_ms{}; //!< per segment
    };

    struct Session
    {
        Localizer *loc = nullptr;
        std::unique_ptr<Localizer> owned; //!< null when borrowed
        SessionConfig cfg;
        std::deque<PendingFrame> pending;

        /** Started, unfinished frames, in sequence order. */
        std::deque<std::unique_ptr<Job>> jobs;
        /** Cut list of the frames not started yet ({} = whole frames). */
        std::vector<int> cuts;
        size_t max_jobs = 1; //!< bound on jobs.size()
        long started = 0;    //!< frames started (the next frame's seq)
        /** done[n]: frames that completed node n (they do so in order). */
        std::array<long, kPipelineNodes> done{};
        /** Frames whose finish node has started or completed. */
        long finish_started = 0;
        bool runnable = false; //!< listed in runnable_
        SessionReplanner *replanner = nullptr; //!< borrowed, may be null
        SessionPoolStats stats;

        // Accounting FramePipeline::stats() reports.
        std::array<double, kPipelineNodes> stage_busy_ms{};
        size_t pending_high_water = 0;
        long cut_swaps = 0;
        Clock::time_point first_admit;
        double wall_ms = 0.0; //!< first admission -> latest completion
    };

    void workerLoop();
    /** Blocks for work; false = this worker retired (elastic shrink). */
    bool waitForWork(std::unique_lock<std::mutex> &lk);  //!< under m_
    bool spawnWorkerLocked(); //!< under m_; false once stopping
    void dispatchSession(std::unique_lock<std::mutex> &lk, int sid);
    /** Runs @p job's ready segments; returns once it waits, parks or
     *  completes. Under m_ (released while a segment executes). */
    void runJob(std::unique_lock<std::mutex> &lk, Job &job);
    void runNodes(Session &s, Job &job, int first, int stop);
    /** Queues @p sid's ready continuations and lists it in runnable_
     *  exactly while its next frame may start. Under m_. */
    void refreshSessionLocked(int sid);
    bool canStartLocked(const Session &s) const; //!< under m_
    bool canDispatchClass(int qi) const;     //!< under m_
    int pickableClass() const;               //!< under m_
    int gangJoinable() const;                //!< under m_
    bool admitLocked(std::unique_lock<std::mutex> &lk, int session_id,
                     FrameInput &&input);    //!< under m_ (may wait)
    int pickSession();                       //!< under m_
    void dropOldestBestEffort();             //!< under m_
    void finishJob(Session &s, Job &job);    //!< under m_
    void maybeReleaseGang(bool force);       //!< under m_
    Session &sessionAt(int session_id);      //!< under m_ (throws)

    /**
     * FramePipeline's pool: with @p staged set, session 0 runs that
     * borrowed localizer's frames as the segments of @p cuts and feeds
     * them to @p replanner (may be null).
     */
    LocalizerPool(const PoolConfig &cfg, Localizer *staged,
                  const std::vector<int> &cuts, SessionReplanner *replanner);
    /** @return false when @p cuts already is the list or the pool is
     *  stopping. */
    bool setCuts(int sid, const std::vector<int> &cuts);
    void setCutsLocked(Session &s, const std::vector<int> &cuts);
    void swapCutsLocked(Session &s, const std::vector<int> &cuts);

    PoolConfig cfg_;
    std::array<size_t, kQosClasses> class_capacity_{};
    SolveHub hub_; //!< shared batching rendezvous (used when enabled)

    mutable std::mutex m_;
    std::condition_variable work_cv_;   //!< workers: runnable work
    std::condition_variable space_cv_;  //!< producers: class quota space
    std::condition_variable result_cv_; //!< consumers: results / drain

    std::vector<std::unique_ptr<Session>> sessions_;
    bool have_safety_ = false; //!< any SAFETY_CRITICAL session registered

    /** Sessions whose next frame may start now, per class. */
    std::array<std::deque<int>, kQosClasses> runnable_;
    /** Started frames whose next segment is ready: they run before any
     *  new frame starts. */
    std::deque<Job *> ready_;
    std::array<size_t, kQosClasses> class_queued_{};
    int active_non_safety_ = 0; //!< workers executing non-safety frames
    long dispatch_count_ = 0;   //!< weighted-rotation counter

    // Elastic worker scaling (all under m_). live_workers_ is the
    // authoritative pool width: dispatch gates and the gang window size
    // against it, never against cfg_.workers.
    int live_workers_ = 0;
    int min_workers_ = 1;
    int max_workers_ = 1;
    long workers_grown_ = 0;
    long workers_retired_ = 0;
    long admit_seq_ = 0;
    long submitted_ = 0;
    long completed_ = 0;
    long dropped_ = 0;
    int pending_submitters_ = 0; //!< producers inside submit()
    bool stopping_ = false;
    bool shutdown_done_ = false;

    // Gang window state (gang_window only).
    int gang_frontends_ = 0;       //!< frames currently before their park
    int gang_outstanding_ = 0;     //!< released frames not yet finished
    std::deque<Job *> gang_staged_; //!< frames parked at the window
    bool gang_timer_armed_ = false; //!< wave waiting only on frontends
    Clock::time_point gang_wait_since_;

    std::deque<PoolResult> results_;
    std::mutex lifecycle_m_; //!< serializes concurrent shutdown() calls
    std::vector<std::thread> workers_;
};

} // namespace edx
