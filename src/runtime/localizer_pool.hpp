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
 * Scheduling is actor-style: every session owns a FIFO of pending
 * frames and is processed by at most one worker at a time, so frames
 * of one session retain submission order (localizers are stateful and
 * order-sensitive) while different sessions run concurrently across
 * the worker pool. The workers already take every core, so addSession()
 * pins each session's frontend to one lane (frontend/frontend.hpp).
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
#include "runtime/replan.hpp"
#include "runtime/solve_hub.hpp"

namespace edx {

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
     * arrive, then park at the window; once every in-flight frame has
     * reached it the pool releases up to `workers` backends together,
     * pre-announcing the group to the hub so their first kernel
     * requests rendezvous at full width. Per-session pose streams stay
     * bit-identical (the window changes *when* a backend runs, never
     * what it computes). Implies batch_solves.
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
     * Per-session online re-planning: every completed frame's telemetry
     * feeds the session's SessionReplanner (runtime/replan.hpp), and on
     * each tick a candidate cut list is fit from the live window and
     * adopted as the session's *recommended topology* when it clears
     * the hysteresis margin. The pool schedules whole frames (the
     * actor model never splits a session across workers), so the plan
     * is advisory here — it is what a staged per-session runtime
     * (FramePipeline) would be swapped to — but the counters and the
     * recommended cuts flow through PoolStats either way. Off by
     * default.
     */
    bool replan = false;
    ReplanConfig replan_cfg; //!< cadence/hysteresis when replan is on

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
     * The session's recommended pipeline cut list under
     * PoolConfig::replan (empty = sequential / replanning off), plus
     * its adaptation counters.
     */
    std::vector<int> plan_cuts;
    ReplanStats replan;

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

    // Adaptation counters (elastic scaling + online re-planning).
    int workers = 0;           //!< current live worker count
    long workers_grown = 0;    //!< elastic spawns beyond the initial set
    long workers_retired = 0;  //!< workers retired on sustained idle
    long replans = 0;          //!< replan ticks evaluated, all sessions
    long plan_updates = 0;     //!< proposals written to plan_cuts
    long plans_held = 0;       //!< ticks held by hysteresis/min-data

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
    using Clock = std::chrono::steady_clock;

    /** A frame admitted into a session queue. */
    struct PendingFrame
    {
        FrameInput input;
        long admit_seq = 0; //!< pool-wide admission order (drop-oldest)
        Clock::time_point admit_time;
    };

    struct Session
    {
        std::unique_ptr<Localizer> loc;
        SessionConfig cfg;
        std::deque<PendingFrame> pending;
        bool running = false; //!< a worker currently owns this session
        SessionPoolStats stats;

        // Gang window: the frame parked between its frontend and its
        // released backend (valid while this session sits in
        // gang_staged_ / gang_released_).
        FrameInput staged_input;
        FrontendOutput staged_fe;
        double staged_wait_ms = 0.0;

        // Online re-planning (PoolConfig::replan).
        std::unique_ptr<SessionReplanner> replanner;
        std::vector<int> plan_cuts; //!< current recommended topology
    };

    void workerLoop();
    /** Blocks for work; false = this worker retired (elastic shrink). */
    bool waitForWork(std::unique_lock<std::mutex> &lk);  //!< under m_
    void spawnWorkerLocked();                //!< under m_
    void notifyResourceShiftLocked();        //!< under m_
    void observeForReplan(Session &s, const LocalizationResult &res);
    void runReleasedBackend(std::unique_lock<std::mutex> &lk, int sid);
    void dispatchSession(std::unique_lock<std::mutex> &lk, int sid);
    bool canDispatchClass(int qi) const;     //!< under m_
    int pickableClass() const;               //!< under m_
    int gangJoinable() const;                //!< under m_
    bool admitLocked(std::unique_lock<std::mutex> &lk, int session_id,
                     FrameInput &&input);    //!< under m_ (may wait)
    int pickSession();                       //!< under m_
    void dropOldestBestEffort();             //!< under m_
    void finishFrame(int sid, PoolResult r); //!< under m_
    void maybeReleaseGang(bool force);       //!< under m_
    Session &sessionAt(int session_id);      //!< under m_ (throws)

    PoolConfig cfg_;
    std::array<size_t, kQosClasses> class_capacity_{};
    SolveHub hub_; //!< shared batching rendezvous (used when enabled)

    mutable std::mutex m_;
    std::condition_variable work_cv_;   //!< workers: runnable session
    std::condition_variable space_cv_;  //!< producers: class quota space
    std::condition_variable result_cv_; //!< consumers: results / drain

    std::vector<std::unique_ptr<Session>> sessions_;
    bool have_safety_ = false; //!< any SAFETY_CRITICAL session registered

    /** Sessions with pending frames, not running, per class. */
    std::array<std::deque<int>, kQosClasses> runnable_;
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
    int gang_frontends_ = 0;        //!< frames currently in a frontend
    int gang_outstanding_ = 0;      //!< released backends not yet done
    std::deque<int> gang_staged_;   //!< sessions parked at the window
    std::deque<int> gang_released_; //!< backends released to run
    bool gang_timer_armed_ = false; //!< wave waiting only on frontends
    Clock::time_point gang_wait_since_;

    std::deque<PoolResult> results_;
    std::mutex lifecycle_m_; //!< serializes concurrent shutdown() calls
    std::vector<std::thread> workers_;
};

} // namespace edx
