#include "runtime/localizer_pool.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "math/cpu_features.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/replan.hpp"

namespace edx {

namespace {

constexpr int kSolve = static_cast<int>(PipeNode::Solve);
constexpr int kFinish = static_cast<int>(PipeNode::Finish);

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** End (exclusive) of the segment of @p cuts that holds @p node. */
int
segmentEnd(const std::vector<int> &cuts, int node)
{
    for (int c : cuts)
        if (c >= node)
            return c + 1;
    return kPipelineNodes;
}

/** Index of the segment of @p cuts that holds @p node. */
int
segmentIndex(const std::vector<int> &cuts, int node)
{
    return static_cast<int>(
        std::count_if(cuts.begin(), cuts.end(), [&](int c) {
            return c < node;
        }));
}

/**
 * Whether frame @p seq of a session with node progress @p done and
 * @p finish_started may run the nodes of a segment ending at @p end.
 * Frame seq-1 must have completed node end-1 (and so every earlier
 * node). A segment that stops right before the finish holds a solve
 * that may wait inside the localizer for finish(seq-1) (SLAM, mode
 * switches), so it starts only once that finish is running: a worker
 * never waits on work still queued.
 */
bool
nodesReady(const std::array<long, kPipelineNodes> &done,
           long finish_started, long seq, int end)
{
    if (done[end - 1] < seq)
        return false;
    return end != kFinish || finish_started >= seq;
}

} // namespace

const char *
qosClassName(QosClass q)
{
    switch (q) {
      case QosClass::SafetyCritical:
        return "safety-critical";
      case QosClass::Standard:
        return "standard";
      case QosClass::BestEffort:
        return "best-effort";
    }
    return "?";
}

LocalizerPool::LocalizerPool(const PoolConfig &cfg)
    : LocalizerPool(cfg, nullptr, {}, nullptr)
{}

LocalizerPool::LocalizerPool(const PoolConfig &cfg, Localizer *staged,
                             const std::vector<int> &cuts,
                             SessionReplanner *replanner)
    : cfg_(cfg)
{
    if (cfg_.workers < 1)
        cfg_.workers = 1;
    if (cfg_.queue_capacity < 1)
        cfg_.queue_capacity = 1;
    if (cfg_.safety_capacity == 0)
        cfg_.safety_capacity = cfg_.queue_capacity;
    if (cfg_.best_effort_capacity == 0)
        cfg_.best_effort_capacity = cfg_.queue_capacity;
    // At least one worker must stay dispatchable for non-safety work,
    // or a pool with any safety-critical session would starve the rest
    // outright instead of degrading them.
    cfg_.reserved_workers =
        std::clamp(cfg_.reserved_workers, 0, cfg_.workers - 1);
    if (cfg_.best_effort_share < 0)
        cfg_.best_effort_share = 0;
    if (cfg_.gang_timeout_ms < 0.0)
        cfg_.gang_timeout_ms = 0.0;
    if (cfg_.gang_window)
        cfg_.batch_solves = true; // aligning stages without the hub
                                  // would align nothing
    class_capacity_ = {cfg_.safety_capacity, cfg_.queue_capacity,
                       cfg_.best_effort_capacity};

    // Elastic bounds: shrink must keep the safety reservation *and* at
    // least one non-reserved slot dispatchable; growth tops out at the
    // machine (or the explicit cap).
    min_workers_ = std::max(1, cfg_.reserved_workers + 1);
    max_workers_ = cfg_.workers;
    if (cfg_.elastic_workers) {
        max_workers_ =
            cfg_.max_workers > 0 ? cfg_.max_workers : availableCpus();
        max_workers_ = std::max(max_workers_, cfg_.workers);
        if (cfg_.grow_wait_ms < 0.0)
            cfg_.grow_wait_ms = 0.0;
        if (cfg_.shrink_idle_ms < 1.0)
            cfg_.shrink_idle_ms = 1.0;
    }

    // Under elastic scaling cfg_.workers is only the starting point;
    // clamp it into [min, max] so a pool configured with a reservation
    // starts wide enough to dispatch both classes at all.
    int initial = cfg_.workers;
    if (cfg_.elastic_workers)
        initial = std::min(std::max(initial, min_workers_), max_workers_);

    // FramePipeline's session exists before any worker starts, and the
    // workers start without m_ held, so none of them contends with this
    // thread. Only a dispatched frame can grow workers_, and none can
    // be submitted before the constructor returns.
    if (staged) {
        auto s = std::make_unique<Session>();
        s->loc = staged;
        s->replanner = replanner;
        setCutsLocked(*s, cuts);
        sessions_.push_back(std::move(s));
    }
    live_workers_ = initial;
    workers_.reserve(initial);
    for (int i = 0; i < initial; ++i)
        workers_.emplace_back(&LocalizerPool::workerLoop, this);
}

bool
LocalizerPool::spawnWorkerLocked()
{
    // shutdown() joins workers_ without m_ once stopping_ is set.
    if (stopping_)
        return false;
    workers_.emplace_back(&LocalizerPool::workerLoop, this);
    ++live_workers_;
    return true;
}

LocalizerPool::~LocalizerPool() { shutdown(); }

LocalizerPool::Session &
LocalizerPool::sessionAt(int session_id)
{
    if (session_id < 0 ||
        session_id >= static_cast<int>(sessions_.size()))
        throw std::out_of_range(
            "LocalizerPool: unknown session id " +
            std::to_string(session_id) + " (have " +
            std::to_string(sessions_.size()) + ")");
    return *sessions_[session_id];
}

int
LocalizerPool::addSession(std::unique_ptr<Localizer> localizer,
                          const SessionConfig &session)
{
    assert(localizer);
    std::lock_guard<std::mutex> lk(m_);
    auto s = std::make_unique<Session>();
    s->owned = std::move(localizer);
    s->loc = s->owned.get();
    s->cfg = session;
    s->stats.qos = session.qos;
    // The pool's workers already take every core: a session's frontend
    // runs on the worker that dispatched its frame alone.
    s->loc->setFrontendLanes(1);
    if (cfg_.batch_solves)
        s->loc->setSolveHub(&hub_);
    if (cfg_.map_service && session.share_map)
        s->loc->attachMapService(cfg_.map_service);
    if (session.qos == QosClass::SafetyCritical)
        have_safety_ = true;
    sessions_.push_back(std::move(s));
    return static_cast<int>(sessions_.size()) - 1;
}

int
LocalizerPool::createSession(const LocalizerConfig &cfg,
                             const StereoRig &rig,
                             const Vocabulary *vocabulary,
                             const Map *prior_map, const Pose &start_pose,
                             double t0, const Vec3 &start_velocity,
                             const SessionConfig &session)
{
    auto loc = std::make_unique<Localizer>(cfg, rig, vocabulary, prior_map);
    loc->initialize(start_pose, t0, start_velocity);
    return addSession(std::move(loc), session);
}

void
LocalizerPool::setCutsLocked(Session &s, const std::vector<int> &cuts)
{
    s.cuts = cuts;
    // Between stages a staged session buffers as much as one
    // queue_capacity-deep queue per boundary, plus the frame each
    // stage is running; a whole-frame session runs one frame at a time.
    const size_t stages = cuts.size() + 1;
    s.max_jobs = stages + (stages - 1) * cfg_.queue_capacity;
    // Frames already in flight are unaffected: each frontend call reads
    // the lane count once.
    s.loc->setFrontendLanes(
        FramePipeline::frontendLanes(cuts, availableCpus()));
}

void
LocalizerPool::swapCutsLocked(Session &s, const std::vector<int> &cuts)
{
    setCutsLocked(s, cuts);
    ++s.cut_swaps;
    // One worker per stage: a deeper list starts the ones it lacks.
    while (live_workers_ < static_cast<int>(cuts.size()) + 1 &&
           spawnWorkerLocked())
        ;
}

bool
LocalizerPool::setCuts(int sid, const std::vector<int> &cuts)
{
    std::lock_guard<std::mutex> lk(m_);
    Session &s = sessionAt(sid);
    if (stopping_ || cuts == s.cuts)
        return false;
    swapCutsLocked(s, cuts);
    refreshSessionLocked(sid);
    return true;
}

void
LocalizerPool::dropOldestBestEffort()
{
    // The class-oldest pending frame is the front of whichever
    // best-effort session queue holds the smallest admission sequence
    // (per-session queues are FIFO in admission order).
    int victim = -1;
    long oldest = 0;
    for (int sid = 0; sid < static_cast<int>(sessions_.size()); ++sid) {
        Session &s = *sessions_[sid];
        if (s.cfg.qos != QosClass::BestEffort || s.pending.empty())
            continue;
        if (victim < 0 || s.pending.front().admit_seq < oldest) {
            victim = sid;
            oldest = s.pending.front().admit_seq;
        }
    }
    assert(victim >= 0 && "best-effort quota full but no pending frame");
    if (victim < 0)
        return;
    Session &s = *sessions_[victim];
    s.pending.pop_front();
    ++s.stats.dropped_oldest;
    ++dropped_;
    --class_queued_[static_cast<int>(QosClass::BestEffort)];
    refreshSessionLocked(victim);
    // No consumer wake-up here: the drop only ever happens mid-submit,
    // and the caller admits its own frame within this same critical
    // section, re-unbalancing the drain predicate before any waiter
    // could observe the intermediate state.
}

bool
LocalizerPool::admitLocked(std::unique_lock<std::mutex> &lk,
                           int session_id, FrameInput &&input)
{
    Session &s = sessionAt(session_id); // throws on bad id
    const QosClass q = s.cfg.qos;
    const int qi = static_cast<int>(q);

    bool admitted = false;
    if (q == QosClass::BestEffort) {
        // Never blocks: shed the class-oldest frame at quota.
        if (!stopping_) {
            if (class_queued_[qi] >= class_capacity_[qi])
                dropOldestBestEffort();
            admitted = true;
        }
    } else {
        space_cv_.wait(lk, [&] {
            return class_queued_[qi] < class_capacity_[qi] || stopping_;
        });
        admitted = !stopping_;
    }

    if (admitted) {
        PendingFrame pf;
        pf.input = std::move(input);
        pf.admit_seq = ++admit_seq_;
        pf.admit_time = Clock::now();
        if (s.stats.submitted == 0)
            s.first_admit = pf.admit_time;
        s.pending.push_back(std::move(pf));
        s.pending_high_water =
            std::max(s.pending_high_water, s.pending.size());
        ++class_queued_[qi];
        ++submitted_;
        ++s.stats.submitted;
        refreshSessionLocked(session_id);
    }
    return admitted;
}

bool
LocalizerPool::submit(int session_id, FrameInput input)
{
    std::unique_lock<std::mutex> lk(m_);
    // In-flight submitters are visible to drain()/shutdown(): a
    // producer parked on the quota inside admitLocked() holds
    // `pending_submitters_` up, so a concurrent drain waits for its
    // frame instead of letting a racing shutdown drop it silently
    // after the wake-up.
    ++pending_submitters_;
    bool admitted = false;
    try {
        admitted = admitLocked(lk, session_id, std::move(input));
    } catch (...) {
        --pending_submitters_;
        throw;
    }
    --pending_submitters_;
    // drain()/awaitResult() watch pending_submitters_, but an
    // admission just unbalanced their counters anyway — only wake them
    // when this submitter's exit could actually complete a drain.
    if (pending_submitters_ == 0 && completed_ + dropped_ == submitted_)
        result_cv_.notify_all();
    return admitted;
}

int
LocalizerPool::submitBatch(std::vector<std::pair<int, FrameInput>> frames)
{
    std::unique_lock<std::mutex> lk(m_);
    // Validate ids before admitting anything: a bad id mid-batch must
    // not leave a half-admitted batch behind the thrown exception.
    for (const auto &f : frames)
        sessionAt(f.first);
    ++pending_submitters_;
    int admitted = 0;
    for (auto &f : frames)
        if (admitLocked(lk, f.first, std::move(f.second)))
            ++admitted;
    --pending_submitters_;
    if (pending_submitters_ == 0 && completed_ + dropped_ == submitted_)
        result_cv_.notify_all();
    return admitted;
}

bool
LocalizerPool::canDispatchClass(int qi) const
{
    if (runnable_[qi].empty())
        return false;
    if (qi == static_cast<int>(QosClass::SafetyCritical) || stopping_)
        return true;
    if (!have_safety_ || cfg_.reserved_workers == 0)
        return true;
    // Reserved capacity: non-safety frames only dispatch while they
    // occupy fewer than live - reserved_workers slots (live, not the
    // configured count — elastic scaling moves the pool width).
    return active_non_safety_ < live_workers_ - cfg_.reserved_workers;
}

int
LocalizerPool::pickableClass() const
{
    for (int qi = 0; qi < kQosClasses; ++qi)
        if (canDispatchClass(qi))
            return qi;
    return -1;
}

int
LocalizerPool::pickSession()
{
    // Priority order, with a 1-in-N rotation that offers best-effort
    // the first look *over standard* so sustained standard backlog
    // cannot starve best-effort sessions entirely. Safety-critical
    // work is never preempted by the rotation — under overload the
    // pool degrades selectively, and the selectivity is the point:
    // best-effort catches up whenever the safety-critical queue is
    // momentarily empty (every paced sensor stream has such gaps).
    std::array<int, kQosClasses> order = {0, 1, 2};
    if (cfg_.best_effort_share > 0 &&
        dispatch_count_ % cfg_.best_effort_share ==
            cfg_.best_effort_share - 1)
        order = {0, 2, 1};
    for (int qi : order) {
        if (!canDispatchClass(qi))
            continue;
        ++dispatch_count_;
        const int sid = runnable_[qi].front();
        runnable_[qi].pop_front();
        sessions_[sid]->runnable = false;
        return sid;
    }
    return -1;
}

bool
LocalizerPool::canStartLocked(const Session &s) const
{
    if (s.pending.empty() || s.jobs.size() >= s.max_jobs)
        return false;
    // A frame the localizer cannot split runs processFrame() as one
    // segment once the previous frame has finished.
    const bool split =
        s.loc->initialized() && s.pending.front().input.hasImages();
    const int end = split ? segmentEnd(s.cuts, 0) : kPipelineNodes;
    return nodesReady(s.done, s.finish_started, s.started, end);
}

void
LocalizerPool::refreshSessionLocked(int sid)
{
    Session &s = *sessions_[sid];
    for (const std::unique_ptr<Job> &j : s.jobs) {
        if (j->state != JobState::Waiting)
            continue;
        const int end =
            j->whole ? kPipelineNodes : segmentEnd(j->cuts, j->next);
        if (!nodesReady(s.done, s.finish_started, j->seq, end))
            continue;
        j->state = JobState::Queued;
        ready_.push_back(j.get());
        work_cv_.notify_one();
    }
    const bool start = canStartLocked(s);
    if (start == s.runnable)
        return;
    s.runnable = start;
    auto &rq = runnable_[static_cast<int>(s.cfg.qos)];
    if (start) {
        rq.push_back(sid);
        work_cv_.notify_one();
    } else {
        rq.erase(std::find(rq.begin(), rq.end(), sid));
    }
}

void
LocalizerPool::finishJob(Session &s, Job &job)
{
    // The last segment waited for the previous frame's finish, so the
    // job is the session's oldest and results leave in order.
    assert(s.jobs.front().get() == &job);
    PoolResult r;
    r.session_id = job.sid;
    r.qos = s.cfg.qos;
    r.result = std::move(job.res);
    FrameTelemetry &t = r.result.telemetry;
    t.queue_wait_ms = job.wait_ms;
    t.pipeline_stages = static_cast<int>(job.cuts.size()) + 1;
    t.stage_span_ms = job.span_ms;
    const bool vision = job.input.hasImages();
    s.jobs.pop_front(); // destroys job

    ++s.stats.completed;
    s.stats.health = t.health;
    ++s.stats.health_frames[static_cast<int>(t.health)];
    if (t.dead_reckoned)
        ++s.stats.dead_reckoned_frames;
    s.wall_ms = msSince(s.first_admit);
    // Self-repipelining: the completed frame streams into the
    // replanner, and a proposal that cleared its hysteresis margin
    // applies to every frame not yet started. A tick is a handful of
    // closed-form fits over a small window, far below one frame's cost.
    if (s.replanner && vision && r.result.ok) {
        if (auto plan = s.replanner->observe(t, r.result.mode, s.cuts))
            swapCutsLocked(s, plan->cuts);
    }
    results_.push_back(std::move(r));
    ++completed_;
    result_cv_.notify_all();
}

int
LocalizerPool::gangJoinable() const
{
    // Frames that could still widen a forming wave: splittable heads
    // of runnable sessions in a currently-dispatchable class. Slot-
    // blocked classes are excluded — the wave must not wait on a frame
    // the QoS gate will not let a worker pick up.
    int n = 0;
    for (int qi = 0; qi < kQosClasses; ++qi) {
        if (!canDispatchClass(qi))
            continue;
        for (int sid : runnable_[qi]) {
            const Session &s = *sessions_[sid];
            if (!s.pending.empty() && s.loc->initialized() &&
                s.pending.front().input.hasImages())
                ++n;
        }
    }
    return n;
}

void
LocalizerPool::maybeReleaseGang(bool force)
{
    // The window closes when no frame is mid-frontend (every in-flight
    // frame is parked at the window, so this is the largest gang the
    // current load can form) and the previous wave's backends are done
    // (waves serialize, keeping each rendezvous at full width; the
    // *next* wave's frontends still overlap this wave's backends).
    // Release at most `workers` frames: more could not execute their
    // backends concurrently anyway, and announced entries must be
    // claimable immediately — see expectBackendEntries().
    if (gang_outstanding_ > 0 || gang_staged_.empty())
        return;
    if (!force &&
        (gang_frontends_ > 0 ||
         (static_cast<int>(gang_staged_.size()) < live_workers_ &&
          gangJoinable() > 0))) {
        // The wave is blocked on in-flight frontends, or on runnable
        // frames a freed worker has not picked up yet (the window
        // would otherwise race the workers' dispatch loop and release
        // narrow waves). Arm the wave timer so a lagging (e.g.
        // best-effort) frontend cannot hold parked backends hostage:
        // an idle worker forces a narrower release at the deadline
        // (waitForWork()).
        if (cfg_.gang_timeout_ms > 0.0 && !gang_timer_armed_) {
            gang_timer_armed_ = true;
            gang_wait_since_ = Clock::now();
            work_cv_.notify_all(); // sleepers switch to a timed wait
        }
        return;
    }
    gang_timer_armed_ = false;
    const int release = std::min(static_cast<int>(gang_staged_.size()),
                                 live_workers_);
    // Pre-announce per priority class: the hub's safety-led rendezvous
    // must know how many *safety-critical* stages are inbound, or a
    // safety backend could batch early at partial width (or wait on a
    // best-effort wave member that a reserved slot gate delays).
    int safety = 0;
    for (int i = 0; i < release; ++i)
        if (sessions_[gang_staged_[i]->sid]->cfg.qos ==
            QosClass::SafetyCritical)
            ++safety;
    if (release - safety > 0)
        hub_.expectBackendEntries(release - safety, /*safety=*/false);
    if (safety > 0)
        hub_.expectBackendEntries(safety, /*safety=*/true);
    gang_outstanding_ = release;
    // Released frames are continuations, which workers take before any
    // new frame: each was pre-announced to the hub, and the rendezvous
    // holds every parked request until all announced stages are in.
    // (Reserved worker slots gate new frames, not announced backends —
    // an announced entry that never arrives would stall the hub.)
    for (int i = 0; i < release; ++i) {
        Job *j = gang_staged_.front();
        gang_staged_.pop_front();
        j->park = false;
        j->released = true;
        j->state = JobState::Queued;
        ready_.push_back(j);
    }
    work_cv_.notify_all();
}

bool
LocalizerPool::waitForWork(std::unique_lock<std::mutex> &lk)
{
    auto ready = [&] {
        return !ready_.empty() || stopping_ || pickableClass() >= 0;
    };
    const auto timeout = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(cfg_.gang_timeout_ms));
    const auto idle_limit = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(cfg_.shrink_idle_ms));
    const auto idle_since = Clock::now();
    // An expired wave must be forced even by a worker that never goes
    // idle: on a busy pool the workers pass through here between
    // frames while the timed wait below is never entered, and a
    // released backend outranks any fresh dispatch — so this is
    // exactly the moment a freed worker should pick up the overdue
    // wave instead of new work.
    if (gang_timer_armed_ && cfg_.gang_timeout_ms > 0.0 &&
        Clock::now() >= gang_wait_since_ + timeout)
        maybeReleaseGang(/*force=*/true);
    while (!ready()) {
        const bool gang_deadline =
            gang_timer_armed_ && cfg_.gang_timeout_ms > 0.0;
        // Elastic shrink: a worker with nothing to do for
        // shrink_idle_ms retires — unless the pool is already at its
        // floor. The floor keeps the safety reservation *and* one
        // non-reserved slot alive.
        const bool shrinkable =
            cfg_.elastic_workers && live_workers_ > min_workers_;
        if (gang_deadline || shrinkable) {
            auto deadline = idle_since + idle_limit;
            if (gang_deadline) {
                const auto gd = gang_wait_since_ + timeout;
                deadline = shrinkable ? std::min(deadline, gd) : gd;
            }
            if (!work_cv_.wait_until(lk, deadline, ready)) {
                if (gang_timer_armed_ && cfg_.gang_timeout_ms > 0.0 &&
                    Clock::now() >= gang_wait_since_ + timeout)
                    // Wave timed out waiting on lagging frontends:
                    // force the narrower pre-announced release. The
                    // re-check against the *current* gang_wait_since_
                    // matters: the timer may have been re-armed for a
                    // newer wave while this worker slept on an older
                    // wave's deadline, and that newer wave deserves
                    // its full window.
                    maybeReleaseGang(/*force=*/true);
                if (!ready() && cfg_.elastic_workers &&
                    live_workers_ > min_workers_ &&
                    Clock::now() >= idle_since + idle_limit) {
                    --live_workers_;
                    ++workers_retired_;
                    return false;
                }
            }
        } else {
            work_cv_.wait(lk, [&] {
                return ready() || gang_timer_armed_ ||
                       (cfg_.elastic_workers &&
                        live_workers_ > min_workers_);
            });
        }
    }
    return true;
}

void
LocalizerPool::runNodes(Session &s, Job &job, int first, int stop)
{
    if (job.whole) {
        job.res = s.loc->processFrame(job.input);
        return;
    }
    FrameInput &in = job.input;
    Localizer &loc = *s.loc;
    auto run = [&](int node) {
        switch (static_cast<PipeNode>(node)) {
          case PipeNode::Fe:
            loc.runFrontendFe(in.left, in.right, job.fectx, job.fe);
            break;
          case PipeNode::Sm:
            loc.runFrontendSm(in.left, in.right, job.fectx, job.fe);
            break;
          case PipeNode::Tm:
            loc.runFrontendTm(in.left, job.fectx, job.fe);
            break;
          case PipeNode::Solve:
            loc.runBackendSolve(in, job.fe, job.bectx);
            break;
          case PipeNode::Finish:
            job.res = loc.runBackendFinish(in, job.fe, job.bectx);
            break;
        }
    };
    int node = first;
    for (; node < std::min(stop, kSolve); ++node)
        run(node);
    if (node == stop)
        return;
    // The stage guard scopes exactly the backend: a session chewing on
    // its frontend must not stall other sessions' kernel rendezvous.
    // Only whole-frame sessions share a hub, so a guarded range always
    // holds both solve and finish.
    SolveHub::StageGuard guard(cfg_.batch_solves ? &hub_ : nullptr,
                               s.cfg.qos == QosClass::SafetyCritical);
    for (; node < stop; ++node)
        run(node);
}

void
LocalizerPool::runJob(std::unique_lock<std::mutex> &lk, Job &job)
{
    const int sid = job.sid;
    Session &s = *sessions_[sid];
    const bool non_safety = s.cfg.qos != QosClass::SafetyCritical;
    for (;;) {
        const int first = job.next;
        const int end =
            job.whole ? kPipelineNodes : segmentEnd(job.cuts, first);
        const int stop = job.park ? kSolve : end;
        if (stop == kPipelineNodes)
            s.finish_started = job.seq + 1;
        job.state = JobState::Running;
        refreshSessionLocked(sid);
        if (non_safety)
            ++active_non_safety_;
        if (job.park)
            ++gang_frontends_;

        lk.unlock();
        double span_ms = 0.0;
        {
            StageTimer timer(span_ms);
            runNodes(s, job, first, stop);
        }
        lk.lock();

        if (non_safety)
            --active_non_safety_;
        const int stage = segmentIndex(job.cuts, first);
        job.span_ms[stage] += span_ms;
        s.stage_busy_ms[stage] += span_ms;
        for (int node = first; node < stop; ++node)
            s.done[node] = job.seq + 1;
        job.next = stop;

        if (stop == kPipelineNodes) {
            if (job.released)
                --gang_outstanding_;
            finishJob(s, job);
        } else if (job.park) {
            // Frontend done; the backend waits for its gang wave.
            --gang_frontends_;
            job.state = JobState::Parked;
            gang_staged_.push_back(&job);
        } else if (nodesReady(s.done, s.finish_started, job.seq,
                              segmentEnd(job.cuts, stop))) {
            continue; // the next segment runs on this worker at once
        } else {
            job.state = JobState::Waiting;
        }
        refreshSessionLocked(sid);
        if (cfg_.gang_window)
            maybeReleaseGang(/*force=*/false);
        return;
    }
}

void
LocalizerPool::dispatchSession(std::unique_lock<std::mutex> &lk, int sid)
{
    Session &s = *sessions_[sid];
    const QosClass q = s.cfg.qos;
    const int qi = static_cast<int>(q);
    PendingFrame pf = std::move(s.pending.front());
    s.pending.pop_front();
    --class_queued_[qi];
    space_cv_.notify_all();

    const double wait_ms = msSince(pf.admit_time);
    if (q == QosClass::BestEffort && s.cfg.frame_deadline_ms > 0.0 &&
        wait_ms > s.cfg.frame_deadline_ms) {
        // Frame-deadline drop: a best-effort frame that aged past its
        // deadline in the queue is stale for a live robot — shed it
        // instead of spending a worker on it.
        ++s.stats.dropped_deadline;
        ++dropped_;
        refreshSessionLocked(sid);
        result_cv_.notify_all();
        // A frame the window may have been waiting on just evaporated;
        // re-evaluate so a parked wave is not stranded.
        if (cfg_.gang_window)
            maybeReleaseGang(/*force=*/false);
        return;
    }

    s.stats.queue_wait_total_ms += wait_ms;
    s.stats.queue_wait_max_ms =
        std::max(s.stats.queue_wait_max_ms, wait_ms);
    // Elastic growth, driven by the queue-wait telemetry itself: a
    // frame that aged in its queue means every worker was busy while
    // runnable work waited — more parallelism would have served it
    // sooner.
    if (cfg_.elastic_workers && live_workers_ < max_workers_ &&
        wait_ms > cfg_.grow_wait_ms && spawnWorkerLocked())
        ++workers_grown_;

    // The frame takes the session's cut list as it starts. One the
    // localizer cannot split (not initialized, or no images) runs
    // processFrame(), as does a whole frame outside a solve hub.
    auto job = std::make_unique<Job>();
    job->sid = sid;
    job->seq = s.started++;
    job->input = std::move(pf.input);
    job->wait_ms = wait_ms;
    const bool split = s.loc->initialized() && job->input.hasImages();
    if (split)
        job->cuts = s.cuts;
    job->whole = !split || (job->cuts.empty() && !cfg_.batch_solves);
    job->park = split && cfg_.gang_window;
    Job &j = *job;
    s.jobs.push_back(std::move(job));
    runJob(lk, j);
}

void
LocalizerPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        if (!waitForWork(lk))
            return; // retired by elastic shrink

        // Continuations of started frames run before any new frame
        // (released gang waves among them).
        if (!ready_.empty()) {
            Job *j = ready_.front();
            ready_.pop_front();
            runJob(lk, *j);
            continue;
        }

        const int sid = pickSession();
        if (sid < 0) {
            if (stopping_)
                return;
            continue;
        }
        dispatchSession(lk, sid);
    }
}

bool
LocalizerPool::poll(PoolResult &out)
{
    std::lock_guard<std::mutex> lk(m_);
    if (results_.empty())
        return false;
    out = std::move(results_.front());
    results_.pop_front();
    return true;
}

bool
LocalizerPool::awaitResult(PoolResult &out)
{
    std::unique_lock<std::mutex> lk(m_);
    // Shutdown-aware: `completed_ + dropped_ == submitted_` holds
    // transiently whenever the pool is momentarily idle between two
    // producer submissions, so it alone must never end a consumer
    // loop — only a draining shutdown may.
    result_cv_.wait(lk, [&] {
        return !results_.empty() ||
               (stopping_ && pending_submitters_ == 0 &&
                completed_ + dropped_ == submitted_);
    });
    if (results_.empty())
        return false;
    out = std::move(results_.front());
    results_.pop_front();
    return true;
}

void
LocalizerPool::drain()
{
    std::unique_lock<std::mutex> lk(m_);
    result_cv_.wait(lk, [&] {
        return pending_submitters_ == 0 &&
               completed_ + dropped_ == submitted_;
    });
}

void
LocalizerPool::shutdown()
{
    // Serialized: a second concurrent caller (e.g. the destructor
    // racing an explicit shutdown) blocks here until the first one has
    // joined the workers, instead of returning while they still run.
    std::lock_guard<std::mutex> lifecycle(lifecycle_m_);
    {
        std::lock_guard<std::mutex> lk(m_);
        if (shutdown_done_)
            return;
    }
    drain();
    {
        std::lock_guard<std::mutex> lk(m_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    space_cv_.notify_all();
    result_cv_.notify_all();
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
    std::lock_guard<std::mutex> lk(m_);
    shutdown_done_ = true;
}

int
LocalizerPool::sessionCount() const
{
    std::lock_guard<std::mutex> lk(m_);
    return static_cast<int>(sessions_.size());
}

SolveHubStats
LocalizerPool::solveStats() const
{
    return hub_.stats();
}

PoolStats
LocalizerPool::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    PoolStats out;
    out.sessions.reserve(sessions_.size());
    for (const auto &s : sessions_) {
        SessionPoolStats ss = s->stats;
        if (s->loc->mapService()) {
            // Atomic counters published by the session's own worker;
            // safe to read while the session is in flight.
            ss.map_contributions = s->loc->mapContributions();
            ss.map_epoch = s->loc->mapEpoch();
            ss.epoch_acquire_max_ms = s->loc->maxEpochAcquireMs();
        }
        out.sessions.push_back(std::move(ss));
    }
    if (cfg_.map_service) {
        out.map_service_attached = true;
        out.map_service = cfg_.map_service->stats();
    }
    out.submitted = submitted_;
    out.completed = completed_;
    out.dropped = dropped_;
    out.workers = live_workers_;
    out.workers_grown = workers_grown_;
    out.workers_retired = workers_retired_;
    return out;
}

Localizer &
LocalizerPool::session(int session_id)
{
    std::lock_guard<std::mutex> lk(m_);
    return *sessionAt(session_id).loc;
}

} // namespace edx
