#include "runtime/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "math/cpu_features.hpp"
#include "runtime/replan.hpp"
#include "runtime/telemetry.hpp"

namespace edx {

const char *
pipeNodeName(int node)
{
    switch (static_cast<PipeNode>(node)) {
      case PipeNode::Fe:
        return "FE";
      case PipeNode::Sm:
        return "SM";
      case PipeNode::Tm:
        return "TM";
      case PipeNode::Solve:
        return "SOLVE";
      case PipeNode::Finish:
        return "FIN";
    }
    return "?";
}

std::string
describeCuts(const std::vector<int> &cuts)
{
    std::string out;
    size_t next_cut = 0;
    for (int node = 0; node < kPipelineNodes; ++node) {
        if (node > 0) {
            if (next_cut < cuts.size() && cuts[next_cut] == node - 1) {
                out += " | ";
                ++next_cut;
            } else {
                out += "+";
            }
        }
        out += pipeNodeName(node);
    }
    return out;
}

std::vector<int>
FramePipeline::resolveTopology(int stages, const std::vector<int> &cuts)
{
    if (stages < 0)
        throw std::invalid_argument(
            "PipelineConfig: stages must be >= 1 (got " +
            std::to_string(stages) + ")");

    if (cuts.empty()) {
        if (stages == 1)
            return {};
        if (stages == 0 || stages == 2)
            return {static_cast<int>(PipeNode::Tm)}; // frontend|backend
        throw std::invalid_argument(
            "PipelineConfig: stages > 2 needs an explicit cut "
            "list (use the placement planner or set cuts)");
    }
    int prev = -1;
    for (int c : cuts) {
        if (c < 0 || c >= kPipelineNodes - 1)
            throw std::invalid_argument(
                "PipelineConfig: cut " + std::to_string(c) +
                " outside the valid boundaries [0, " +
                std::to_string(kPipelineNodes - 2) + "]");
        if (c <= prev)
            throw std::invalid_argument(
                "PipelineConfig: cuts must be strictly increasing");
        prev = c;
    }
    const int implied = static_cast<int>(cuts.size()) + 1;
    // stages == 0 means "derive from the cuts"; anything explicit
    // must agree with them exactly.
    if (stages != 0 && stages != implied)
        throw std::invalid_argument(
            "PipelineConfig: stages (" + std::to_string(stages) +
            ") inconsistent with cuts (imply " +
            std::to_string(implied) + ")");
    return cuts;
}

std::vector<std::pair<int, int>>
FramePipeline::segmentsFor(const std::vector<int> &cuts)
{
    std::vector<std::pair<int, int>> segments;
    int first = 0;
    for (int c : cuts) {
        segments.push_back({first, c + 1});
        first = c + 1;
    }
    segments.push_back({first, kPipelineNodes});
    return segments;
}

int
FramePipeline::frontendLanes(const std::vector<int> &cuts, int cpus)
{
    const int stages = static_cast<int>(cuts.size()) + 1;
    // One CPU per stage thread and one for the producer and consumer
    // around the pipeline; a single stage runs on the producer itself.
    const int busy = stages == 1 ? 1 : stages + 1;
    const int spare = std::max(0, cpus - busy);
    // FE is node 0, so it always runs in the first stage; a cut before
    // TM puts TM in another stage thread, running beside FE.
    const bool fe_beside_tm =
        !cuts.empty() && cuts.front() < static_cast<int>(PipeNode::Tm);
    return (fe_beside_tm ? spare / 2 : spare) + 1;
}

FramePipeline::FramePipeline(Localizer &localizer,
                             const PipelineConfig &cfg)
    : loc_(localizer), cfg_(cfg)
{
    std::vector<int> cuts = resolveTopology(cfg_.stages, cfg_.cuts);
    cfg_.stages = static_cast<int>(cuts.size()) + 1;
    stats_.stages = cfg_.stages;
    epochs_.push_back(spawnEpoch(std::move(cuts), 0));
    current_ = epochs_.back().get();
}

std::unique_ptr<FramePipeline::Epoch>
FramePipeline::spawnEpoch(std::vector<int> cuts, int index)
{
    auto e = std::make_unique<Epoch>(cfg_.queue_capacity);
    e->index = index;
    e->stages = static_cast<int>(cuts.size()) + 1;
    e->cuts = std::move(cuts);
    e->segments = segmentsFor(e->cuts);
    // Frames still in flight on a retiring epoch are unaffected: each
    // frontend call reads the count once.
    loc_.setFrontendLanes(frontendLanes(e->cuts, availableCpus()));
    if (e->stages > 1) {
        for (int i = 0; i + 1 < e->stages; ++i)
            e->stage_qs.push_back(std::make_unique<BoundedQueue<StageJob>>(
                cfg_.queue_capacity));
        e->live_workers.store(e->stages);
        e->workers.reserve(e->stages);
        for (int s = 0; s < e->stages; ++s)
            e->workers.emplace_back(&FramePipeline::stageWorker, this,
                                    e.get(), s);
    }
    return e;
}

FramePipeline::~FramePipeline() { close(); }

std::vector<int>
FramePipeline::cuts() const
{
    std::lock_guard<std::mutex> lk(epoch_m_);
    return current_->cuts;
}

std::vector<std::pair<int, int>>
FramePipeline::segments() const
{
    std::lock_guard<std::mutex> lk(epoch_m_);
    return current_->segments;
}

bool
FramePipeline::installEpoch(std::vector<int> cuts)
{
    // Caller holds submit_m_: no producer is between its sequence
    // allocation and its queue push, so every frame admitted before
    // this point sits in (or has passed) the retiring epoch's queues
    // and every later one lands in the new epoch — sequence order and
    // queue order stay aligned, which the node gates depend on.
    Epoch *retired = nullptr;
    int stages = static_cast<int>(cuts.size()) + 1;
    {
        std::lock_guard<std::mutex> lk(epoch_m_);
        if (cuts == current_->cuts)
            return false;
        epochs_.push_back(spawnEpoch(std::move(cuts), ++epoch_counter_));
        retired = current_;
        current_ = epochs_.back().get();

        // Retire: the old epoch drains its admitted frames and its
        // workers exit; a producer parked on the full queue re-routes
        // to the new epoch (see submit()).
        retired->in_q.close();

        // Reap epochs whose workers have all exited (the atomic
        // decrement is each worker's final act, so join() returns
        // promptly). Keeps a long-running server from accumulating
        // exited threads across many swaps.
        for (auto it = epochs_.begin(); it != epochs_.end();) {
            if (it->get() == current_ ||
                (*it)->live_workers.load() != 0) {
                ++it;
                continue;
            }
            for (std::thread &w : (*it)->workers)
                if (w.joinable())
                    w.join();
            it = epochs_.erase(it);
        }
    }
    {
        std::lock_guard<std::mutex> lk(stats_m_);
        ++stats_.cut_swaps;
        stats_.stages = stages;
    }
    return true;
}

bool
FramePipeline::swapCuts(const std::vector<int> &cuts, int stages)
{
    std::vector<int> resolved = resolveTopology(stages, cuts); // throws
    std::lock_guard<std::mutex> sl(submit_m_);
    {
        std::lock_guard<std::mutex> lk(result_m_);
        if (closed_)
            return false;
    }
    return installEpoch(std::move(resolved));
}

void
FramePipeline::trySwapPending()
{
    // Called from a finish worker. A producer parked in submit() on a
    // full queue holds submit_m_ until the stages drain it — blocking
    // here would deadlock the drain, so the swap defers to the next
    // completed frame instead.
    std::unique_lock<std::mutex> sl(submit_m_, std::try_to_lock);
    if (!sl.owns_lock())
        return;
    std::vector<int> want;
    {
        std::lock_guard<std::mutex> lk(epoch_m_);
        if (!pending_swap_)
            return;
        want = std::move(*pending_swap_);
        pending_swap_.reset();
    }
    {
        std::lock_guard<std::mutex> lk(result_m_);
        if (closed_)
            return;
    }
    installEpoch(std::move(want));
}

bool
FramePipeline::submit(FrameInput input)
{
    std::unique_lock<std::mutex> sl(submit_m_);
    long seq;
    {
        std::lock_guard<std::mutex> lk(result_m_);
        if (closed_)
            return false;
        seq = submitted_++;
    }
    // A deferred replanner proposal applies here, before this frame
    // routes: the producer already holds submit_m_, so even when the
    // pipeline is saturated (and the finish worker's try-lock in
    // trySwapPending() never wins) a proposal still lands on the very
    // next submission.
    {
        std::optional<std::vector<int>> want;
        {
            std::lock_guard<std::mutex> lk(epoch_m_);
            want.swap(pending_swap_);
        }
        if (want)
            installEpoch(std::move(*want));
    }
    {
        std::lock_guard<std::mutex> lk(stats_m_);
        if (!first_submit_done_) {
            first_submit_done_ = true;
            first_submit_ = std::chrono::steady_clock::now();
        }
    }

    StageJob job;
    job.seq = seq;
    job.input = std::move(input);
    for (;;) {
        Epoch *e;
        {
            std::lock_guard<std::mutex> lk(epoch_m_);
            e = current_;
        }
        if (e->stages == 1) {
            // Sequential topology: execute inline on the caller. The
            // node gates still order it against in-flight frames of a
            // retiring staged epoch.
            sl.unlock();
            runInline(*e, std::move(job));
            return true;
        }
        if (e->in_q.pushOrKeep(job))
            return true;
        // The push failed: either a swap retired this epoch while we
        // were parked on its full queue (re-route to the new current
        // epoch) or close() is tearing the pipeline down.
        std::lock_guard<std::mutex> lk(result_m_);
        if (closed_) {
            voidSeq(seq);
            return false;
        }
    }
}

void
FramePipeline::waitNodeTurn(int node, long seq)
{
    std::unique_lock<std::mutex> lk(gate_m_);
    gate_cv_.wait(lk, [&] { return node_turn_[node] == seq; });
}

void
FramePipeline::advanceNodeTurn(int node)
{
    {
        std::lock_guard<std::mutex> lk(gate_m_);
        ++node_turn_[node];
        while (gate_holes_.count(node_turn_[node]))
            ++node_turn_[node];
    }
    gate_cv_.notify_all();
}

void
FramePipeline::voidSeq(long seq)
{
    // Caller holds result_m_. The seq was counted by submitted_ but
    // its frame never entered any epoch: unblock the node gates and
    // the in-order emitter past it.
    ++voided_;
    result_holes_.insert(seq);
    drainResultsLocked();
    result_cv_.notify_all();
    {
        std::lock_guard<std::mutex> lk(gate_m_);
        gate_holes_.insert(seq);
        for (int node = 0; node < kPipelineNodes; ++node)
            while (gate_holes_.count(node_turn_[node]))
                ++node_turn_[node];
    }
    gate_cv_.notify_all();
}

void
FramePipeline::runNode(int node, StageJob &job)
{
    switch (static_cast<PipeNode>(node)) {
      case PipeNode::Fe:
        loc_.runFrontendFe(job.input.left, job.input.right, job.fectx,
                           job.fe);
        break;
      case PipeNode::Sm:
        loc_.runFrontendSm(job.input.left, job.input.right, job.fectx,
                           job.fe);
        break;
      case PipeNode::Tm:
        loc_.runFrontendTm(job.input.left, job.fectx, job.fe);
        // Per-stage scheduling (Sec. VI-B): the backend kernel's
        // offload decision is made here, at the TM -> solve boundary,
        // from the sizes the frontend just produced — before the
        // backend sub-stages run.
        if (cfg_.scheduler) {
            BackendKernel k = kernelForMode(loc_.mode());
            job.offload = cfg_.scheduler->decide(
                stageSizeDriver(k, job.fe.workload), cfg_.accel_ms);
            job.has_offload = true;
        }
        break;
      case PipeNode::Solve:
        loc_.runBackendSolve(job.input, job.fe, job.bectx);
        break;
      case PipeNode::Finish:
        job.res = loc_.runBackendFinish(job.input, job.fe, job.bectx);
        break;
    }
}

void
FramePipeline::executeSegment(Epoch &e, int stage, StageJob &job)
{
    const auto [first, last] = e.segments[stage];
    double span_ms = 0.0;
    for (int node = first; node < last; ++node) {
        // The per-node sequence gate: frames execute each sub-stage
        // strictly in submission order, across epochs — during a cut
        // swap the new epoch's first frame waits here until the old
        // epoch's tail has passed this node. Within one epoch the
        // single-worker FIFO chain satisfies the gate trivially; the
        // wait is untimed so gate stalls never pollute the busy spans
        // the planner profiles. Invalid frames skip the work but still
        // take and release their turn, or the gates would jam.
        waitNodeTurn(node, job.seq);
        if (job.valid) {
            StageTimer timer(span_ms);
            runNode(node, job);
        }
        advanceNodeTurn(node);
    }
    job.stage_span_ms[stage] = span_ms;
    {
        std::lock_guard<std::mutex> lk(stats_m_);
        stats_.stage_busy_ms[stage] += span_ms;
        if (stage == 0)
            stats_.input_high_water =
                std::max(stats_.input_high_water, e.in_q.highWater());
    }
}

void
FramePipeline::finalizeJob(Epoch &e, StageJob &job)
{
    LocalizationResult res;
    if (job.valid) {
        res = std::move(job.res);
    } else {
        res.frame_index = job.input.frame_index;
        res.mode = loc_.mode();
        res.ok = false;
    }
    res.telemetry.pipeline_stages = e.stages;
    res.telemetry.stage_span_ms = job.stage_span_ms;
    if (job.has_offload) {
        res.telemetry.backend_offload = job.offload;
        res.telemetry.has_offload_decision = true;
    }

    // Online refit: feed the measured mode-kernel latency back into the
    // scheduler's windowed model (the ROADMAP's "scheduler online
    // refit" — the telemetry stream the runtime already records). The
    // kernel is the *result's* mode: after a mid-run mode switch the
    // finish of the last old-mode frame may overlap the first new-mode
    // solve, and its measurement belongs to the old mode's model.
    if (cfg_.refit && job.valid && res.ok) {
        BackendKernel k = kernelForMode(res.mode);
        double measured_ms = 0.0;
        switch (k) {
          case BackendKernel::Projection:
            measured_ms = res.telemetry.tracking.projection_ms;
            break;
          case BackendKernel::KalmanGain:
            measured_ms = res.telemetry.msckf.kalman_gain_ms;
            break;
          case BackendKernel::Marginalization:
            measured_ms = res.telemetry.mapping.marginalization_ms;
            break;
        }
        // Frames where the kernel never executed (no keyframe, window
        // not full, no finished tracks) measure 0 ms against a nonzero
        // driver; feeding them would collapse the windowed fit toward
        // zero. Skip them, like the offline fit skips size<=0 samples.
        if (measured_ms > 0.0)
            cfg_.refit->observe(
                stageSizeDriver(k, res.telemetry.frontend_workload),
                measured_ms);
    }

    // Self-repipelining: stream the completed frame into the replanner
    // and stage any proposal that cleared its hysteresis margin.
    if (cfg_.replanner && job.valid && res.ok) {
        std::vector<int> cur;
        {
            std::lock_guard<std::mutex> lk(epoch_m_);
            cur = current_->cuts;
        }
        if (auto plan = cfg_.replanner->observe(res.telemetry, res.mode,
                                                cur)) {
            std::lock_guard<std::mutex> lk(epoch_m_);
            pending_swap_ = std::move(plan->cuts);
        }
    }

    const long seq = job.seq;
    pushResult(seq, std::move(res));
    if (cfg_.replanner)
        trySwapPending();
}

void
FramePipeline::stageWorker(Epoch *e, int stage)
{
    if (stage == 0) {
        // Workers exist only for stages >= 2 (stages == 1 runs inline
        // through runInline), so there is always a next queue.
        while (auto job = e->in_q.pop()) {
            job->valid = loc_.initialized() && job->input.hasImages();
            executeSegment(*e, 0, *job);
            if (!e->stage_qs[0]->push(std::move(*job)))
                break;
        }
        e->stage_qs[0]->close();
        e->live_workers.fetch_sub(1);
        return;
    }

    BoundedQueue<StageJob> &src = *e->stage_qs[stage - 1];
    while (auto job = src.pop()) {
        executeSegment(*e, stage, *job);
        if (stage + 1 < e->stages) {
            if (!e->stage_qs[stage]->push(std::move(*job)))
                break;
        } else {
            finalizeJob(*e, *job);
        }
    }
    if (stage + 1 < e->stages)
        e->stage_qs[stage]->close();
    e->live_workers.fetch_sub(1);
}

void
FramePipeline::runInline(Epoch &e, StageJob job)
{
    job.valid = loc_.initialized() && job.input.hasImages();
    executeSegment(e, 0, job);
    finalizeJob(e, job);
}

void
FramePipeline::drainResultsLocked()
{
    // Emit the in-order prefix: during a swap the new epoch's first
    // frames can finalize while the old epoch's tail is still in
    // flight (the finish gate orders the *execution*, not the push),
    // so finalized results park in reorder_ until every earlier seq
    // has surfaced.
    for (;;) {
        if (result_holes_.count(next_emit_)) {
            result_holes_.erase(next_emit_);
            ++next_emit_;
            continue;
        }
        auto it = reorder_.find(next_emit_);
        if (it == reorder_.end())
            break;
        results_.push_back(std::move(it->second));
        reorder_.erase(it);
        ++completed_;
        ++next_emit_;
        {
            std::lock_guard<std::mutex> slk(stats_m_);
            ++stats_.frames;
            if (first_submit_done_)
                stats_.wall_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() -
                        first_submit_)
                        .count();
        }
    }
}

void
FramePipeline::pushResult(long seq, LocalizationResult res)
{
    std::lock_guard<std::mutex> lk(result_m_);
    reorder_.emplace(seq, std::move(res));
    drainResultsLocked();
    result_cv_.notify_all();
}

bool
FramePipeline::poll(LocalizationResult &out)
{
    std::lock_guard<std::mutex> lk(result_m_);
    if (results_.empty())
        return false;
    out = std::move(results_.front());
    results_.pop_front();
    return true;
}

bool
FramePipeline::awaitResult(LocalizationResult &out)
{
    std::unique_lock<std::mutex> lk(result_m_);
    // Close-aware: `completed_ == submitted_` holds transiently
    // whenever the pipeline is momentarily idle between two producer
    // submissions, so it alone must never end a consumer loop — only
    // a close() that has drained the in-flight frames may.
    result_cv_.wait(lk, [&] {
        return !results_.empty() ||
               (closed_ && completed_ + voided_ == submitted_);
    });
    if (results_.empty())
        return false;
    out = std::move(results_.front());
    results_.pop_front();
    return true;
}

void
FramePipeline::flush()
{
    std::unique_lock<std::mutex> lk(result_m_);
    result_cv_.wait(lk,
                    [&] { return completed_ + voided_ == submitted_; });
}

void
FramePipeline::close()
{
    // Serialized end-to-end: a late caller (e.g. the destructor racing
    // an explicit close()) blocks here until the first one has joined
    // the workers.
    std::lock_guard<std::mutex> lifecycle(lifecycle_m_);
    {
        std::lock_guard<std::mutex> lk(result_m_);
        if (close_done_)
            return;
        // submit() fails from this point on; frames already admitted
        // (submitted_ incremented) still drain through flush() below.
        closed_ = true;
        result_cv_.notify_all(); // consumers re-check the close gate
    }
    flush();
    std::vector<Epoch *> epochs;
    {
        // submit_m_ excludes a racing swapCuts(): after this block no
        // further epoch can be installed (installers re-check closed_
        // under submit_m_), so the snapshot is complete.
        std::lock_guard<std::mutex> sl(submit_m_);
        std::lock_guard<std::mutex> lk(epoch_m_);
        for (auto &e : epochs_) {
            e->in_q.close();
            epochs.push_back(e.get());
        }
    }
    for (Epoch *e : epochs)
        for (std::thread &w : e->workers)
            if (w.joinable())
                w.join();
    std::lock_guard<std::mutex> lk(result_m_);
    close_done_ = true;
}

PipelineStats
FramePipeline::stats() const
{
    std::lock_guard<std::mutex> lk(stats_m_);
    return stats_;
}

} // namespace edx
