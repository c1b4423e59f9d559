/**
 * @file
 * Online re-planning for the self-repipelining runtime (the ROADMAP's
 * "close the plan -> measure -> re-plan loop" item).
 *
 * The placement planner (runtime/placement.hpp) plans once from an
 * offline profile; a session whose workload drifts mid-run — VIO
 * transitioning to dense-keyframing SLAM, image resolution changing,
 * the map growing past the fitted regime — keeps a stale cut list
 * until restart. The SessionReplanner closes the loop: completed-frame
 * telemetry streams in, a windowed per-node profile is refit on every
 * tick (the same latency-vs-driver fits the offload scheduler's RLS
 * refit uses), and a new cut list is proposed only when its predicted
 * minimax stage time beats the *current* topology's predicted period
 * by a hysteresis margin — small oscillating gains never churn the
 * pipeline through swap after swap.
 *
 * The replanner is passive and thread-safe: observe() is called from
 * whatever thread completes frames (the pool worker that finishes a
 * FramePipeline frame) and returns the proposal; applying it (a cut
 * swap in FramePipeline) is the caller's business.
 */
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "runtime/placement.hpp"

namespace edx {

/** Re-plan cadence and hysteresis policy. */
struct ReplanConfig
{
    /** Telemetry frames the rolling profile window holds. */
    int window = 48;

    /** Completed frames between re-plan evaluations. */
    int tick_frames = 24;

    /**
     * Minimum window frames of the *current* backend mode before a
     * plan is computed — right after a mode transition the window is
     * dominated by the old mode's latencies, which say nothing about
     * the new workload.
     */
    int min_mode_frames = 8;

    /**
     * A candidate plan is proposed only when its predicted period is
     * at most this fraction of the current topology's predicted period
     * (0.9: the swap must buy >= 10%). Both periods are evaluated
     * under the *same* freshly fitted profile, so the comparison never
     * mixes stale and fresh models.
     */
    double hysteresis = 0.9;

    /** ... and improves the period by at least this many ms. */
    double min_gain_ms = 0.2;

    /** Stage-count bound handed to PlacementPlanner::plan(). */
    int max_stages = kPipelineNodes;
};

/** Adaptation counters (bench and test assertions read them). */
struct ReplanStats
{
    long observed = 0;  //!< telemetry frames ingested
    long ticks = 0;     //!< re-plan evaluations run
    long proposals = 0; //!< improving plans returned to the caller
    long held = 0;      //!< ticks where hysteresis kept the current plan
};

/** Windowed telemetry -> hysteresis-gated cut-list proposals. */
class SessionReplanner
{
  public:
    explicit SessionReplanner(const ReplanConfig &cfg = {});

    /**
     * Ingests one completed frame's telemetry. Every
     * ReplanConfig::tick_frames frames the rolling window is refit and
     * the planner re-run; returns the winning plan when it clears the
     * hysteresis margin over @p current_cuts, nullopt otherwise.
     */
    std::optional<StagePlan> observe(const FrameTelemetry &telemetry,
                                     BackendMode mode,
                                     const std::vector<int> &current_cuts);

    ReplanStats stats() const;

    /** Drops the window and counters (new session, new workload). */
    void reset();

    const ReplanConfig &config() const { return cfg_; }

  private:
    struct Sample
    {
        FrameTelemetry telemetry;
        BackendMode mode;
    };

    mutable std::mutex m_;
    ReplanConfig cfg_;
    std::deque<Sample> window_;
    int since_tick_ = 0;
    ReplanStats stats_;
};

} // namespace edx
