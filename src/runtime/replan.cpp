#include "runtime/replan.hpp"

#include <algorithm>

namespace edx {

SessionReplanner::SessionReplanner(const ReplanConfig &cfg) : cfg_(cfg)
{
    if (cfg_.window < 1)
        cfg_.window = 1;
    if (cfg_.tick_frames < 1)
        cfg_.tick_frames = 1;
    if (cfg_.min_mode_frames < 1)
        cfg_.min_mode_frames = 1;
    cfg_.max_stages = std::clamp(cfg_.max_stages, 1, kPipelineNodes);
}

void
SessionReplanner::reset()
{
    std::lock_guard<std::mutex> lk(m_);
    window_.clear();
    since_tick_ = 0;
    stats_ = {};
}

ReplanStats
SessionReplanner::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    return stats_;
}

std::optional<StagePlan>
SessionReplanner::observe(const FrameTelemetry &telemetry,
                          BackendMode mode,
                          const std::vector<int> &current_cuts)
{
    std::lock_guard<std::mutex> lk(m_);
    window_.push_back({telemetry, mode});
    while (static_cast<int>(window_.size()) > cfg_.window)
        window_.pop_front();
    ++stats_.observed;
    if (++since_tick_ < cfg_.tick_frames)
        return std::nullopt;
    since_tick_ = 0;
    ++stats_.ticks;

    // Fit only on trailing frames of the current mode: a window that
    // straddles a mode transition mixes incomparable latency regimes,
    // and the trailing run is exactly the new workload's evidence.
    std::vector<FrameTelemetry> frames;
    frames.reserve(window_.size());
    for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
        if (it->mode != mode)
            break;
        frames.push_back(it->telemetry);
    }
    if (static_cast<int>(frames.size()) < cfg_.min_mode_frames) {
        ++stats_.held;
        return std::nullopt;
    }
    std::reverse(frames.begin(), frames.end());

    const NodeProfile profile =
        PlacementPlanner::profileFromTelemetry(frames, mode);
    StagePlan plan = PlacementPlanner::plan(profile, cfg_.max_stages);
    if (plan.cuts == current_cuts) {
        ++stats_.held;
        return std::nullopt;
    }

    // Hysteresis: both periods under the same fresh profile. A
    // marginal predicted win is noise; swapping on it would thrash.
    const double current_period =
        PlacementPlanner::periodFor(profile, current_cuts);
    const bool improves =
        plan.period_ms <= cfg_.hysteresis * current_period &&
        current_period - plan.period_ms >= cfg_.min_gain_ms;
    if (!improves) {
        ++stats_.held;
        return std::nullopt;
    }
    ++stats_.proposals;
    return plan;
}

} // namespace edx
