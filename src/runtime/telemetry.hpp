/**
 * @file
 * Unified per-frame telemetry of the staged runtime.
 *
 * Every block of the localizer (frontend tasks, backend kernels, GPS
 * fusion) reports wall-clock latency and workload sizes. Before the
 * runtime layer existed these records were scattered over
 * `FrontendTiming`, `TrackingTiming`, `MsckfTiming`, `MappingTiming`
 * and their workload twins, and every block hand-rolled its own
 * `std::chrono` bookkeeping. This header centralizes both:
 *
 *  - StageTimer: RAII accumulator used by every timed block, and
 *  - FrameTelemetry: the single per-frame record the benches, the
 *    scheduler and the pipeline consume.
 *
 * The runtime additionally stamps the *stage* spans: the wall time a
 * frame spent in each stage of its topology.
 */
#pragma once

#include <array>
#include <chrono>

#include "backend/mapping.hpp"
#include "backend/msckf.hpp"
#include "backend/tracking.hpp"
#include "core/health.hpp"
#include "frontend/frontend.hpp"
#include "sched/scheduler.hpp"
#include "sim/scenario.hpp"

namespace edx {

/**
 * Number of nodes in the frame's sub-stage graph
 * (FE | SM | TM | solve | finish — see runtime/pipeline.hpp, whose
 * PipeNode enum names them). Lives here so FrameTelemetry's per-stage
 * spans share the constant without a circular include.
 */
constexpr int kPipelineNodes = 5;

/**
 * RAII wall-clock timer: accumulates the elapsed milliseconds into a
 * sink on destruction (or on an explicit stop()). Blocks that time
 * several sections into the same sink simply construct several scoped
 * timers; the sink accumulates.
 */
class StageTimer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit StageTimer(double &sink_ms)
        : sink_(&sink_ms), start_(Clock::now())
    {}

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

    ~StageTimer() { stop(); }

    /** Milliseconds elapsed since construction (timer keeps running). */
    double
    elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         start_)
            .count();
    }

    /** Accumulates into the sink and disarms the timer. Idempotent. */
    void
    stop()
    {
        if (sink_) {
            *sink_ += elapsedMs();
            sink_ = nullptr;
        }
    }

  private:
    double *sink_;
    Clock::time_point start_;
};

/**
 * Matrix-size driver available at the frontend -> backend stage
 * boundary of the pipelined runtime.
 *
 * The paper's scheduler predicts the backend kernel's CPU time "from
 * the sizes the frontend just produced", before the backend stage
 * starts; the placement planner fits the solve sub-stage against the
 * same driver. Each kernel's size is driven by a frontend product:
 * projection by the stereo matches that seed map-point association,
 * Kalman gain by the temporal tracks that terminate into MSCKF rows,
 * and marginalization by the stereo landmarks entering the window.
 */
inline double
stageSizeDriver(BackendKernel k, const FrontendWorkload &w)
{
    switch (k) {
      case BackendKernel::Projection:
        return static_cast<double>(w.stereo_matches);
      case BackendKernel::KalmanGain:
        return static_cast<double>(w.temporal_tracks);
      case BackendKernel::Marginalization:
        return static_cast<double>(w.stereo_matches);
    }
    return 0.0;
}

/**
 * The unified per-frame record: all block latencies and workload sizes
 * of one localized frame, plus the pipeline's stage accounting. Only
 * the active backend mode's records are meaningful.
 */
struct FrameTelemetry
{
    FrontendTiming frontend;
    FrontendWorkload frontend_workload;

    TrackingTiming tracking;
    TrackingWorkload tracking_workload;
    MsckfTiming msckf;
    MsckfWorkload msckf_workload;
    MappingTiming mapping;
    MappingWorkload mapping_workload;
    double fusion_ms = 0.0;

    /**
     * Pool QoS accounting (filled by LocalizerPool): wall time this
     * frame spent queued between admission and dispatch. Under
     * contention this is where a session's latency degrades first —
     * the per-class admission controller shapes it (reserved classes
     * stay near zero while best-effort queues age and shed).
     */
    double queue_wait_ms = 0.0;

    /**
     * Per-stage wall time of this frame under the topology it ran
     * (first pipeline_stages entries valid; filled by the runtime,
     * where a pool session's whole frame is one stage). The
     * steady-state pipelined frame interval is max over stages.
     */
    std::array<double, kPipelineNodes> stage_span_ms{};
    int pipeline_stages = 0;

    /** Steady-state frame interval of the recorded topology, ms. */
    double
    pipelinePeriodMs() const
    {
        double m = 0.0;
        for (int i = 0; i < pipeline_stages; ++i)
            m = stage_span_ms[i] > m ? stage_span_ms[i] : m;
        return m;
    }

    /**
     * Tracking-quality state of the session at this frame
     * (core/health.hpp). A pose stamped DeadReckoning came from the
     * internal-sensor fallback, not from vision — downstream consumers
     * must treat it as drifting, never as a vision-confirmed fix.
     */
    TrackingHealth health = TrackingHealth::Nominal;

    /** True when the pose was substituted by the fallback reckoner. */
    bool dead_reckoned = false;

    /** Tracking modes: pose-optimization inliers (-1: not applicable). */
    int tracking_inliers = -1;

    /** Tracking modes: the frame fell back to BoW relocalization. */
    bool relocalized = false;

    /** Frontend block latency, ms. */
    double frontendMs() const { return frontend.total(); }

    /** Total backend latency of the active mode, ms. */
    double
    backendMs(BackendMode mode) const
    {
        switch (mode) {
          case BackendMode::Registration:
            return tracking.total();
          case BackendMode::Vio:
            return msckf.total() + fusion_ms;
          case BackendMode::Slam:
            return tracking.total() + mapping.total();
        }
        return 0.0;
    }

    /** End-to-end (sequential) frame latency, ms. */
    double
    totalMs(BackendMode mode) const
    {
        return frontendMs() + backendMs(mode);
    }
};

} // namespace edx
