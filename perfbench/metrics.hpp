/**
 * @file
 * The benchmark's metric rules, kept apart from any localizer so they
 * can be self-tested on synthetic latencies:
 *
 *  - a frame's latency runs from its *due* time on the open-loop
 *    schedule to its result, so a generator stall is charged to every
 *    frame queued behind it;
 *  - a failed, dropped or missing frame counts as +inf;
 *  - a p95 population holds at least kMinFrames frames, so that at
 *    least kMinTail samples lie beyond it.
 */
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** Latency of a frame that failed, was dropped or never returned. */
inline constexpr double kFailedMs = std::numeric_limits<double>::infinity();

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr int kMinTail = 10;

/** Frames in a p95 population: the smallest with kMinTail beyond it. */
inline constexpr int kMinFrames = 20 * kMinTail;

/** Timeline of one frame, in ms since the phase began. */
struct FrameTimes
{
    double due = 0.0;          //!< when the schedule offered the frame
    double submit_begin = 0.0; //!< generator entered submit()
    double submit_end = 0.0;   //!< submit() returned
    double done = -1.0;        //!< result arrived (< 0: never)
    bool ok = false;           //!< result carried a pose
};

/** Per-frame sensor-to-pose latency, ms: done - due, +inf on failure. */
std::vector<double> latenciesFromDue(const std::vector<FrameTimes> &frames);

/** Per-frame generator lateness, ms: submit_begin - due. */
std::vector<double> generatorLateness(const std::vector<FrameTimes> &frames);

/**
 * Samples strictly beyond the nearest-rank @p p-th percentile of @p n
 * samples (the rank is ceil(p/100 * n)).
 */
int tailCount(size_t n, double p);

/** Nearest-rank @p p-th percentile (0 < p <= 100); +inf sorts last.
 *  0 for an empty sample. */
double percentile(std::vector<double> v, double p);

/** The part of a closed-loop pass during which the executor stayed
 *  saturated: frames completed and the time they took. */
struct Saturated
{
    double frames = 0.0;
    double span_ms = 0.0;
};

/**
 * The completions of a closed-loop pass after the @p warmup-th one, up
 * to @p end_ms: the moment the first session ran out of frames, after
 * which the executor is no longer saturated (empty when fewer than
 * warmup + 1 frames completed by then).
 */
Saturated saturatedWindow(std::vector<double> done_ms, size_t warmup,
                          double end_ms);

/** Frames per second over several saturated windows (0 if none). */
double throughputFps(const std::vector<Saturated> &windows);

/** Runs the metric self-test; prints each failure, returns their count. */
int selfTest();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The result line: {"correct", "attempted", "failed", "metrics"}.
 * Values print with all their digits; a non-finite value prints as
 * null (the run is then reported as not correct by the caller).
 */
std::string resultJson(bool correct, long attempted, long failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench
