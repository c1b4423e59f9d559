#include "metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::vector<double>
latenciesFromDue(const std::vector<FrameTimes> &frames)
{
    std::vector<double> out;
    out.reserve(frames.size());
    for (const FrameTimes &f : frames)
        out.push_back(f.ok && f.done >= 0.0 ? f.done - f.due : kFailedMs);
    return out;
}

std::vector<double>
generatorLateness(const std::vector<FrameTimes> &frames)
{
    std::vector<double> out;
    out.reserve(frames.size());
    for (const FrameTimes &f : frames)
        out.push_back(f.submit_begin - f.due);
    return out;
}

int
tailCount(size_t n, double p)
{
    if (n == 0)
        return 0;
    // p * n / 100 is exact for integral p and n; the epsilon guards
    // fractional p against a rank one too high.
    const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
    const long r = std::clamp(static_cast<long>(rank), 1L,
                              static_cast<long>(n));
    return static_cast<int>(static_cast<long>(n) - r);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const size_t rank = v.size() - static_cast<size_t>(tailCount(v.size(), p));
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

Saturated
saturatedWindow(std::vector<double> done_ms, size_t warmup, double end_ms)
{
    Saturated w;
    std::sort(done_ms.begin(), done_ms.end());
    const size_t first = warmup > 0 ? warmup - 1 : 0;
    if (first >= done_ms.size() || done_ms[first] >= end_ms)
        return w;
    for (size_t i = first + 1; i < done_ms.size() && done_ms[i] <= end_ms; ++i)
        w.frames += 1.0;
    w.span_ms = end_ms - done_ms[first];
    return w;
}

double
throughputFps(const std::vector<Saturated> &windows)
{
    double frames = 0.0, span = 0.0;
    for (const Saturated &w : windows) {
        frames += w.frames;
        span += w.span_ms;
    }
    return span > 0.0 ? 1000.0 * frames / span : 0.0;
}

int
selfTest()
{
    int failures = 0;
    auto check = [&](bool cond, const char *what) {
        if (!cond) {
            ++failures;
            std::fprintf(stderr, "self-test FAILED: %s\n", what);
        }
    };

    // The percentile rule: nearest rank, at least kMinTail beyond.
    check(tailCount(200, 95) == 10, "200 samples leave 10 beyond p95");
    check(tailCount(199, 95) == 9, "199 samples leave 9 beyond p95");
    check(tailCount(1000, 99) == 10, "1000 samples leave 10 beyond p99");
    check(tailCount(kMinFrames, 95) >= kMinTail,
          "the frame floor leaves kMinTail beyond p95");
    std::vector<double> ramp;
    for (int i = 1; i <= 200; ++i)
        ramp.push_back(i);
    check(percentile(ramp, 95) == 190.0, "p95 of 1..200 is 190");
    check(percentile(ramp, 50) == 100.0, "median of 1..200 is 100");

    // Failed frames count as +inf: ten of them still leave p95 on a
    // real sample; an eleventh (a frame that never returned) pushes
    // p95 onto a failure. The median is unaffected.
    std::vector<FrameTimes> frames(200);
    for (size_t i = 0; i < frames.size(); ++i) {
        frames[i].due = 100.0 * i;
        frames[i].submit_begin = frames[i].submit_end = frames[i].due;
        frames[i].done = frames[i].due + 50.0 + (i % 7);
        frames[i].ok = i % 20 != 3; // ten failures
    }
    std::vector<double> lat = latenciesFromDue(frames);
    check(std::isinf(lat[3]) && !std::isinf(lat[4]),
          "a failed frame's latency is +inf");
    check(std::isfinite(percentile(lat, 95)),
          "ten failures leave p95 finite");
    frames[4].done = -1.0;
    lat = latenciesFromDue(frames);
    check(std::isinf(percentile(lat, 95)),
          "an eleventh (missing) frame makes p95 +inf");
    check(std::isfinite(percentile(lat, 50)), "failures leave p50 finite");

    // Latency is timed from the due time: a single FIFO executor with
    // a 40 ms service time, frames due every 100 ms, and a generator
    // that stalls 350 ms before frame 5 and then submits its backlog at
    // once. Timed from submit(), frames 5..9 would read 40-160 ms.
    std::vector<FrameTimes> stall(10);
    double free_at = 0.0;
    for (size_t i = 0; i < stall.size(); ++i) {
        FrameTimes &f = stall[i];
        f.due = 100.0 * i;
        f.submit_begin = f.submit_end = i < 5 ? f.due : std::max(f.due, 850.0);
        f.done = std::max(f.submit_end, free_at) + 40.0;
        f.ok = true;
        free_at = f.done;
    }
    lat = latenciesFromDue(stall);
    const double expect[10] = {40, 40, 40, 40, 40, 390, 330, 270, 210, 150};
    bool all = true;
    for (int i = 0; i < 10; ++i)
        all = all && lat[i] == expect[i];
    check(all, "a generator stall is charged to the frames behind it");
    check(generatorLateness(stall)[5] == 350.0 &&
              generatorLateness(stall)[9] == 0.0,
          "generator lateness is submit - due");

    // Throughput while saturated: the fast completions before the third
    // and the slow drain after the first session ran dry (at 900 ms) do
    // not count.
    std::vector<double> done;
    for (int i = 0; i < 12; ++i)
        done.push_back(i < 2 ? 5.0 * i : i < 10 ? 100.0 * i : 2000.0 * i);
    const Saturated w = saturatedWindow(done, 3, 900.0);
    check(throughputFps({w}) == 10.0,
          "throughput counts completions between warm-up and drain");
    check(throughputFps({w, {3.0, 100.0}}) == 12.5,
          "throughput pools frames and time over passes");
    return failures;
}

std::string
resultJson(bool correct, long attempted, long failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (i > 0)
            out += ", ";
        out += "\"" + m.name + "\": {\"value\": ";
        if (std::isfinite(m.value)) {
            char buf[64];
            auto r = std::to_chars(buf, buf + sizeof(buf), m.value);
            out.append(buf, r.ptr);
        } else {
            out += "null";
        }
        out += ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
