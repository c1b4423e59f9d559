/**
 * @file
 * perfbench: the end-to-end benchmark of the localizer (README.md).
 *
 * One process runs one named workload from a seed:
 *
 *  1. The program's set-up is timed several times; the median counts.
 *  2. Every input frame is rendered before any other timed window, one
 *     Dataset per rendering thread (Dataset::frame() writes the shared
 *     renderer's lighting gain on outdoor scenes, so threads sharing
 *     one Dataset race), and a checksum of the inputs is printed.
 *  3. Open loop: one generator thread offers frames on a fixed
 *     schedule; each frame is timed from its due time to its result.
 *  4. Closed loop, before and after the open loop: fresh sessions are
 *     kept saturated, and frames completed per second after a warm-up
 *     prefix, until the first session runs out of frames, are the
 *     throughput.
 *
 * With --trace 1 the open loop runs a second time with the same seed,
 * inputs and schedule, recording spans around calls into the program:
 * for a car the benchmark itself executes the five sub-stage nodes in
 * order, for the fleet it records each submit() and each result. That
 * run prints the per-layer metrics; its end-to-end numbers are printed
 * beside the untraced ones as the tracing cost.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluation.hpp"
#include "core/localizer.hpp"
#include "map/map_service.hpp"
#include "math/cpu_features.hpp"
#include "runtime/localizer_pool.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/placement.hpp"
#include "sim/dataset.hpp"

#include "metrics.hpp"

using namespace edx;
using perfbench::FrameTimes;
using perfbench::Metric;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

Clock::time_point
after(Clock::time_point t0, double ms)
{
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

/** Lead time between arming a phase and its first due frame. */
constexpr double kLeadMs = 50.0;

// --- workloads -------------------------------------------------------------

/** One robot of a workload. */
struct Robot
{
    BackendMode mode;
    QosClass qos;
    bool share_map; //!< fleet: attach to the MapService
    int offset;     //!< robot's head start along the route, frames
};

/** A named workload: what runs, how fast it is offered, its checks. */
struct Workload
{
    const char *name;
    SceneType scene;
    Platform platform;
    double rate_hz;          //!< open-loop frames/s offered per robot
    std::vector<int> cuts;   //!< FramePipeline cut list (one robot)
    std::vector<Robot> robots; //!< robots[0] is the reference session
    int vocab_stride;        //!< mapping-run stride (0: no vocabulary)
    int map_stride;          //!< mapping-run stride (0: no prior map)
    double ate_ceiling_m;    //!< bound on the reference session's ATE
    int setup_repeats;       //!< set-ups timed; the median is reported
    int closed_frames;       //!< closed loop, per robot, with warm-up

    bool fleet() const { return robots.size() > 1; }
};

// The ATE ceilings sit about twice above the largest value seen over
// every start frame; a pose stream past them is broken, not slow.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        // Frontend-bound: 1280x720 VIO + GPS on the classic FE+SM+TM |
        // SOLVE+FIN pipeline, offered at 7 Hz, under half of its 15-18
        // fps closed-loop throughput. At the 10 Hz camera rate a host
        // running 20% slow put it at the knee (p95 up to 470 ms). Its
        // set-up (a localizer and two pipeline threads, about 35 us)
        // is timed 3000 times: the median of 15 moved by half between
        // runs.
        {"car-vio", SceneType::OutdoorUnknown, Platform::Car, 7.0, {2},
         {{BackendMode::Vio, QosClass::Standard, false, 0}},
         0, 0, 5.0, 3000, 170},
        // The shared map under load: a pool of nproc-1 workers over one
        // MapService, four 640x480 drones staggered along the route:
        // the safety-critical reference robot tracks the prior map
        // alone, two standard robots adopt map epochs, and a standard
        // SLAM surveyor contributes keyframes. No best-effort robot, so
        // nothing is shed and failure counts do not depend on timing.
        {"fleet-shared-map", SceneType::IndoorKnown, Platform::Drone, 6.0,
         {},
         {{BackendMode::Registration, QosClass::SafetyCritical, false, 0},
          {BackendMode::Registration, QosClass::Standard, true, 15},
          {BackendMode::Registration, QosClass::Standard, true, 30},
          {BackendMode::Slam, QosClass::Standard, true, 45}},
         20, 8, 0.06, 3, 100},
    };
    return all;
}

/** Latest start frame a seed can pick: one second of camera time. */
constexpr int kMaxStart = 10;

/** Closed-loop frames per robot before throughput is counted. */
constexpr int kWarmupFrames = 10;

/**
 * Where along the route a seed starts the robots. Every seed drives
 * the same synthetic world (the dataset's default seed) from its own
 * start frame: worlds drawn per seed moved the reference ATE and the
 * latency tail by more than the bounds allow (car-vio over five world
 * seeds: ATE 1.29-1.75 m, p95 78-116 ms).
 */
int
startFrame(uint64_t seed)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull; // splitmix64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<int>(z % static_cast<uint64_t>(kMaxStart + 1));
}

// --- inputs ----------------------------------------------------------------

/** Every dataset frame a run needs, rendered before any timed window. */
struct Inputs
{
    std::vector<FrameInput> frames; //!< by dataset frame index
    std::vector<Pose> truth;
    uint64_t checksum = 0;
    double render_s = 0.0;
};

/** The bits of a double (std::bit_cast needs a newer libstdc++). */
uint64_t
bitsOf(double v)
{
    uint64_t w;
    std::memcpy(&w, &v, sizeof w);
    return w;
}

/** 64-bit FNV-1a over 8-byte words. */
struct Digest
{
    uint64_t h = 1469598103934665603ull;

    void
    word(uint64_t w)
    {
        h ^= w;
        h *= 1099511628211ull;
    }
    void f64(double v) { word(bitsOf(v)); }
    void
    bytes(const uint8_t *p, size_t n)
    {
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            uint64_t w;
            std::memcpy(&w, p + i, 8);
            word(w);
        }
        for (; i < n; ++i)
            word(p[i]);
    }
    void
    vec3(const Vec3 &v)
    {
        f64(v[0]);
        f64(v[1]);
        f64(v[2]);
    }
};

/** Checksum of frames [first, last) with their sensors. */
uint64_t
checksum(const std::vector<FrameInput> &frames, int first, int last)
{
    Digest d;
    for (int i = first; i < last; ++i) {
        const FrameInput &f = frames[i];
        d.f64(f.t);
        for (const ImageU8 *img : {&f.left, &f.right}) {
            d.word(static_cast<uint64_t>(img->width()) << 32 |
                   static_cast<uint32_t>(img->height()));
            d.bytes(img->data(), static_cast<size_t>(img->pixelCount()));
        }
        for (const ImuSample &s : f.imu) {
            d.f64(s.t);
            d.vec3(s.gyro);
            d.vec3(s.accel);
        }
        d.f64(f.gps.t);
        d.vec3(f.gps.position);
        d.f64(f.gps.sigma);
        d.word(f.gps.valid);
    }
    return d.h;
}

/** Renders dataset frames [first, last) on @p threads threads. */
Inputs
renderInputs(const DatasetConfig &dcfg, int first, int last, bool inertial,
             int threads)
{
    Inputs in;
    in.frames.resize(dcfg.frame_count);
    in.truth.resize(dcfg.frame_count);
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&, t] {
            const Dataset d(dcfg);
            for (int i = first + t; i < last; i += threads) {
                DatasetFrame f = d.frame(i);
                FrameInput &fi = in.frames[i];
                fi.frame_index = i;
                fi.t = f.t;
                fi.left = std::move(f.stereo.left);
                fi.right = std::move(f.stereo.right);
                if (inertial) {
                    fi.imu = d.imuBetweenFrames(i);
                    fi.gps = d.gpsAtFrame(i);
                }
                in.truth[i] = f.truth;
            }
        });
    for (std::thread &w : workers)
        w.join();
    in.render_s = msSince(t0) / 1000.0;
    in.checksum = checksum(in.frames, first, last);
    return in;
}

// --- sessions --------------------------------------------------------------

/** Offline assets shared by every session (built in the set-up). */
struct Assets
{
    std::unique_ptr<Vocabulary> voc;
    std::unique_ptr<Map> prior;
};

/** One car: a localizer driven through a FramePipeline. */
struct Car
{
    std::unique_ptr<Localizer> loc;
    std::unique_ptr<FramePipeline> pipe; //!< declared last: closed first
};

/** A fleet: sessions in a LocalizerPool over one MapService. */
struct Fleet
{
    std::unique_ptr<MapService> service;
    std::unique_ptr<LocalizerPool> pool; //!< declared last: shut first
};

std::unique_ptr<Localizer>
makeLocalizer(const Workload &w, const Robot &r, const Dataset &route,
              const Assets &a)
{
    LocalizerConfig cfg = configForScenario(w.scene);
    cfg.mode = r.mode;
    auto loc = std::make_unique<Localizer>(cfg, route.rig(), a.voc.get(),
                                           a.prior.get());
    const double t0 = r.offset * route.framePeriod();
    loc->initialize(route.truthAt(r.offset), t0,
                    route.trajectory().velocityAt(t0));
    return loc;
}

Car
makeCar(const Workload &w, const Dataset &route, const Assets &a,
        bool pipeline)
{
    Car c;
    c.loc = makeLocalizer(w, w.robots[0], route, a);
    if (pipeline) {
        PipelineConfig pc;
        pc.cuts = w.cuts;
        c.pipe = std::make_unique<FramePipeline>(*c.loc, pc);
    }
    return c;
}

int
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

Fleet
makeFleet(const Workload &w, const Dataset &route, const Assets &a)
{
    Fleet f;
    f.service = std::make_unique<MapService>(a.voc.get(), route.rig());
    f.service->seed(*a.prior);
    f.service->flush();
    PoolConfig pc;
    pc.workers = std::max(1, hostThreads() - 1);
    pc.reserved_workers = 1;
    pc.map_service = f.service.get();
    f.pool = std::make_unique<LocalizerPool>(pc);
    for (const Robot &r : w.robots) {
        SessionConfig s;
        s.qos = r.qos;
        s.share_map = r.share_map;
        f.pool->addSession(makeLocalizer(w, r, route, a), s);
    }
    return f;
}

Assets
buildAssets(const Workload &w, const Dataset &route)
{
    Assets a;
    if (w.vocab_stride > 0)
        a.voc = std::make_unique<Vocabulary>(
            buildVocabulary(route, w.vocab_stride));
    if (w.map_stride > 0) {
        MapBuildConfig mcfg;
        mcfg.frame_stride = w.map_stride;
        mcfg.seed = route.config().seed + 1;
        a.prior = std::make_unique<Map>(buildPriorMap(route, *a.voc, mcfg));
    }
    return a;
}

// --- phases ----------------------------------------------------------------

/** One frame of one robot, as observed from outside the program. */
struct FrameLog
{
    int robot = 0;
    FrameTimes times;
    LocalizationResult res;
    /** Start of each of the five sub-stage nodes plus the end of the
     *  last (traced car pass only), ms since the phase began. */
    std::array<double, kPipelineNodes + 1> marks{};
};

/** The frame a robot submits at its step @p i (images copied). */
FrameInput
robotFrame(const Inputs &in, const Robot &r, int i)
{
    FrameInput f = in.frames[r.offset + i];
    f.frame_index = i;
    return f;
}

/**
 * Due time of robot @p r's frame @p i when each robot is offered
 * @p rate_hz frames/s, robots interleaved evenly. A rate of 0 is the
 * closed loop: every frame is due at once.
 */
double
dueMs(const Workload &w, double rate_hz, int r, int i)
{
    if (rate_hz <= 0.0)
        return 0.0;
    const double period = 1000.0 / rate_hz;
    return kLeadMs +
           period * (i + static_cast<double>(r) / w.robots.size());
}

/**
 * Drives a FramePipeline or a LocalizerPool: one generator thread
 * offers each robot's first @p n frames on the schedule of @p rate_hz
 * (0: as fast as the executor admits them), a consumer thread stamps
 * every result as it arrives.
 */
std::vector<FrameLog>
drive(const Workload &w, const Inputs &in, int n, double rate_hz, Car *car,
      Fleet *fleet)
{
    const int robots = static_cast<int>(w.robots.size());
    std::vector<FrameLog> log(static_cast<size_t>(robots) * n);
    const auto t0 = Clock::now();
    auto record = [&](int robot, LocalizationResult &&r) {
        FrameLog &f = log[static_cast<size_t>(robot) * n + r.frame_index];
        f.times.done = msSince(t0);
        f.times.ok = r.ok;
        f.res = std::move(r);
    };
    std::thread consumer([&] {
        if (car) {
            LocalizationResult r;
            while (car->pipe->awaitResult(r))
                record(0, std::move(r));
        } else {
            PoolResult r;
            while (fleet->pool->awaitResult(r))
                record(r.session_id, std::move(r.result));
        }
    });
    for (int i = 0; i < n; ++i)
        for (int r = 0; r < robots; ++r) {
            FrameInput input = robotFrame(in, w.robots[r], i);
            FrameLog &f = log[static_cast<size_t>(r) * n + i];
            f.robot = r;
            f.times.due = dueMs(w, rate_hz, r, i);
            std::this_thread::sleep_until(after(t0, f.times.due));
            f.times.submit_begin = msSince(t0);
            if (car)
                car->pipe->submit(std::move(input));
            else
                fleet->pool->submit(r, std::move(input));
            f.times.submit_end = msSince(t0);
        }
    // Ends the consumer once every admitted frame has surfaced.
    if (car)
        car->pipe->close();
    else
        fleet->pool->shutdown();
    consumer.join();
    return log;
}

/**
 * The traced car pass: the benchmark is the executor. It calls the
 * five sub-stage nodes in order on the open-loop schedule and stamps
 * the start of each, which reproduces the pipelined pose stream.
 */
std::vector<FrameLog>
tracedCar(const Workload &w, const Inputs &in, int n, Localizer &loc)
{
    std::vector<FrameLog> log(n);
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
        FrameLog &f = log[i];
        const FrameInput input = robotFrame(in, w.robots[0], i);
        f.times.due = dueMs(w, w.rate_hz, 0, i);
        std::this_thread::sleep_until(after(t0, f.times.due));
        FrontendOutput fe;
        FrontendStageContext fectx;
        BackendStageContext bectx;
        f.marks[0] = f.times.submit_begin = f.times.submit_end = msSince(t0);
        loc.runFrontendFe(input.left, input.right, fectx, fe);
        f.marks[1] = msSince(t0);
        loc.runFrontendSm(input.left, input.right, fectx, fe);
        f.marks[2] = msSince(t0);
        loc.runFrontendTm(input.left, fectx, fe);
        f.marks[3] = msSince(t0);
        loc.runBackendSolve(input, fe, bectx);
        f.marks[4] = msSince(t0);
        f.res = loc.runBackendFinish(input, fe, bectx);
        f.marks[5] = f.times.done = msSince(t0);
        f.times.ok = f.res.ok;
    }
    return log;
}

// --- metrics ---------------------------------------------------------------

double
median(std::vector<double> v)
{
    return perfbench::percentile(std::move(v), 50.0);
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / v.size();
}

/** fn(frame) over the frames in @p log that returned and satisfy @p keep. */
template <typename Keep, typename Fn>
std::vector<double>
over(const std::vector<FrameLog> &log, Keep keep, Fn fn)
{
    std::vector<double> v;
    for (const FrameLog &f : log)
        if (f.times.done >= 0.0 && keep(f))
            v.push_back(fn(f));
    return v;
}

auto every = [](const FrameLog &) { return true; };

std::vector<FrameTimes>
timesOf(const std::vector<FrameLog> &log, int robot = -1)
{
    std::vector<FrameTimes> t;
    for (const FrameLog &f : log)
        if (robot < 0 || f.robot == robot)
            t.push_back(f.times);
    return t;
}

/** The reference session's ATE over its returned frames. */
double
referenceAte(const Workload &w, const Inputs &in,
             const std::vector<FrameLog> &log)
{
    std::vector<Pose> est, truth;
    for (const FrameLog &f : log)
        if (f.robot == 0 && f.times.done >= 0.0) {
            est.push_back(f.res.pose);
            truth.push_back(in.truth[w.robots[0].offset + f.res.frame_index]);
        }
    return computeTrajectoryError(est, truth).rmse_m;
}

/**
 * End-to-end figures of one open-loop pass. Every robot offers at least
 * perfbench::kMinFrames frames and each counts (+inf when it failed),
 * so both p95s have at least kMinTail samples beyond them.
 */
struct OpenLoopFigures
{
    double p50 = 0.0, p95 = 0.0, sc_p95 = 0.0;
    int p95_beyond = 0, sc_p95_beyond = 0;
    double ate_m = 0.0;
    double late_p99_ms = 0.0;
};

OpenLoopFigures
openLoopFigures(const Workload &w, const Inputs &in,
                const std::vector<FrameLog> &log)
{
    OpenLoopFigures o;
    const std::vector<double> lat =
        perfbench::latenciesFromDue(timesOf(log));
    const std::vector<double> sc_lat =
        perfbench::latenciesFromDue(timesOf(log, 0));
    o.p50 = perfbench::percentile(lat, 50.0);
    o.p95 = perfbench::percentile(lat, 95.0);
    o.sc_p95 = perfbench::percentile(sc_lat, 95.0);
    o.p95_beyond = perfbench::tailCount(lat.size(), 95.0);
    o.sc_p95_beyond = perfbench::tailCount(sc_lat.size(), 95.0);
    o.ate_m = referenceAte(w, in, log);
    o.late_p99_ms = perfbench::percentile(
        perfbench::generatorLateness(timesOf(log)), 99.0);
    return o;
}

/** Sub-stage node times of a frame: the traced spans for a car, the
 *  telemetry's block sums for the fleet (the pool runs whole frames). */
std::array<double, kPipelineNodes>
nodeMs(const FrameLog &f, bool traced_spans)
{
    std::array<double, kPipelineNodes> n{};
    for (int k = 0; k < kPipelineNodes; ++k)
        n[k] = traced_spans ? f.marks[k + 1] - f.marks[k]
                            : pipeNodeMs(f.res.telemetry, f.res.mode, k);
    return n;
}

/** Executor counters the per-layer metrics read beside the spans. */
struct Counters
{
    const std::vector<FrameLog> *pipeline_log = nullptr; //!< untraced car
    PipelineStats pipeline;
    PoolStats pool;
    double gen_late_p99_ms = 0.0;
    double render_s = 0.0;
};

std::vector<Metric>
perLayer(const Workload &w, const std::vector<FrameLog> &log,
         const Counters &c)
{
    std::vector<Metric> m;
    auto add = [&](const char *name, double v, const char *unit) {
        m.push_back({name, v, unit});
    };
    const bool spans = !w.fleet();
    auto tel = [](const FrameLog &f) -> const FrameTelemetry & {
        return f.res.telemetry;
    };
    auto inMode = [](BackendMode mode) {
        return [mode](const FrameLog &f) { return f.res.mode == mode; };
    };
    auto tracking = [](const FrameLog &f) {
        return f.res.mode != BackendMode::Vio;
    };

    // image / features: kernels and paper blocks, per-frame medians.
    auto fe = [&](double FrontendTiming::*field) {
        return median(over(log, every, [&](const FrameLog &f) {
            return tel(f).frontend.*field;
        }));
    };
    add("image.blur_ms", fe(&FrontendTiming::if_ms), "ms");
    add("features.fast_ms", fe(&FrontendTiming::fd_ms), "ms");
    add("features.orb_ms", fe(&FrontendTiming::fc_ms), "ms");
    add("features.stereo_mo_ms", fe(&FrontendTiming::mo_ms), "ms");
    add("features.stereo_dr_ms", fe(&FrontendTiming::dr_ms), "ms");
    add("features.lk_ms", fe(&FrontendTiming::tm_ms), "ms");
    auto work = [&](auto fn) { return median(over(log, every, fn)); };
    add("features.keypoints", work([&](const FrameLog &f) {
            return tel(f).frontend_workload.left_features +
                   tel(f).frontend_workload.right_features;
        }), "count");
    add("features.stereo_candidates", work([&](const FrameLog &f) {
            return tel(f).frontend_workload.stereo_candidates;
        }), "count");
    add("features.stereo_matches", work([&](const FrameLog &f) {
            return tel(f).frontend_workload.stereo_matches;
        }), "count");
    add("features.temporal_tracks", work([&](const FrameLog &f) {
            return tel(f).frontend_workload.temporal_tracks;
        }), "count");
    double cand = 0.0, matches = 0.0;
    for (const FrameLog &f : log) {
        cand += tel(f).frontend_workload.stereo_candidates;
        matches += tel(f).frontend_workload.stereo_matches;
    }
    add("features.stereo_match_ratio", cand > 0 ? matches / cand : 0.0,
        "ratio");

    // frontend / backend sub-stage nodes.
    static const char *kNodeNames[kPipelineNodes][2] = {
        {"frontend.fe_ms.p50", "frontend.fe_ms.p95"},
        {"frontend.sm_ms.p50", "frontend.sm_ms.p95"},
        {"frontend.tm_ms.p50", "frontend.tm_ms.p95"},
        {"backend.solve_ms.p50", "backend.solve_ms.p95"},
        {"backend.finish_ms.p50", "backend.finish_ms.p95"},
    };
    for (int k = 0; k < kPipelineNodes; ++k) {
        std::vector<double> v = over(log, every, [&](const FrameLog &f) {
            return nodeMs(f, spans)[k];
        });
        add(kNodeNames[k][0], median(v), "ms");
        add(kNodeNames[k][1], perfbench::percentile(v, 95.0), "ms");
    }

    // backend blocks: per-frame means over the frames of the modes that
    // run them (several blocks run on keyframes only).
    auto meanOver = [&](auto keep, auto fn) {
        return mean(over(log, keep, fn));
    };
    auto vio = inMode(BackendMode::Vio);
    auto slam = inMode(BackendMode::Slam);
    auto msckf = [&](double MsckfTiming::*field) {
        return meanOver(vio, [&](const FrameLog &f) {
            return tel(f).msckf.*field;
        });
    };
    auto track = [&](double TrackingTiming::*field) {
        return meanOver(tracking, [&](const FrameLog &f) {
            return tel(f).tracking.*field;
        });
    };
    auto mapping = [&](double MappingTiming::*field) {
        return meanOver(slam, [&](const FrameLog &f) {
            return tel(f).mapping.*field;
        });
    };
    add("backend.msckf.imu_ms", msckf(&MsckfTiming::imu_ms), "ms");
    add("backend.msckf.cov_ms", msckf(&MsckfTiming::cov_ms), "ms");
    add("backend.msckf.jacobian_ms", msckf(&MsckfTiming::jacobian_ms), "ms");
    add("backend.msckf.qr_ms", msckf(&MsckfTiming::qr_ms), "ms");
    add("backend.msckf.kalman_gain_ms", msckf(&MsckfTiming::kalman_gain_ms),
        "ms");
    add("backend.msckf.update_ms", msckf(&MsckfTiming::update_ms), "ms");
    add("backend.fusion_ms", meanOver(vio, [&](const FrameLog &f) {
            return tel(f).fusion_ms;
        }), "ms");
    add("backend.tracking.projection_ms",
        track(&TrackingTiming::projection_ms), "ms");
    add("backend.tracking.match_ms", track(&TrackingTiming::match_ms), "ms");
    add("backend.tracking.pose_opt_ms", track(&TrackingTiming::pose_opt_ms),
        "ms");
    add("backend.mapping.solver_ms", mapping(&MappingTiming::solver_ms), "ms");
    add("backend.mapping.marginalization_ms",
        mapping(&MappingTiming::marginalization_ms), "ms");
    add("backend.mapping.others_ms", mapping(&MappingTiming::others_ms), "ms");
    add("backend.mapping.loop_ms", mapping(&MappingTiming::loop_ms), "ms");
    add("backend.msckf.stacked_rows", meanOver(vio, [&](const FrameLog &f) {
            return tel(f).msckf_workload.stacked_rows;
        }), "count");
    add("backend.tracking.map_points_projected",
        meanOver(tracking, [&](const FrameLog &f) {
            return tel(f).tracking_workload.map_points_projected;
        }), "count");
    add("backend.mapping.residuals", meanOver(slam, [&](const FrameLog &f) {
            return tel(f).mapping_workload.residual_count;
        }), "count");
    add("backend.mapping.window_landmarks",
        meanOver(slam, [&](const FrameLog &f) {
            return tel(f).mapping_workload.window_landmarks;
        }), "count");
    double inliers = 0.0, candidates = 0.0;
    for (const FrameLog &f : log)
        if (tracking(f) && tel(f).tracking_inliers >= 0) {
            inliers += tel(f).tracking_inliers;
            candidates += tel(f).tracking_workload.candidate_matches;
        }
    add("backend.tracking.inlier_ratio",
        candidates > 0 ? inliers / candidates : 0.0, "ratio");

    // core: the whole frame, uncontended.
    std::vector<double> frame = over(log, every, [&](const FrameLog &f) {
        double s = 0.0;
        for (double x : nodeMs(f, spans))
            s += x;
        return s;
    });
    add("core.frame_ms.p50", median(frame), "ms");
    add("core.frame_ms.p95", perfbench::percentile(frame, 95.0), "ms");
    add("core.degraded_frames",
        std::count_if(log.begin(), log.end(), [&](const FrameLog &f) {
            return f.times.done >= 0.0 &&
                   tel(f).health != TrackingHealth::Nominal;
        }), "count");

    // runtime: the pipeline (untraced car open loop).
    const PipelineStats &ps = c.pipeline;
    double period = 0.0, submit_block = 0.0;
    if (c.pipeline_log) {
        period = median(over(*c.pipeline_log, every, [&](const FrameLog &f) {
            return tel(f).pipelinePeriodMs();
        }));
        for (const FrameLog &f : *c.pipeline_log)
            submit_block += f.times.submit_end - f.times.submit_begin;
    }
    add("runtime.pipeline.period_ms.p50", period, "ms");
    auto busy = [&](int stage) {
        return ps.frames > 0 ? ps.stage_busy_ms[stage] / ps.frames : 0.0;
    };
    add("runtime.pipeline.stage_busy_ms.0", busy(0), "ms");
    add("runtime.pipeline.stage_busy_ms.1", busy(1), "ms");
    add("runtime.pipeline.submit_block_ms", submit_block, "ms");
    add("runtime.pipeline.input_high_water",
        static_cast<double>(ps.input_high_water), "count");

    // runtime: the pool (traced fleet pass).
    std::vector<double> wait, sc_wait, overhead;
    double pool_block = 0.0;
    if (w.fleet()) {
        wait = over(log, every, [&](const FrameLog &f) {
            return tel(f).queue_wait_ms;
        });
        sc_wait = over(log, [](const FrameLog &f) { return f.robot == 0; },
                       [&](const FrameLog &f) { return tel(f).queue_wait_ms; });
        overhead = over(log, every, [&](const FrameLog &f) {
            return f.times.done - f.times.submit_begin -
                   tel(f).queue_wait_ms - f.res.frontendMs() -
                   f.res.backendMs();
        });
        for (const FrameLog &f : log)
            pool_block += f.times.submit_end - f.times.submit_begin;
    }
    add("runtime.pool.queue_wait_ms.p50", median(wait), "ms");
    add("runtime.pool.queue_wait_ms.p95", perfbench::percentile(wait, 95.0),
        "ms");
    add("runtime.pool.sc_queue_wait_ms.p95",
        perfbench::percentile(sc_wait, 95.0), "ms");
    add("runtime.pool.overhead_ms.p50", median(overhead), "ms");
    add("runtime.pool.submit_block_ms", pool_block, "ms");
    add("runtime.pool.dropped", static_cast<double>(c.pool.dropped),
        "count");

    // map: the MapService (traced fleet pass).
    const MapServiceStats &ms = c.pool.map_service;
    double acquire = 0.0;
    uint64_t oldest = ms.epochs_published;
    for (size_t s = 0; s < c.pool.sessions.size(); ++s) {
        acquire = std::max(acquire, c.pool.sessions[s].epoch_acquire_max_ms);
        const Robot &r = w.robots[s];
        if (r.share_map && r.mode == BackendMode::Registration)
            oldest = std::min(oldest, c.pool.sessions[s].map_epoch);
    }
    add("map.merges", static_cast<double>(ms.merges), "count");
    add("map.keyframes_ingested", static_cast<double>(ms.keyframes_ingested),
        "count");
    add("map.keyframes_per_merge",
        ms.merges > 0 ? static_cast<double>(ms.keyframes_ingested) / ms.merges
                      : 0.0,
        "count");
    add("map.merge_max_ms", ms.max_merge_ms, "ms");
    add("map.publish_max_ms", ms.max_publish_ms, "ms");
    add("map.epoch_acquire_max_ms", acquire, "ms");
    add("map.epochs_published", static_cast<double>(ms.epochs_published),
        "count");
    add("map.reader_epoch_lag",
        static_cast<double>(ms.epochs_published - oldest), "count");

    // generator: whether the run measured the program.
    add("gen.late_ms.p99", c.gen_late_p99_ms, "ms");
    add("gen.render_s", c.render_s, "s");
    return m;
}

/** Writes the traced pass as Chrome trace-event JSON (Perfetto). */
void
writeTrace(const std::string &path, const Workload &w,
           const std::vector<FrameLog> &log)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    auto span = [&](const char *name, const char *parent, const FrameLog &f,
                    double t0, double t1) {
        out << (first ? "" : ",") << "\n{\"name\":\"" << name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << f.robot
            << ",\"ts\":" << t0 * 1000.0 << ",\"dur\":" << (t1 - t0) * 1000.0
            << ",\"args\":{\"frame\":" << f.res.frame_index
            << ",\"parent\":\"" << parent << "\"}}";
        first = false;
    };
    static const char *kNodes[kPipelineNodes] = {"FE", "SM", "TM", "SOLVE",
                                                 "FIN"};
    for (const FrameLog &f : log) {
        if (f.times.done < 0.0)
            continue;
        span("frame", "", f, f.times.due, f.times.done);
        if (!w.fleet()) {
            for (int k = 0; k < kPipelineNodes; ++k)
                span(kNodes[k], "frame", f, f.marks[k], f.marks[k + 1]);
        } else {
            span("submit", "frame", f, f.times.submit_begin,
                 f.times.submit_end);
            span("in_pool", "frame", f, f.times.submit_end, f.times.done);
        }
    }
    out << "\n]}\n";
}

bool
sameBits(const Pose &a, const Pose &b)
{
    const double x[7] = {a.rotation.w(), a.rotation.x(), a.rotation.y(),
                         a.rotation.z(), a.translation[0], a.translation[1],
                         a.translation[2]};
    const double y[7] = {b.rotation.w(), b.rotation.x(), b.rotation.y(),
                         b.rotation.z(), b.translation[0], b.translation[1],
                         b.translation[2]};
    for (int i = 0; i < 7; ++i)
        if (bitsOf(x[i]) != bitsOf(y[i]))
            return false;
    return true;
}

// --- the run ---------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    std::string commit = "unknown";
    std::string trace_dir = ".bench_build/traces";
};

/** Frame accounting of a run: every offered frame must be accounted. */
struct Tally
{
    long attempted = 0, completed = 0, failed = 0;

    void
    add(const std::vector<FrameLog> &log, long dropped)
    {
        attempted += static_cast<long>(log.size());
        for (const FrameLog &f : log)
            if (f.times.done >= 0.0)
                (f.times.ok ? completed : failed) += 1;
        failed += dropped;
    }
};

void
printFigures(const char *label, const OpenLoopFigures &o)
{
    std::printf("%s: latency p50 %.2f ms, p95 %.2f ms (%d beyond), "
                "reference p95 %.2f ms (%d beyond), ate %.6f m, "
                "generator late p99 %.3f ms\n",
                label, o.p50, o.p95, o.p95_beyond, o.sc_p95,
                o.sc_p95_beyond, o.ate_m, o.late_p99_ms);
}

int
run(const Workload &workload, const Args &args)
{
    const int threads = hostThreads();
    const int robots = static_cast<int>(workload.robots.size());
    // --seconds sets the open-loop schedule; it is stretched when a
    // robot would offer fewer frames than a p95 needs.
    const int n = std::max<int>(std::ceil(args.seconds * workload.rate_hz),
                                perfbench::kMinFrames);
    // The route spans every start the seeds can pick, so it is the same
    // trajectory for every seed.
    int route_frames = 0;
    for (const Robot &r : workload.robots)
        route_frames = std::max(route_frames, kMaxStart + r.offset + n);
    const int start = startFrame(args.seed);
    Workload w = workload;
    for (Robot &r : w.robots)
        r.offset += start;

    std::printf("header: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"commit\": \"%s\", \"nproc\": %d, "
                "\"simd\": \"%s\", \"build_type\": \"%s\"}\n",
                w.name, static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, args.commit.c_str(), threads,
                simdTierSummary().c_str(), PERFBENCH_BUILD_TYPE);

    DatasetConfig dcfg;
    dcfg.scene = w.scene;
    dcfg.platform = w.platform;
    dcfg.frame_count = route_frames;

    // Set-up: the offline assets, the map service and the executor with
    // its sessions, timed several times; the last one is kept. It runs
    // before the inputs are rendered, in a process not yet holding
    // hundreds of MB of frames.
    const Dataset route(dcfg);
    Assets assets;
    std::vector<double> setup_s;
    const int repeats = args.trace ? 1 : w.setup_repeats;
    std::unique_ptr<Car> car;
    std::unique_ptr<Fleet> fleet;
    for (int k = 0; k < repeats; ++k) {
        car.reset();
        fleet.reset();
        const auto t0 = Clock::now();
        assets = buildAssets(w, route);
        if (w.fleet())
            fleet = std::make_unique<Fleet>(makeFleet(w, route, assets));
        else
            car = std::make_unique<Car>(makeCar(w, route, assets, true));
        setup_s.push_back(msSince(t0) / 1000.0);
    }
    std::printf("setup: median %.6f s over %d\n", median(setup_s), repeats);

    int last = 0;
    for (const Robot &r : w.robots)
        last = std::max(last, r.offset + n);
    const Inputs in = renderInputs(dcfg, start, last, !w.fleet(), threads);
    std::printf("inputs: frames %d-%d of a %d-frame route, %dx%d, checksum "
                "%016llx, rendered in %.2f s on %d threads\n",
                start, last - 1, route_frames,
                in.frames[start].left.width(),
                in.frames[start].left.height(),
                static_cast<unsigned long long>(in.checksum), in.render_s,
                threads);

    // Closed loop, on fresh sessions over the same assets, once before
    // and once after the open loop: throughput then averages the host's
    // speed over the run, not over one window of a few seconds.
    Tally tally;
    std::vector<perfbench::Saturated> saturated;
    auto closedPass = [&] {
        Car c;
        Fleet f;
        if (w.fleet())
            f = makeFleet(w, route, assets);
        else
            c = makeCar(w, route, assets, true);
        const std::vector<FrameLog> closed =
            drive(w, in, w.closed_frames, 0.0, f.pool ? nullptr : &c,
                  f.pool ? &f : nullptr);
        tally.add(closed, f.pool ? f.pool->stats().dropped : 0);
        std::vector<double> done, last_ms(robots, 0.0);
        for (const FrameLog &fl : closed)
            if (fl.times.done >= 0.0) {
                done.push_back(fl.times.done);
                last_ms[fl.robot] = std::max(last_ms[fl.robot], fl.times.done);
            }
        const double end_ms = *std::min_element(last_ms.begin(),
                                                last_ms.end());
        saturated.push_back(perfbench::saturatedWindow(
            done, static_cast<size_t>(kWarmupFrames) * robots, end_ms));
        std::printf("closed loop: %zu of %d frames returned, %.3f fps over "
                    "%.0f frames after %d warm-up frames per robot, until "
                    "the first robot ran dry\n",
                    done.size(), w.closed_frames * robots,
                    perfbench::throughputFps({saturated.back()}),
                    saturated.back().frames, kWarmupFrames);
    };
    if (!args.trace)
        closedPass();

    const std::vector<FrameLog> open =
        drive(w, in, n, w.rate_hz, car.get(), fleet.get());
    const PipelineStats pipe_stats = car ? car->pipe->stats()
                                         : PipelineStats{};
    const PoolStats pool_stats = fleet ? fleet->pool->stats() : PoolStats{};
    tally.add(open, pool_stats.dropped);
    const OpenLoopFigures untraced = openLoopFigures(w, in, open);
    printFigures("open loop", untraced);

    bool correct = true;
    auto fail = [&](const std::string &why) {
        std::printf("check FAILED: %s\n", why.c_str());
        correct = false;
    };
    std::vector<Metric> metrics;
    if (!args.trace) {
        closedPass();
        const double fps = perfbench::throughputFps(saturated);
        metrics = {
            {"latency_p50_ms", untraced.p50, "ms"},
            {"latency_p95_ms", untraced.p95, "ms"},
            {"sc_latency_p95_ms", untraced.sc_p95, "ms"},
            {"throughput_fps", fps, "frames/s"},
            {"ate_m", untraced.ate_m, "m"},
            {"setup_s", median(setup_s), "s"},
        };
    } else {
        // Traced pass: same seed, inputs and schedule, fresh sessions.
        std::vector<FrameLog> traced;
        Counters counters;
        counters.render_s = in.render_s;
        counters.gen_late_p99_ms = untraced.late_p99_ms;
        if (w.fleet()) {
            fleet = std::make_unique<Fleet>(makeFleet(w, route, assets));
            traced = drive(w, in, n, w.rate_hz, nullptr, fleet.get());
            counters.pool = fleet->pool->stats();
        } else {
            Car fresh = makeCar(w, route, assets, false);
            traced = tracedCar(w, in, n, *fresh.loc);
            counters.pipeline_log = &open;
            counters.pipeline = pipe_stats;
            int differ = 0;
            for (int i = 0; i < n; ++i)
                differ += !sameBits(open[i].res.pose, traced[i].res.pose);
            std::printf("traced pass: %d of %d poses bit-identical to the "
                        "pipelined run\n", n - differ, n);
            if (differ > 0)
                fail("traced poses differ from the untraced run");
        }
        tally.add(traced, counters.pool.dropped);
        printFigures("traced open loop (tracing cost: compare with the "
                     "line above)", openLoopFigures(w, in, traced));
        const std::string path = args.trace_dir + "/" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".json";
        writeTrace(path, w, traced);
        std::printf("trace: %s\n", path.c_str());
        metrics = perLayer(w, traced, counters);
    }

    if (untraced.ate_m > w.ate_ceiling_m)
        fail("reference ATE " + std::to_string(untraced.ate_m) +
             " m exceeds its ceiling " + std::to_string(w.ate_ceiling_m) +
             " m");
    if (tally.attempted != tally.completed + tally.failed)
        fail("frames attempted != completed + failed");
    for (const Metric &mt : metrics)
        if (!std::isfinite(mt.value))
            fail(mt.name + " is not finite (a percentile fell on a failed "
                           "frame)");
    std::printf("frames: attempted %ld, completed %ld, failed %ld\n",
                tally.attempted, tally.completed, tally.failed);
    for (const Metric &mt : metrics)
        std::printf("  %-40s %14.4f %s\n", mt.name.c_str(), mt.value,
                    mt.unit.c_str());
    std::printf("%s\n", perfbench::resultJson(correct, tally.attempted,
                                              tally.failed, metrics)
                            .c_str());
    return correct ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit REV] [--trace-dir DIR]\n"
                 "workloads:");
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            args.workload = v;
        else if (a == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::atoi(v.c_str());
        else if (a == "--trace")
            args.trace = v == "1";
        else if (a == "--commit")
            args.commit = v;
        else if (a == "--trace-dir")
            args.trace_dir = v;
        else
            return usage();
    }

    // The metric rules are checked before every run.
    const int failures = perfbench::selfTest();
    std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    if (failures > 0)
        return 1;

    const Workload *w = nullptr;
    for (const Workload &c : workloads())
        if (args.workload == c.name)
            w = &c;
    if (!w || args.seconds <= 0)
        return usage();
    try {
        return run(*w, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
