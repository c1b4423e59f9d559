/**
 * @file
 * Frontend kernel micro-bench: every optimized kernel against its
 * retained scalar reference on a synthetic 640x480 stereo scene, plus
 * the end-to-end frontend at 1 lane, 2 lanes and the lane count a bare
 * frontend derives (availableCpus()). The end-to-end reference path is
 * retired: its row and the 1-lane speedup over it are frozen rows of
 * BENCH_reference.json (common/reference.hpp), printed with the commit
 * they were measured at.
 *
 * Doubles as the CI perf smoke: when EDX_FRONTEND_MS_CEILING is set
 * (milliseconds), the bench exits non-zero if the optimized 1-lane
 * frontend exceeds it — a generous ceiling, so regressions fail loudly
 * without flaking on machine noise. The gated row is pinned to one
 * lane, so the ceiling keeps gating the kernels, not the host's width.
 */
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/reference.hpp"
#include "common/runner.hpp"
#include "common/table.hpp"
#include "features/fast.hpp"
#include "features/optical_flow.hpp"
#include "features/orb.hpp"
#include "features/stereo.hpp"
#include "frontend/frontend.hpp"
#include "image/draw.hpp"
#include "image/filter.hpp"
#include "math/cpu_features.hpp"
#include "math/rng.hpp"
#include "runtime/telemetry.hpp"

using namespace edx;
using namespace edx::bench;

namespace {

constexpr int kW = 640, kH = 480;

struct Scene
{
    ImageU8 left{kW, kH}, right{kW, kH}, next{kW, kH};
};

Scene
makeScene()
{
    Scene s;
    Rng rl(11), rr(12), rn(13), rp(14);
    fillNoisyBackground(s.left, 105, 7, rl);
    fillNoisyBackground(s.right, 105, 7, rr);
    fillNoisyBackground(s.next, 105, 7, rn);
    uint32_t tex = 3000;
    for (int i = 0; i < 60; ++i, ++tex) {
        double x = rp.uniform(30, kW - 30), y = rp.uniform(30, kH - 30);
        drawTexturedPatch(s.left, x, y, 9, tex, 165);
        drawTexturedPatch(s.right, x - 21.0, y, 9, tex, 165);
        drawTexturedPatch(s.next, x + 4.0, y + 2.0, 9, tex, 165);
    }
    return s;
}

/** Mean wall ms of @p fn over the bench's iteration count. */
template <typename Fn>
double
timeMs(int iters, Fn &&fn)
{
    double total = 0.0;
    for (int i = 0; i < iters; ++i) {
        StageTimer t(total);
        fn();
    }
    return total / iters;
}

std::string
speedup(double ref_ms, double opt_ms)
{
    return opt_ms > 0.0 ? fmt(ref_ms / opt_ms, 2) + "x" : "-";
}

/** Times @p fn with the SIMD dispatch forced to @p tier. */
template <typename Fn>
double
timeMsAtTier(SimdTier tier, int iters, Fn &&fn)
{
    const SimdTier prev = activeSimdTier();
    setSimdTier(tier);
    const double ms = timeMs(iters, fn);
    setSimdTier(prev);
    return ms;
}

/**
 * Whether the startup tier is AVX2. The startup tier honors both cpuid
 * and EDX_SIMD_LEVEL, so under a forced-sse2 CI leg the avx2 column
 * degrades to "-" instead of silently running AVX2 code. A function —
 * not a namespace-scope constant — because the dispatch tier is
 * dynamically initialized and a static flag here could be initialized
 * first, reading the pre-dispatch SSE2 default.
 */
bool
hasAvx2()
{
    return activeSimdTier() == SimdTier::kAvx2;
}

/**
 * One kernel row: the reference once (the twins never dispatch, so it
 * is scalar code on any tier), the optimized path once per available
 * SIMD tier. Non-dispatched kernels simply repeat their timing across
 * tiers — the column then doubles as a noise gauge.
 */
template <typename RefFn, typename OptFn>
void
addKernelRow(Table &t, const std::string &name, int iters, RefFn &&ref_fn,
             OptFn &&opt_fn)
{
    const double ref = timeMs(iters, ref_fn);
    const double sse2 = timeMsAtTier(SimdTier::kSse2, iters, opt_fn);
    const double avx2 =
        hasAvx2() ? timeMsAtTier(SimdTier::kAvx2, iters, opt_fn) : -1.0;
    const double best = hasAvx2() ? avx2 : sse2;
    t.addRow({name, fmt(ref, 2), fmt(sse2, 2),
              avx2 < 0.0 ? "-" : fmt(avx2, 2), speedup(ref, best)});
}

} // namespace

int
main()
{
    banner("frontend kernels",
           "optimized vs retained reference, 640x480 synthetic scene");
    note("SIMD tier: " + simdTierSummary());
    const int iters = benchFrames(12);
    Scene s = makeScene();

    Table t({"kernel", "reference ms", "sse2 ms", "avx2 ms",
             "speedup"});

    // IF: fixed-point separable Gaussian.
    BlurScratch blur_scratch;
    ImageU8 blurred;
    addKernelRow(t, "gaussianBlur (IF)", iters,
                 [&] { gaussianBlurReference(s.left); },
                 [&] { gaussianBlurInto(s.left, blur_scratch, blurred); });

    // FD: FAST-9 with candidate-list NMS.
    FastConfig fcfg;
    FastScratch fast_scratch;
    std::vector<KeyPoint> kps;
    addKernelRow(t, "detectFast (FD)", iters,
                 [&] { detectFastReference(s.left, fcfg); },
                 [&] { detectFastInto(s.left, fcfg, fast_scratch, kps); });

    // FC: ORB descriptors on the filtered image.
    std::vector<KeyPoint> kps_ref = kps;
    std::vector<Descriptor> descs;
    addKernelRow(t, "orbDescriptors (FC)", iters,
                 [&] { computeOrbDescriptorsReference(blurred, kps_ref); },
                 [&] { computeOrbDescriptorsInto(blurred, kps, descs); });

    // MO: all-pairs sweep vs row-band bucketing (index build included).
    FastScratch fast_scratch_r;
    std::vector<KeyPoint> rkps;
    detectFastInto(s.right, fcfg, fast_scratch_r, rkps);
    BlurScratch blur_scratch_r;
    ImageU8 rblurred;
    gaussianBlurInto(s.right, blur_scratch_r, rblurred);
    std::vector<Descriptor> rdescs;
    computeOrbDescriptorsInto(rblurred, rkps, rdescs);
    StereoConfig scfg;
    StereoRowIndex rows;
    std::vector<StereoMatch> matches;
    addKernelRow(t, "stereo MO", iters,
                 [&] {
                     stereoMatchInitial(kps, descs, rkps, rdescs, scfg);
                 },
                 [&] {
                     rows.build(rkps, kH);
                     stereoMatchBandedInto(kps, descs, rkps, rdescs, scfg,
                                           rows, matches);
                 });

    // DR: SAD refinement, interior fast path.
    std::vector<StereoMatch> m_ref = matches, m_opt = matches;
    std::vector<double> costs;
    addKernelRow(t, "stereo DR", iters,
                 [&] {
                     std::vector<StereoMatch> m = m_ref;
                     stereoRefineDisparityReference(s.left, s.right, kps, m,
                                                    scfg);
                 },
                 [&] {
                     std::vector<StereoMatch> m = m_opt;
                     stereoRefineDisparityInto(s.left, s.right, kps, m,
                                               scfg, costs);
                 });

    // TM: pyramidal LK — reference recomputes gradients per call, the
    // workspace path samples per-level cached gradient images.
    Pyramid prev_pyr(s.left, 3), next_pyr(s.next, 3);
    std::vector<Gradients> grads(prev_pyr.levels());
    FlowConfig flow;
    FlowScratch flow_scratch;
    std::vector<TemporalMatch> tracks;
    addKernelRow(t, "LK tracking (TM)", iters,
                 [&] {
                     trackLucasKanadeReference(prev_pyr, next_pyr, kps,
                                               flow);
                 },
                 [&] {
                     for (int l = 0; l < prev_pyr.levels(); ++l)
                         centralDiffGradientsInto(prev_pyr.level(l),
                                                  grads[l]);
                     trackLucasKanadeInto(prev_pyr, grads, next_pyr, kps,
                                          flow, flow_scratch, tracks);
                 });
    t.print();

    // --- end-to-end frontend ---------------------------------------------
    std::cout << "\n";
    const FrozenRow ref_ms =
        frozenRow("bench_frontend_kernels/reference_ms");
    const FrozenRow ref_speedup =
        frozenRow("bench_frontend_kernels/speedup_1_lane");
    Table e({"frontend path", "ms/frame"});
    auto runFrontendLoop = [&](const FrontendConfig &cfg, int lanes) {
        VisionFrontend fe(cfg);
        fe.setLanes(lanes);
        FrontendOutput out;
        fe.processFrameInto(s.left, s.right, out); // warm the workspace
        return timeMs(iters, [&] {
            fe.processFrameInto(s.left, s.right, out);
            fe.processFrameInto(s.next, s.right, out);
        }) / 2.0;
    };
    double fe_sse2 = -1.0;
    if (hasAvx2()) {
        setSimdTier(SimdTier::kSse2);
        fe_sse2 = runFrontendLoop(FrontendConfig{}, 1);
        setSimdTier(SimdTier::kAvx2);
    }
    const double fe_opt = runFrontendLoop(FrontendConfig{}, 1);
    const double fe_two = runFrontendLoop(FrontendConfig{}, 2);
    const int derived = availableCpus();
    const double fe_derived = runFrontendLoop(FrontendConfig{}, derived);
    e.addRow({"reference kernels (frozen)", frozenCell(ref_ms)});
    if (fe_sse2 >= 0.0)
        e.addRow({"optimized, 1 lane, sse2 tier", fmt(fe_sse2, 2)});
    e.addRow({"optimized, 1 lane (gated)", fmt(fe_opt, 2)});
    e.addRow({"optimized, 2 lanes", fmt(fe_two, 2)});
    e.addRow({"optimized, " + std::to_string(derived) +
                  " lanes (derived: available CPUs)",
              fmt(fe_derived, 2)});
    e.addRow({"kernel speedup (1 lane, frozen)",
              frozenCell(ref_speedup, 2, "x")});
    e.print();
    note(frozenNote(ref_ms));

    if (const char *ceiling = std::getenv("EDX_FRONTEND_MS_CEILING")) {
        const double limit = std::atof(ceiling);
        if (limit > 0.0 && fe_opt > limit) {
            std::cerr << "PERF REGRESSION: optimized frontend "
                      << fe_opt << " ms/frame exceeds ceiling " << limit
                      << " ms\n";
            return 1;
        }
        std::cout << "\nperf smoke: " << fe_opt << " ms/frame <= "
                  << limit << " ms ceiling\n";
    }
    return 0;
}
