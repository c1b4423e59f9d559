/**
 * @file
 * Fig. 20 (a-b): frontend acceleration results - latency split between
 * feature extraction (FE) and stereo matching (SM), and throughput with
 * and without FE/SM pipelining.
 *
 * Paper shape to reproduce: ~2.2x frontend latency speedup on both
 * platforms; SM dominates the accelerated frontend latency; FE/SM
 * pipelining raises frontend FPS well above the system FPS (44.0 vs
 * 31.9 on the car), while the unpipelined frontend is the system
 * bottleneck.
 *
 * The software baseline is reported before and after the frontend
 * kernel overhaul, so the accelerator speedup is measured against an
 * honestly optimized software pipeline. The "before" rows are the
 * retired reference-kernel frontend, frozen in BENCH_reference.json at
 * the last commit that had it and printed with that commit
 * (common/reference.hpp); the ratios against it are frozen from the
 * same trials. The accelerator model's workload inputs (pixels,
 * features, all-pairs MO candidates) do not depend on the software
 * kernels, so the modeled accelerator latency is the same either way.
 */
#include <iostream>

#include "common/accel_model.hpp"
#include "common/reference.hpp"
#include "common/runner.hpp"
#include "common/table.hpp"
#include "math/cpu_features.hpp"
#include "math/stats.hpp"

using namespace edx;
using namespace edx::bench;

namespace {

void
platformReport(Platform platform, const AcceleratorConfig &acfg,
               const std::string &paper_speedup, const std::string &key)
{
    const int frames =
        benchFrames(platform == Platform::Car ? 60 : 150);
    const FrozenRow sw_ref = frozenRow(key + "/sw_ms_before");
    const FrozenRow kernel_speedup =
        frozenRow(key + "/sw_kernel_speedup");
    const FrozenRow accel_vs_ref = frozenRow(key + "/accel_speedup_vs_before");

    // The frontend is mode-independent; any scenario exercises it.
    RunConfig cfg;
    cfg.scene = SceneType::IndoorUnknown;
    cfg.platform = platform;
    cfg.frames = frames;
    ModeRun run = runLocalization(cfg);

    // The optimized frontend once more on the SSE2 tier (when the
    // startup tier is AVX2), so the table carries one row per SIMD
    // tier of the same optimized kernels.
    double sw_sse2 = -1.0;
    if (activeSimdTier() == SimdTier::kAvx2) {
        setSimdTier(SimdTier::kSse2);
        ModeRun sse2_run = runLocalization(cfg);
        setSimdTier(SimdTier::kAvx2);
        std::vector<double> v;
        for (const FrameRecord &f : sse2_run.frames)
            v.push_back(f.res.frontendMs());
        sw_sse2 = mean(v);
    }

    FrontendAccelerator accel(acfg);
    std::vector<double> sw, fe, sm, acc_total, acc_piped;
    for (const FrameRecord &f : run.frames) {
        sw.push_back(f.res.frontendMs());
        FrontendAccelTiming t =
            accel.model(f.res.telemetry.frontend_workload);
        fe.push_back(t.feBlock());
        sm.push_back(t.smBlock());
        acc_total.push_back(t.latencyMs());
        acc_piped.push_back(1000.0 / t.pipelinedFps());
    }

    std::cout << acfg.name << "\n";
    Table t({"metric", "value"});
    t.addRow({"software frontend ms (before: reference kernels, frozen)",
              frozenCell(sw_ref, 1)});
    if (sw_sse2 >= 0.0)
        t.addRow({"software frontend ms (after: optimized, sse2 tier)",
                  fmt(sw_sse2, 1)});
    t.addRow({"software frontend ms (after: optimized)",
              fmt(mean(sw), 1)});
    t.addRow({"software kernel speedup (frozen)",
              frozenCell(kernel_speedup, 2, "x")});
    t.addRow({"accel FE block ms", fmt(mean(fe), 1)});
    t.addRow({"accel SM block ms", fmt(mean(sm), 1)});
    t.addRow({"accel frontend ms", fmt(mean(acc_total), 1)});
    t.addRow({"accel speedup vs reference sw (frozen)",
              frozenCell(accel_vs_ref, 2, "x") + " (paper: " +
                  paper_speedup + ")"});
    t.addRow({"accel speedup vs optimized sw",
              fmt(mean(sw) / mean(acc_total), 2) + "x"});
    t.addRow({"frontend FPS w/o FE||SM pipelining",
              fmt(1000.0 / mean(acc_total), 1)});
    t.addRow({"frontend FPS w/ FE||SM pipelining",
              fmt(1000.0 / mean(acc_piped), 1)});
    t.print();
    note(frozenNote(sw_ref));
    note("SM dominates the accelerated frontend (paper Sec. VII-D), "
         "which is why FE hardware is time-shared across the stereo "
         "pair.");
    std::cout << "\n";
}

} // namespace

int
main()
{
    banner("Fig. 20", "frontend latency split and pipelining throughput");
    note("SIMD tier: " + simdTierSummary());
    platformReport(Platform::Car, AcceleratorConfig::car(), "2.2x",
                   "bench_fig20_frontend/car");
    platformReport(Platform::Drone, AcceleratorConfig::drone(), "2.2x",
                   "bench_fig20_frontend/drone");
    note("Paper claims: 2.2x frontend speedup; pipelining lifts "
         "frontend FPS above the end-to-end system FPS. The paper's "
         "software baseline maps to the reference-kernel rows; the "
         "optimized rows show the software frontend after the "
         "workspace/kernel overhaul.");
    return 0;
}
