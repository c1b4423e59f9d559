/**
 * @file
 * Fig. 21 (a-b): backend latency and latency variation per mode,
 * software baseline vs the accelerated backend (kernel offloading under
 * the runtime scheduler).
 *
 * Paper shape to reproduce (EDX-CAR): registration backend -49.4%
 * (projection kernel itself -95.3%), VIO backend -16.3% (Kalman gain
 * 2.0x), SLAM backend -30.2% (marginalization 2.4x); SD drops in every
 * mode (e.g., 9.6 -> 4.0 ms registration, 21.4 -> 10.9 ms SLAM).
 *
 * Since the backend linear-algebra overhaul the software baseline is
 * reported before and after, like fig20 does for the frontend, so the
 * accelerator speedup is measured against an honestly optimized
 * software backend. The "before" columns (sw BE ref, sw x, ref SD) are
 * the retired reference-kernel backend, frozen in BENCH_reference.json
 * at the last commit that had it and printed with that commit
 * (common/reference.hpp); sw x is frozen from the same trials. A
 * dense-keyframing SLAM row tracks the backend-bound showcase the
 * ROADMAP calls out.
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

struct Case
{
    std::string name;
    std::string key; //!< row name in BENCH_reference.json
    SceneType scene;
    BackendMode mode;
    std::function<void(LocalizerConfig &)> tune;
};

void
platformReport(Platform platform, const AcceleratorConfig &acfg,
               const std::string &key)
{
    const int frames =
        benchFrames(platform == Platform::Car ? 60 : 150);
    const std::vector<Case> cases = {
        {"registration", "registration", SceneType::IndoorKnown,
         BackendMode::Registration, nullptr},
        {"vio", "vio", SceneType::OutdoorUnknown, BackendMode::Vio,
         nullptr},
        {"slam", "slam", SceneType::IndoorUnknown, BackendMode::Slam,
         nullptr},
        {"slam (dense KF)", "slam_dense_kf", SceneType::IndoorUnknown,
         BackendMode::Slam,
         [](LocalizerConfig &lc) {
             lc.mapping.keyframe_interval = 1;
             lc.mapping.window_size = 16;
         }},
    };

    std::cout << acfg.name << "\n";
    Table t({"mode", "sw BE ref", "sw BE sse2", "sw BE opt", "sw x",
             "edx BE ms", "BE cut %", "kernel x", "ref SD", "opt SD",
             "edx SD"});
    std::string frozen_note;
    for (const Case &c : cases) {
        const std::string row = key + "/" + c.key;
        const FrozenRow ref_ms = frozenRow(row + "/sw_be_ref_ms");
        const FrozenRow ref_x = frozenRow(row + "/sw_x");
        const FrozenRow ref_sd = frozenRow(row + "/ref_sd_ms");
        frozen_note = frozenNote(ref_ms);

        RunConfig cfg;
        cfg.scene = c.scene;
        cfg.platform = platform;
        cfg.frames = frames;
        cfg.force_mode = c.mode;
        cfg.tune = c.tune;
        SystemRun sys = modelSystem(runLocalization(cfg), acfg);

        // One more optimized run on the SSE2 tier (when AVX2 is the
        // startup tier): the per-tier software baseline column.
        double sse2_ms = -1.0;
        if (activeSimdTier() == SimdTier::kAvx2) {
            setSimdTier(SimdTier::kSse2);
            ModeRun sse2_run = runLocalization(cfg);
            setSimdTier(SimdTier::kAvx2);
            sse2_ms = mean(sse2_run.backendMs());
        }

        std::vector<double> opt = sys.baseBackends();
        std::vector<double> acc = sys.accBackends();

        // Kernel-only speedup over the offloaded frames.
        double k_cpu = 0.0, k_acc = 0.0;
        for (const SystemFrame &f : sys.frames) {
            if (f.offloaded) {
                k_cpu += f.kernel_cpu_ms;
                k_acc += f.kernel_accel_ms;
            }
        }
        t.addRow({c.name, frozenCell(ref_ms),
                  sse2_ms < 0.0 ? "-" : fmt(sse2_ms, 2), fmt(mean(opt), 2),
                  frozenCell(ref_x, 2, "x"), fmt(mean(acc), 2),
                  fmt(100.0 * (1.0 - mean(acc) / mean(opt)), 1),
                  k_acc > 0 ? fmt(k_cpu / k_acc, 1) + "x" : "-",
                  frozenCell(ref_sd), fmt(stddev(opt), 2),
                  fmt(stddev(acc), 2)});
    }
    t.print();
    note("sw BE ref/sse2/opt = software backend before the overhaul, "
         "and after it on the SSE2 and startup SIMD tiers (1 core); "
         "sw x = ref over opt of the frozen trials; edx = accelerated "
         "path modeled over the optimized run.");
    note(frozen_note);
    std::cout << "\n";
}

} // namespace

int
main()
{
    banner("Fig. 21", "backend latency + variation, baseline vs EUDOXUS");
    note("SIMD tier: " + simdTierSummary());
    platformReport(Platform::Car, AcceleratorConfig::car(),
                   "bench_fig21_backend/car");
    platformReport(Platform::Drone, AcceleratorConfig::drone(),
                   "bench_fig21_backend/drone");
    note("Paper claims (car): backend latency cut 16-49% per mode; "
         "kernels accelerate 2.0-2.4x (projection ~20x); SD drops in "
         "every mode. The dense-keyframing SLAM row is the ROADMAP's "
         "backend-bound showcase: its frozen sw x is what the software "
         "overhaul alone delivered there.");
    return 0;
}
