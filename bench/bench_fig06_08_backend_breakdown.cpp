/**
 * @file
 * Figs. 6-8: latency breakdown inside each backend mode.
 *
 * Paper shape to reproduce: a single kernel dominates each mode -
 * Projection in registration, Kalman gain (with covariance/QR close
 * behind) in VIO, and the Solver + Marginalization pair in SLAM - and
 * those same kernels drive the variation (Sec. IV-B).
 *
 * Each figure ends with the software backend before and after the
 * backend overhaul. The "before" number and its ratio are the retired
 * reference-kernel backend, frozen in BENCH_reference.json at the last
 * commit that had it and printed with that commit
 * (common/reference.hpp); the ratio is frozen from the same trials.
 */
#include <iostream>

#include "common/reference.hpp"
#include "common/runner.hpp"
#include "common/table.hpp"
#include "math/cpu_features.hpp"
#include "math/stats.hpp"

using namespace edx;
using namespace edx::bench;

namespace {

void
printBreakdown(const std::string &title,
               const std::vector<std::string> &names,
               const std::vector<std::vector<double>> &series,
               const std::string &paper_note)
{
    std::cout << title << "\n";
    Table t({"stage", "mean ms", "share %", "RSD %"});
    double total = 0.0;
    for (const auto &s : series)
        total += mean(s);
    for (size_t i = 0; i < names.size(); ++i) {
        double m = mean(series[i]);
        t.addRow({names[i], fmt(m, 3),
                  fmt(total > 0 ? 100.0 * m / total : 0.0, 1),
                  fmt(rsdPercent(series[i]), 1)});
    }
    t.print();
    note(paper_note);
}

/**
 * Prints the before/after software-backend lines: the frozen "before"
 * row @p key of BENCH_reference.json with its frozen ratio, then the
 * live optimized backend (the overhaul's tracked speedup, like fig20
 * does for the frontend).
 */
void
printBeforeAfter(const RunConfig &cfg, const ModeRun &opt_run,
                 const std::string &key)
{
    const FrozenRow ref_ms = frozenRow(key + "/before_ms");
    const FrozenRow ref_x = frozenRow(key + "/before_over_after");
    const double opt_ms = mean(opt_run.backendMs());
    // Per-tier "after" number (when the startup tier is AVX2): the
    // optimized kernels once more with the dispatch forced to SSE2.
    double sse2_ms = -1.0;
    if (activeSimdTier() == SimdTier::kAvx2) {
        setSimdTier(SimdTier::kSse2);
        ModeRun sse2_run = runLocalization(cfg);
        setSimdTier(SimdTier::kAvx2);
        sse2_ms = mean(sse2_run.backendMs());
    }
    std::cout << "  software backend before the overhaul: "
              << frozenCell(ref_ms) << " ms, "
              << frozenCell(ref_x, 2, "x") << " over that commit's after run\n"
              << "  software backend after the overhaul: ";
    if (sse2_ms >= 0.0)
        std::cout << fmt(sse2_ms, 2) << " (sse2 tier) -> ";
    std::cout << fmt(opt_ms, 2) << " ms\n";
    note(frozenNote(ref_ms));
    std::cout << "\n";
}

} // namespace

int
main()
{
    banner("Figs. 6-8", "per-kernel latency breakdown in each backend");
    note("SIMD tier: " + simdTierSummary());

    const int frames = benchFrames(180);

    { // Fig. 6: registration backend.
        RunConfig cfg;
        cfg.scene = SceneType::IndoorKnown;
        cfg.frames = frames;
        cfg.force_mode = BackendMode::Registration;
        ModeRun run = runLocalization(cfg);
        std::vector<std::vector<double>> s(4);
        for (const FrameRecord &f : run.frames) {
            s[0].push_back(f.res.telemetry.tracking.update_ms);
            s[1].push_back(f.res.telemetry.tracking.projection_ms);
            s[2].push_back(f.res.telemetry.tracking.match_ms);
            s[3].push_back(f.res.telemetry.tracking.pose_opt_ms);
        }
        printBreakdown("Fig. 6 - registration backend",
                       {"Update", "Projection", "Match", "PoseOpt"}, s,
                       "Paper: Projection is the biggest contributor "
                       "and drives the variation.");
        printBeforeAfter(cfg, run,
                         "bench_fig06_08_backend_breakdown/fig6");
    }

    { // Fig. 7: VIO backend.
        RunConfig cfg;
        cfg.scene = SceneType::OutdoorUnknown;
        cfg.frames = frames;
        ModeRun run = runLocalization(cfg);
        std::vector<std::vector<double>> s(6);
        for (const FrameRecord &f : run.frames) {
            s[0].push_back(f.res.telemetry.msckf.imu_ms);
            s[1].push_back(f.res.telemetry.msckf.cov_ms);
            s[2].push_back(f.res.telemetry.msckf.jacobian_ms);
            s[3].push_back(f.res.telemetry.msckf.qr_ms);
            s[4].push_back(f.res.telemetry.msckf.kalman_gain_ms);
            s[5].push_back(f.res.telemetry.msckf.update_ms + f.res.telemetry.fusion_ms);
        }
        printBreakdown(
            "Fig. 7 - VIO backend",
            {"IMU Proc.", "Cov.", "Jacobian", "QR", "Kalman Gain",
             "Update+Fusion"},
            s,
            "Paper: Kalman gain is the biggest contributor (~33% of "
            "VIO backend) and drives the variation.");
        printBeforeAfter(cfg, run,
                         "bench_fig06_08_backend_breakdown/fig7");
    }

    { // Fig. 8: SLAM backend.
        RunConfig cfg;
        cfg.scene = SceneType::IndoorUnknown;
        cfg.frames = frames;
        ModeRun run = runLocalization(cfg);
        std::vector<std::vector<double>> s(3);
        for (const FrameRecord &f : run.frames) {
            s[0].push_back(f.res.telemetry.mapping.solver_ms +
                           f.res.telemetry.tracking.total());
            s[1].push_back(f.res.telemetry.mapping.marginalization_ms);
            // Fig. 8's "Others" bucket = association/triangulation +
            // loop detection (loop_ms is tracked apart for the stage
            // placement planner, not as a new paper category).
            s[2].push_back(f.res.telemetry.mapping.others_ms +
                           f.res.telemetry.mapping.loop_ms);
        }
        printBreakdown("Fig. 8 - SLAM backend",
                       {"Solver(+tracking)", "Marginalization", "Others"},
                       s,
                       "Paper: the Solver dominates the mean; "
                       "Marginalization dominates the variation.");
        printBeforeAfter(cfg, run,
                         "bench_fig06_08_backend_breakdown/fig8");
    }
    return 0;
}
