/**
 * @file
 * Fig. 5: average latency split between frontend and backend per mode,
 * plus the relative standard deviation (RSD) of each half.
 *
 * Paper shape to reproduce: the frontend dominates in every mode (55%
 * in SLAM up to 83% in VIO); the backend has the higher RSD (most
 * pronounced in VIO: frontend 47.3% vs backend 81.1%).
 *
 * Each mode runs through the optimized workspace frontend. The
 * "before" columns are the retired reference-kernel frontend (the
 * straightforward per-call formulation of the same algorithms), frozen
 * in BENCH_reference.json at the last commit that had it and printed
 * with that commit (common/reference.hpp), so the figure still shows
 * how far the software kernel overhaul moved the frontend share.
 */
#include <iostream>

#include "common/reference.hpp"
#include "common/runner.hpp"
#include "common/table.hpp"
#include "math/stats.hpp"

using namespace edx;
using namespace edx::bench;

namespace {

struct SplitStats
{
    double fe_ms = 0.0;
    double be_ms = 0.0;
    double share = 0.0;
    double fe_rsd = 0.0;
    double be_rsd = 0.0;
};

SplitStats
runSplit(const RunConfig &cfg)
{
    ModeRun run = runLocalization(cfg);
    std::vector<double> fe = run.frontendMs();
    std::vector<double> be = run.backendMs();
    SplitStats s;
    s.fe_ms = mean(fe);
    s.be_ms = mean(be);
    s.share = 100.0 * s.fe_ms / (s.fe_ms + s.be_ms);
    s.fe_rsd = rsdPercent(fe);
    s.be_rsd = rsdPercent(be);
    return s;
}

} // namespace

int
main()
{
    banner("Fig. 5",
           "frontend/backend latency split and RSD per backend mode");

    const int frames = benchFrames(180);
    struct Case
    {
        SceneType scene;
        BackendMode mode;
        const char *paper_fe_share;
        const char *key; //!< row prefix in BENCH_reference.json
    };
    const std::vector<Case> cases = {
        {SceneType::IndoorKnown, BackendMode::Registration, "~70%",
         "bench_fig05_latency_split/registration"},
        {SceneType::OutdoorUnknown, BackendMode::Vio, "83%",
         "bench_fig05_latency_split/vio"},
        {SceneType::IndoorUnknown, BackendMode::Slam, "55%",
         "bench_fig05_latency_split/slam"},
    };

    Table t({"mode", "FE ms (before)", "FE ms (after)", "backend ms",
             "FE share (before)", "FE share (after)", "FE RSD %",
             "BE RSD %"});
    std::string frozen_note;
    for (const Case &c : cases) {
        const std::string key = c.key;
        const FrozenRow before_ms = frozenRow(key + "/fe_ms_before");
        const FrozenRow before_share =
            frozenRow(key + "/fe_share_before");
        frozen_note = frozenNote(before_ms);

        RunConfig cfg;
        cfg.scene = c.scene;
        cfg.frames = frames;
        cfg.force_mode = c.mode;
        SplitStats after = runSplit(cfg);

        t.addRow({modeName(c.mode), frozenCell(before_ms),
                  fmt(after.fe_ms), fmt(after.be_ms),
                  frozenCell(before_share, 1, " %") + " (paper: " +
                      c.paper_fe_share + ")",
                  fmt(after.share, 1) + " %", fmt(after.fe_rsd, 1),
                  fmt(after.be_rsd, 1)});
    }
    t.print();
    note(frozen_note);

    note("Paper claims: frontend dominates latency in all modes "
         "(55-83%); backend RSD exceeds frontend RSD. The 'before' "
         "columns are the frozen reference-kernel frontend; 'after' is "
         "the optimized workspace frontend.");
    return 0;
}
