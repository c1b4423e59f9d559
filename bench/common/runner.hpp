/**
 * @file
 * Shared bench harness: runs the localizer over synthetic datasets and
 * collects the per-frame records every table/figure bench consumes.
 *
 * All benches measure the *software* baseline by wall clock (the
 * LocalizationResult timing fields are real measurements) and derive
 * accelerated numbers from the hw models (see accel_model.hpp), exactly
 * the substitution documented in DESIGN.md Sec. 2.
 */
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluation.hpp"
#include "core/localizer.hpp"
#include "runtime/pipeline.hpp"
#include "sim/dataset.hpp"

namespace edx {
namespace bench {

/** One localized frame with its ground truth. */
struct FrameRecord
{
    LocalizationResult res;
    Pose truth;
};

/** A full localization run in one backend mode. */
struct ModeRun
{
    SceneType scene = SceneType::IndoorUnknown;
    BackendMode mode = BackendMode::Slam;
    Platform platform = Platform::Drone;
    std::vector<FrameRecord> frames;
    TrajectoryError error;

    std::vector<double> frontendMs() const;
    std::vector<double> backendMs() const;
    std::vector<double> totalMs() const;

    /** Mean achieved software frame rate, frames/s. */
    double softwareFps() const;
};

/** Run parameters. */
struct RunConfig
{
    SceneType scene = SceneType::IndoorUnknown;
    Platform platform = Platform::Drone;
    int frames = 240;
    double fps = 10.0;
    uint64_t seed = 42;

    /**
     * Force a backend mode other than the scenario's preferred one
     * (Fig. 3 runs every applicable algorithm in every scenario).
     */
    std::optional<BackendMode> force_mode;

    /** Disable GPS fusion even when the scenario provides GPS. */
    bool force_gps_off = false;

    /**
     * Optional hook over the derived LocalizerConfig (e.g. denser
     * keyframing for backend-heavy pipeline workloads).
     */
    std::function<void(LocalizerConfig &)> tune;
};

/**
 * Runs the localizer per @p cfg. Builds the vocabulary and - for the
 * registration mode - the prior map on the fly. Registration map
 * quality follows the scenario (outdoor maps carry more drift noise;
 * see core/evaluation.hpp). The frontend runs on one lane, so every
 * timing is a one-core software baseline whatever the host's width.
 */
ModeRun runLocalization(const RunConfig &cfg);

/**
 * The offline products of one scenario run: the dataset plus the
 * assets every localization session of that scenario shares read-only
 * (trained vocabulary, prior map). Multi-session benches build these
 * once and serve N sessions over them.
 */
struct SessionAssets
{
    std::unique_ptr<Dataset> dataset;
    LocalizerConfig lcfg;
    // Heap-held so sessions' borrowed pointers stay valid even if the
    // SessionAssets object itself is moved around.
    std::unique_ptr<Vocabulary> voc;
    std::unique_ptr<Map> prior_map;

    const Vocabulary *vocPtr() const
    {
        return lcfg.mode != BackendMode::Vio ? voc.get() : nullptr;
    }
    const Map *priorPtr() const { return prior_map.get(); }

    /** A fresh initialized session over the shared assets. */
    std::unique_ptr<Localizer> makeSession() const;
};

/** Builds the dataset + shared assets for @p cfg. */
SessionAssets buildAssets(const RunConfig &cfg);

/** Owned-image input packet for frame @p i of @p d. */
FrameInput frameInput(const Dataset &d, int i);

/** One run through the staged runtime (runtime/pipeline.hpp). */
struct PipelinedRun
{
    ModeRun run;         //!< per-frame records, in submission order
    PipelineStats stats; //!< measured stage/wall accounting
};

/**
 * Runs the localizer through a FramePipeline with the given topology
 * (pcfg.cuts = {} sequential, {2} overlapped frontend/backend).
 */
PipelinedRun runPipelined(const RunConfig &cfg,
                          const PipelineConfig &pcfg);

/**
 * Frame-count helper: returns @p dflt unless the EDX_BENCH_FRAMES
 * environment variable overrides it (used to shorten CI runs or extend
 * characterization runs toward the paper's 1800 frames).
 */
int benchFrames(int dflt);

/** True when a backend mode applies in a scenario (Fig. 2). */
bool modeApplies(BackendMode mode, SceneType scene);

} // namespace bench
} // namespace edx
