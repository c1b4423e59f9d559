#include "common/runner.hpp"

#include <cstdlib>

namespace edx {
namespace bench {

std::vector<double>
ModeRun::frontendMs() const
{
    std::vector<double> out;
    out.reserve(frames.size());
    for (const FrameRecord &f : frames)
        out.push_back(f.res.frontendMs());
    return out;
}

std::vector<double>
ModeRun::backendMs() const
{
    std::vector<double> out;
    out.reserve(frames.size());
    for (const FrameRecord &f : frames)
        out.push_back(f.res.backendMs());
    return out;
}

std::vector<double>
ModeRun::totalMs() const
{
    std::vector<double> out;
    out.reserve(frames.size());
    for (const FrameRecord &f : frames)
        out.push_back(f.res.totalMs());
    return out;
}

double
ModeRun::softwareFps() const
{
    if (frames.empty())
        return 0.0;
    double sum = 0.0;
    for (const FrameRecord &f : frames)
        sum += f.res.totalMs();
    return 1000.0 * static_cast<double>(frames.size()) / sum;
}

int
benchFrames(int dflt)
{
    const char *env = std::getenv("EDX_BENCH_FRAMES");
    if (!env)
        return dflt;
    int v = std::atoi(env);
    return v > 0 ? v : dflt;
}

bool
modeApplies(BackendMode mode, SceneType scene)
{
    // Registration needs a pre-constructed map (Fig. 2 / Fig. 3 note).
    if (mode == BackendMode::Registration)
        return scenarioTraits(scene).map_available;
    return true;
}

SessionAssets
buildAssets(const RunConfig &cfg)
{
    DatasetConfig dcfg;
    dcfg.scene = cfg.scene;
    dcfg.platform = cfg.platform;
    dcfg.frame_count = cfg.frames;
    dcfg.fps = cfg.fps;
    dcfg.seed = cfg.seed;

    SessionAssets a;
    a.dataset = std::make_unique<Dataset>(dcfg);

    a.lcfg = configForScenario(cfg.scene);
    if (cfg.force_mode)
        a.lcfg.mode = *cfg.force_mode;
    if (a.lcfg.mode != BackendMode::Vio)
        a.lcfg.use_gps = false;
    if (cfg.force_gps_off)
        a.lcfg.use_gps = false;
    if (cfg.tune)
        cfg.tune(a.lcfg);

    // Offline products: vocabulary for SLAM/registration, prior map for
    // registration. Outdoor prior maps carry the mapping-run drift that
    // degrades registration outdoors (Fig. 3d).
    if (a.lcfg.mode != BackendMode::Vio) {
        a.voc = std::make_unique<Vocabulary>(
            buildVocabulary(*a.dataset, /*frame_stride=*/10));
        if (a.lcfg.mode == BackendMode::Registration) {
            MapBuildConfig mcfg;
            mcfg.seed = cfg.seed + 1;
            if (!scenarioTraits(cfg.scene).indoor) {
                mcfg.point_noise_m = 0.35; // outdoor mapping drift
                mcfg.pose_noise_m = 0.25;
            }
            a.prior_map = std::make_unique<Map>(
                buildPriorMap(*a.dataset, *a.voc, mcfg));
        }
    }
    return a;
}

std::unique_ptr<Localizer>
SessionAssets::makeSession() const
{
    auto loc = std::make_unique<Localizer>(lcfg, dataset->rig(), vocPtr(),
                                           priorPtr());
    loc->initialize(dataset->truthAt(0), 0.0,
                    dataset->trajectory().velocityAt(0.0));
    return loc;
}

FrameInput
frameInput(const Dataset &d, int i)
{
    DatasetFrame f = d.frame(i);
    FrameInput in;
    in.frame_index = i;
    in.t = f.t;
    in.left = std::move(f.stereo.left);
    in.right = std::move(f.stereo.right);
    in.imu = d.imuBetweenFrames(i);
    in.gps = d.gpsAtFrame(i);
    return in;
}

ModeRun
runLocalization(const RunConfig &cfg)
{
    SessionAssets assets = buildAssets(cfg);
    const Dataset &dataset = *assets.dataset;
    std::unique_ptr<Localizer> loc = assets.makeSession();
    loc->setFrontendLanes(1);

    ModeRun run;
    run.scene = cfg.scene;
    run.mode = assets.lcfg.mode;
    run.platform = cfg.platform;
    run.frames.reserve(cfg.frames);

    std::vector<Pose> estimate, truth;
    for (int i = 0; i < cfg.frames; ++i) {
        FrameRecord rec;
        rec.res = loc->processFrame(frameInput(dataset, i));
        rec.truth = dataset.truthAt(i);
        estimate.push_back(rec.res.pose);
        truth.push_back(rec.truth);
        run.frames.push_back(std::move(rec));
    }
    run.error = computeTrajectoryError(estimate, truth);
    return run;
}

PipelinedRun
runPipelined(const RunConfig &cfg, const PipelineConfig &pcfg)
{
    SessionAssets assets = buildAssets(cfg);
    const Dataset &dataset = *assets.dataset;
    std::unique_ptr<Localizer> loc = assets.makeSession();

    PipelinedRun out;
    out.run.scene = cfg.scene;
    out.run.mode = assets.lcfg.mode;
    out.run.platform = cfg.platform;
    out.run.frames.reserve(cfg.frames);

    // Pre-render every frame so dataset rendering cost stays out of the
    // measured pipeline span (the camera delivers frames for free).
    std::vector<FrameInput> inputs;
    inputs.reserve(cfg.frames);
    for (int i = 0; i < cfg.frames; ++i)
        inputs.push_back(frameInput(dataset, i));

    std::vector<LocalizationResult> results(cfg.frames);
    {
        FramePipeline pipeline(*loc, pcfg);
        for (auto &in : inputs)
            pipeline.submit(std::move(in));
        pipeline.flush();
        LocalizationResult res;
        while (pipeline.poll(res))
            results[res.frame_index] = std::move(res);
        out.stats = pipeline.stats();
    }

    std::vector<Pose> estimate, truth;
    for (int i = 0; i < cfg.frames; ++i) {
        FrameRecord rec;
        rec.res = std::move(results[i]);
        rec.truth = dataset.truthAt(i);
        estimate.push_back(rec.res.pose);
        truth.push_back(rec.truth);
        out.run.frames.push_back(std::move(rec));
    }
    out.run.error = computeTrajectoryError(estimate, truth);
    return out;
}

} // namespace bench
} // namespace edx
