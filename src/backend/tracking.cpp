#include "backend/tracking.hpp"

#include "math/blas.hpp"
#include "math/matx.hpp"
#include "runtime/solve_hub.hpp"
#include "runtime/telemetry.hpp"

namespace edx {

Tracker::Tracker(const Map *map, const Vocabulary *vocabulary,
                 const CameraIntrinsics &cam, const Pose &body_from_camera,
                 const TrackingConfig &cfg)
    : map_(map), voc_(vocabulary), cam_(cam),
      body_from_camera_(body_from_camera), cfg_(cfg)
{
}

TrackingResult
Tracker::track(const FrontendOutput &frame,
               const std::optional<Pose> &prediction)
{
    TrackingResult res;

    // --- Update stage: BoW conversion (every frame, so relocalization
    // and keyframe-database maintenance stay ready) and, when no pose
    // prediction is available, the place-recognition query.
    Pose initial;
    bool have_initial = false;
    {
        StageTimer timer(res.timing.update_ms);
        BowVector bow;
        if (voc_ && voc_->trained())
            bow = voc_->transform(frame.descriptors);
        if (prediction) {
            initial = *prediction;
            have_initial = true;
        }
        if (!have_initial && !bow.empty()) {
            auto place = map_->queryPlace(bow);
            if (place && place->score >= cfg_.min_place_score) {
                initial = map_->keyframes()[place->keyframe_id].pose;
                have_initial = true;
                res.relocalized = true;
            }
        }
    }
    if (!have_initial)
        return res; // lost: no prediction and no place match

    // --- Projection stage: the C(3x4) x X(4xM) kernel of Tbl. I,
    // executed literally as a matrix product over the homogeneous
    // coordinates of every map point (this is the formulation the
    // backend accelerator implements), followed by dehomogenization and
    // the in-image/depth gates.
    StageTimer projection_timer(res.timing.projection_ms);
    Pose camera_from_world =
        (initial * body_from_camera_).inverse();
    const auto &pts = map_->points();
    const int m = static_cast<int>(pts.size());

    // C = K [R | t].
    const Mat34 rt = camera_from_world.matrix34();
    const Mat3 k = cam_.matrix();
    c_.resize(3, 4);
    for (int r = 0; r < 3; ++r) {
        for (int col = 0; col < 4; ++col) {
            double v = 0.0;
            for (int j = 0; j < 3; ++j)
                v += k(r, j) * rt(j, col);
            c_(r, col) = v;
        }
    }

    if (hub_) {
        // Cross-session batched projection: sessions sharing this map
        // group into one stacked product over a single X build (cached
        // across batches when the map is immutable).
        hub_->project(map_, static_map_, c_, f_);
    } else {
        // Row-per-point layout: F = X(Mx4) · Cᵀ(4x3) through the
        // transpose-free kernel — the build, the product, and the
        // dehomogenization all stream sequentially, and the buffers
        // persist across frames. For an immutable prior map the point
        // matrix itself is built only once (points are append-only
        // there, so the count is the full validity key).
        if (!static_map_ || cached_points_ != m) {
            x_rows_.resizeNoInit(m, 4); // every row written below
            for (int i = 0; i < m; ++i) {
                double *row =
                    x_rows_.data() + static_cast<size_t>(i) * 4;
                row[0] = pts[i].position[0];
                row[1] = pts[i].position[1];
                row[2] = pts[i].position[2];
                row[3] = 1.0;
            }
            cached_points_ = static_map_ ? m : -1;
        }
        multiplyTransposedInto(x_rows_, c_, f_); // M x 3
    }

    struct Projected
    {
        int point_id;
        KeyPoint kp; //!< projected pixel position (for windowed match)
    };
    std::vector<Projected> projected;
    std::vector<Descriptor> projected_desc;
    projected.reserve(m / 4 + 1);
    for (int i = 0; i < m; ++i) {
        const double *fi = f_.data() + static_cast<size_t>(i) * 3;
        const double z = fi[2];
        if (z <= 1e-6)
            continue;
        Vec2 px{fi[0] / z, fi[1] / z};
        if (!cam_.inImage(px, 4.0))
            continue;
        Projected pr;
        pr.point_id = i;
        pr.kp.x = static_cast<float>(px[0]);
        pr.kp.y = static_cast<float>(px[1]);
        projected.push_back(pr);
        projected_desc.push_back(pts[i].descriptor);
    }
    res.workload.map_points_projected = m;
    projection_timer.stop();

    // --- Match stage: windowed descriptor association.
    StageTimer match_timer(res.timing.match_ms);
    std::vector<KeyPoint> proj_kps;
    proj_kps.reserve(projected.size());
    for (const Projected &p : projected)
        proj_kps.push_back(p.kp);
    std::vector<Match> matches = matchDescriptorsWindowed(
        projected_desc, proj_kps, frame.descriptors, frame.keypoints,
        cfg_.match_radius_px, cfg_.match);
    res.workload.candidate_matches = static_cast<int>(matches.size());
    match_timer.stop();

    if (static_cast<int>(matches.size()) < cfg_.min_matches)
        return res;

    // --- PoseOpt stage.
    StageTimer pose_opt_timer(res.timing.pose_opt_ms);
    std::vector<PoseObservation> obs;
    obs.reserve(matches.size());
    for (const Match &m : matches) {
        const KeyPoint &kp = frame.keypoints[m.train_index];
        obs.push_back({pts[projected[m.query_index].point_id].position,
                       Vec2{kp.x, kp.y}});
    }
    res.workload.pose_opt_points = static_cast<int>(obs.size());
    PoseOptResult opt = optimizePose(initial, obs, cam_,
                                     body_from_camera_, cfg_.pose_opt);
    pose_opt_timer.stop();

    if (!opt.converged || opt.inliers < cfg_.min_matches / 2)
        return res;
    res.ok = true;
    res.pose = opt.pose;
    res.inliers = opt.inliers;
    return res;
}

} // namespace edx
