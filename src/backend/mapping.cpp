#include "backend/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "features/matcher.hpp"
#include "math/decomp.hpp"
#include "runtime/solve_hub.hpp"
#include "runtime/telemetry.hpp"

namespace edx {

namespace {

/** Reprojection residual and Jacobians of one observation. */
struct ObsLinearization
{
    Vec2 r;
    Mat26 j_pose;
    Mat23 j_lm;
    double weight = 1.0;
    bool valid = false;
};

ObsLinearization
linearizeObs(const Pose &world_from_body, const Vec3 &x_world,
             const Vec2 &z, const StereoRig &rig, double huber)
{
    ObsLinearization out;
    const Mat3 r_bw = world_from_body.rotation.inverse().toRotationMatrix();
    const Mat3 r_cb =
        rig.body_from_camera.rotation.inverse().toRotationMatrix();
    const Vec3 u = r_bw * (x_world - world_from_body.translation);
    const Vec3 p_c = r_cb * (u - rig.body_from_camera.translation);
    auto px = rig.cam.project(p_c);
    if (!px)
        return out;
    out.r = Vec2{(*px)[0] - z[0], (*px)[1] - z[1]};
    double rn = out.r.norm();
    out.weight = (rn <= huber) ? 1.0 : huber / rn;

    Mat23 jp = rig.cam.projectJacobian(p_c);
    Mat23 j_theta = jp * (r_cb * skew(u));
    Mat23 j_t = jp * (r_cb * r_bw * (-1.0));
    for (int i = 0; i < 2; ++i)
        for (int k = 0; k < 3; ++k) {
            out.j_pose(i, k) = j_theta(i, k);
            out.j_pose(i, k + 3) = j_t(i, k);
        }
    out.j_lm = jp * (r_cb * r_bw);
    out.valid = true;
    return out;
}

/** Applies a body-frame right perturbation (dtheta, dt world). */
Pose
applyPoseDelta(const Pose &pose, const Vec3 &dtheta, const Vec3 &dt)
{
    return Pose((pose.rotation * Quat::exp(dtheta)).normalized(),
                pose.translation + pose.rotation.rotate(dt));
}

} // namespace

Mapper::Mapper(const StereoRig &rig, const Vocabulary *vocabulary,
               const MappingConfig &cfg)
    : rig_(rig), voc_(vocabulary), cfg_(cfg)
{
}

int
Mapper::insertKeyframe(const FrontendOutput &frame, const Pose &pose)
{
    Keyframe kf;
    kf.pose = pose;
    kf.keypoints = frame.keypoints;
    kf.descriptors = frame.descriptors;
    kf.map_point_ids.assign(frame.keypoints.size(), -1);
    if (voc_ && voc_->trained())
        kf.bow = voc_->transform(frame.descriptors);

    // Associate current key points to window landmarks by projection.
    Pose camera_from_world = (pose * rig_.body_from_camera).inverse();
    std::vector<int> candidate_ids;
    std::vector<KeyPoint> candidate_kps;
    std::vector<Descriptor> candidate_descs;
    std::unordered_set<int> window_landmarks;
    for (int kf_id : window_)
        for (int lm :
             map_.keyframes()[kf_id].map_point_ids)
            if (lm >= 0)
                window_landmarks.insert(lm);
    for (int lm : window_landmarks) {
        const MapPoint &mp = map_.points()[lm];
        Vec3 p_c = camera_from_world.apply(mp.position);
        auto px = rig_.cam.project(p_c);
        if (!px || !rig_.cam.inImage(*px, 4.0))
            continue;
        candidate_ids.push_back(lm);
        KeyPoint kp;
        kp.x = static_cast<float>((*px)[0]);
        kp.y = static_cast<float>((*px)[1]);
        candidate_kps.push_back(kp);
        candidate_descs.push_back(mp.descriptor);
    }
    MatchConfig mc;
    mc.cross_check = false;
    std::vector<Match> matches = matchDescriptorsWindowed(
        candidate_descs, candidate_kps, frame.descriptors,
        frame.keypoints, cfg_.match_radius_px, mc);
    for (const Match &m : matches) {
        if (kf.map_point_ids[m.train_index] >= 0)
            continue;
        kf.map_point_ids[m.train_index] = candidate_ids[m.query_index];
    }

    // Triangulate new landmarks from unmatched stereo key points.
    Pose world_from_camera = pose * rig_.body_from_camera;
    for (const StereoMatch &s : frame.stereo) {
        int k = s.left_index;
        if (k < 0 || kf.map_point_ids[k] >= 0)
            continue;
        auto p_cam = rig_.triangulate(
            Vec2{frame.keypoints[k].x, frame.keypoints[k].y},
            s.disparity);
        if (!p_cam)
            continue;
        MapPoint mp;
        mp.position = world_from_camera.apply(*p_cam);
        mp.descriptor = frame.descriptors[k];
        mp.observations = 0;
        kf.map_point_ids[k] = map_.addPoint(mp);
    }

    int kf_id = map_.addKeyframe(std::move(kf));
    window_.push_back(kf_id);
    ++frames_as_keyframes_;

    // Record observations.
    const Keyframe &stored = map_.keyframes()[kf_id];
    for (int k = 0; k < static_cast<int>(stored.map_point_ids.size());
         ++k) {
        int lm = stored.map_point_ids[k];
        if (lm < 0)
            continue;
        observations_[lm].push_back({kf_id, k});
        ++map_.points()[lm].observations;
    }
    return kf_id;
}

void
Mapper::localBundleAdjustment(MappingTiming &timing,
                              MappingWorkload &workload)
{
    StageTimer solver_timer(timing.solver_ms);
    if (window_.size() < 2)
        return;

    // Parameter bookkeeping: window poses (first fixed as gauge) and
    // landmarks with enough window observations.
    std::unordered_map<int, int> pose_index; // kf_id -> param slot
    for (size_t i = 1; i < window_.size(); ++i)
        pose_index[window_[i]] = static_cast<int>(i) - 1;
    const int np = static_cast<int>(window_.size()) - 1;

    std::unordered_set<int> window_set(window_.begin(), window_.end());
    std::vector<int> lms;
    std::unordered_map<int, int> lm_index;
    for (int kf_id : window_) {
        for (int lm : map_.keyframes()[kf_id].map_point_ids) {
            if (lm < 0 || lm_index.count(lm))
                continue;
            int in_window = 0;
            for (const LandmarkObs &o : observations_[lm])
                if (window_set.count(o.keyframe_id))
                    ++in_window;
            if (in_window >= cfg_.min_obs_for_ba) {
                lm_index[lm] = static_cast<int>(lms.size());
                lms.push_back(lm);
            }
        }
    }
    const int nl = static_cast<int>(lms.size());
    workload.window_keyframes = static_cast<int>(window_.size());
    workload.window_landmarks = nl;
    if (np == 0 || nl == 0)
        return;

    // Observation list restricted to the window.
    struct BaObs
    {
        int lm_slot;
        int pose_slot; //!< -1 for the fixed gauge pose
        int kf_id;
        Vec2 z;
    };
    std::vector<BaObs> obs;
    for (int l = 0; l < nl; ++l) {
        for (const LandmarkObs &o : observations_[lms[l]]) {
            if (!window_set.count(o.keyframe_id))
                continue;
            const Keyframe &kf = map_.keyframes()[o.keyframe_id];
            const KeyPoint &kp = kf.keypoints[o.keypoint_index];
            int ps = pose_index.count(o.keyframe_id)
                         ? pose_index[o.keyframe_id]
                         : -1;
            obs.push_back({l, ps, o.keyframe_id, Vec2{kp.x, kp.y}});
        }
    }
    workload.residual_count = static_cast<int>(obs.size());

    // Working copies of parameters.
    std::vector<Pose> poses(window_.size());
    for (size_t i = 0; i < window_.size(); ++i)
        poses[i] = map_.keyframes()[window_[i]].pose;
    std::vector<Vec3> points(nl);
    for (int l = 0; l < nl; ++l)
        points[l] = map_.points()[lms[l]].position;

    auto poseOf = [&](int kf_id) -> const Pose & {
        for (size_t i = 0; i < window_.size(); ++i)
            if (window_[i] == kf_id)
                return poses[i];
        return poses[0];
    };

    auto evalCost = [&]() {
        double cost = 0.0;
        for (const BaObs &o : obs) {
            ObsLinearization lin =
                linearizeObs(poseOf(o.kf_id), points[o.lm_slot], o.z,
                             rig_, cfg_.huber_px);
            if (!lin.valid) {
                cost += cfg_.huber_px * cfg_.huber_px;
                continue;
            }
            double rn = lin.r.norm();
            cost += (rn <= cfg_.huber_px)
                        ? 0.5 * rn * rn
                        : cfg_.huber_px * (rn - 0.5 * cfg_.huber_px);
        }
        return cost;
    };

    double lambda = 1e-3;
    double cost = evalCost();

    // Block-sparse W storage: each landmark keeps only the 6x3 coupling
    // blocks of the poses that actually observe it (a dense Hpl would be
    // almost entirely structural zeros).
    struct WBlock
    {
        int pose_slot;
        Mat<6, 3> w;
    };
    std::vector<std::vector<WBlock>> lm_blocks(nl);
    std::vector<Mat<6, 3>> tbuf;

    for (int it = 0; it < cfg_.lm_iterations; ++it) {
        // Build the normal equations in Schur form.
        MatX hpp(6 * np, 6 * np);
        for (auto &blocks : lm_blocks)
            blocks.clear();
        std::vector<Mat3> hll(nl);
        VecX bp(6 * np), bl(3 * nl);

        for (const BaObs &o : obs) {
            ObsLinearization lin =
                linearizeObs(poseOf(o.kf_id), points[o.lm_slot], o.z,
                             rig_, cfg_.huber_px);
            if (!lin.valid)
                continue;
            const double w = lin.weight;
            // Landmark block.
            Mat3 jtj_l = Mat3::zero();
            Vec3 jtr_l = Vec3::zero();
            for (int a = 0; a < 3; ++a) {
                for (int b = 0; b < 3; ++b)
                    jtj_l(a, b) = w * (lin.j_lm(0, a) * lin.j_lm(0, b) +
                                       lin.j_lm(1, a) * lin.j_lm(1, b));
                jtr_l[a] = w * (lin.j_lm(0, a) * lin.r[0] +
                                lin.j_lm(1, a) * lin.r[1]);
            }
            hll[o.lm_slot] += jtj_l;
            for (int a = 0; a < 3; ++a)
                bl[3 * o.lm_slot + a] += jtr_l[a];

            if (o.pose_slot >= 0) {
                const int pc = 6 * o.pose_slot;
                for (int a = 0; a < 6; ++a) {
                    for (int b = 0; b < 6; ++b)
                        hpp(pc + a, pc + b) +=
                            w * (lin.j_pose(0, a) * lin.j_pose(0, b) +
                                 lin.j_pose(1, a) * lin.j_pose(1, b));
                    bp[pc + a] += w * (lin.j_pose(0, a) * lin.r[0] +
                                       lin.j_pose(1, a) * lin.r[1]);
                }
                Mat<6, 3> wblk;
                for (int a = 0; a < 6; ++a)
                    for (int b = 0; b < 3; ++b)
                        wblk(a, b) =
                            w * (lin.j_pose(0, a) * lin.j_lm(0, b) +
                                 lin.j_pose(1, a) * lin.j_lm(1, b));
                auto &blocks = lm_blocks[o.lm_slot];
                bool merged = false;
                for (WBlock &e : blocks) {
                    if (e.pose_slot == o.pose_slot) {
                        e.w += wblk;
                        merged = true;
                        break;
                    }
                }
                if (!merged)
                    blocks.push_back({o.pose_slot, wblk});
            }
        }

        // Marginalization prior on its keyframe (if still in window).
        if (prior_kf_ && pose_index.count(*prior_kf_)) {
            const int pc = 6 * pose_index[*prior_kf_];
            for (int a = 0; a < 6; ++a) {
                for (int b = 0; b < 6; ++b)
                    hpp(pc + a, pc + b) += prior_h_(a, b);
                bp[pc + a] += prior_b_[a];
            }
        }

        // LM damping.
        for (int i = 0; i < 6 * np; ++i)
            hpp(i, i) *= (1.0 + lambda);
        for (int l = 0; l < nl; ++l)
            for (int a = 0; a < 3; ++a)
                hll[l](a, a) *= (1.0 + lambda);

        // Schur complement over landmarks:
        // S = Hpp - Hpl Hll^-1 Hlp ; rhs = bp - Hpl Hll^-1 bl.
        std::vector<Mat3> hll_inv(nl);
        bool singular = false;
        for (int l = 0; l < nl; ++l) {
            Mat3 m = hll[l];
            for (int a = 0; a < 3; ++a)
                m(a, a) += 1e-9;
            if (std::abs(det(m)) < 1e-24) {
                singular = true;
                break;
            }
            hll_inv[l] = inverse(m);
        }
        if (singular)
            break;

        MatX s = hpp;
        VecX rhs = bp;
        // Per landmark, only the observing pose pairs contribute: 6x6
        // dense blocks into the lower triangle, mirrored once at the end.
        for (int l = 0; l < nl; ++l) {
            const auto &blocks = lm_blocks[l];
            if (blocks.empty())
                continue;
            const Mat3 &inv = hll_inv[l];
            const Vec3 bl_l{bl[3 * l], bl[3 * l + 1], bl[3 * l + 2]};
            tbuf.resize(blocks.size());
            for (size_t e = 0; e < blocks.size(); ++e)
                tbuf[e] = blocks[e].w * inv;
            for (size_t a = 0; a < blocks.size(); ++a) {
                const int pa = blocks[a].pose_slot;
                const Vec<6> rv = tbuf[a] * bl_l;
                for (int k = 0; k < 6; ++k)
                    rhs[6 * pa + k] -= rv[k];
                for (size_t b = 0; b < blocks.size(); ++b) {
                    const int pb = blocks[b].pose_slot;
                    if (pa < pb)
                        continue; // lower triangle only
                    const Mat<3, 6> wbt = blocks[b].w.transpose();
                    const Mat<6, 6> m = tbuf[a] * wbt;
                    for (int x = 0; x < 6; ++x)
                        for (int y = 0; y < 6; ++y)
                            s(6 * pa + x, 6 * pb + y) -= m(x, y);
                }
            }
        }
        s.mirrorLowerToUpper();

        auto dp = solveSpd(s, rhs * -1.0);
        if (!dp) {
            lambda *= 10.0;
            continue;
        }

        // Back-substitute landmarks: dl = Hll^-1 (-bl - Hlp dp).
        std::vector<Vec3> dl(nl);
        for (int l = 0; l < nl; ++l) {
            Vec3 acc{-bl[3 * l], -bl[3 * l + 1], -bl[3 * l + 2]};
            for (const WBlock &e : lm_blocks[l]) {
                Vec<6> dp_seg;
                for (int k = 0; k < 6; ++k)
                    dp_seg[k] = (*dp)[6 * e.pose_slot + k];
                const Vec3 c = e.w.transpose() * dp_seg;
                acc -= c;
            }
            dl[l] = hll_inv[l] * acc;
        }

        // Candidate state.
        std::vector<Pose> cand_poses = poses;
        std::vector<Vec3> cand_points = points;
        for (size_t i = 1; i < window_.size(); ++i) {
            int slot = static_cast<int>(i) - 1;
            Vec3 dtheta{(*dp)[6 * slot], (*dp)[6 * slot + 1],
                        (*dp)[6 * slot + 2]};
            Vec3 dt{(*dp)[6 * slot + 3], (*dp)[6 * slot + 4],
                    (*dp)[6 * slot + 5]};
            cand_poses[i] = applyPoseDelta(poses[i], dtheta, dt);
        }
        for (int l = 0; l < nl; ++l)
            cand_points[l] = points[l] + dl[l];

        std::swap(poses, cand_poses);
        std::swap(points, cand_points);
        double new_cost = evalCost();
        if (new_cost < cost) {
            cost = new_cost;
            lambda = std::max(1e-9, lambda * 0.3);
        } else {
            std::swap(poses, cand_poses);
            std::swap(points, cand_points);
            lambda *= 10.0;
        }
    }

    // Write back.
    for (size_t i = 0; i < window_.size(); ++i)
        map_.keyframes()[window_[i]].pose = poses[i];
    for (int l = 0; l < nl; ++l)
        map_.points()[lms[l]].position = points[l];
}

void
Mapper::computeMarginalization(MappingTiming &timing,
                               MappingWorkload &workload)
{
    StageTimer timer(timing.marginalization_ms);
    const int old_kf = window_.front();
    const int next_kf = window_[1];

    // States to marginalize: landmarks observed by the old keyframe
    // (diagonal A block, 3x3 each) plus the old pose itself (the 6x6 D
    // block) - exactly the Amm structure of Sec. VI-A. The remaining
    // state the prior lands on is the next-oldest pose.
    std::vector<int> marg_lms;
    for (int lm : map_.keyframes()[old_kf].map_point_ids)
        if (lm >= 0)
            marg_lms.push_back(lm);
    std::unordered_map<int, int> lm_slot;
    for (size_t i = 0; i < marg_lms.size(); ++i)
        lm_slot[marg_lms[i]] = static_cast<int>(i);
    const int nm = static_cast<int>(marg_lms.size());
    workload.marginalized_landmarks = nm;

    if (nm > 0) {
        // Structure-exploiting elimination (the specialized inversion
        // hardware of Sec. VI-A: "diagonal reciprocals" for the
        // landmark block plus a dense 6x6 core). The system over
        // {landmarks l, old pose m, next pose r} is accumulated in
        // compact blocks — no (3nm+12)^2 dense matrix — and reduced in
        // two stages:
        //   1. per-landmark 3x3 eliminations (linear in nm),
        //   2. a single dense 6x6 solve for the old pose, batched
        //      across sessions through the hub when one is attached.
        std::vector<Mat3> hll(nm, Mat3::zero());
        std::vector<Vec3> bl(nm, Vec3::zero());
        std::vector<Mat36> blm(nm, Mat36::zero()); // l x old pose
        std::vector<Mat36> blr(nm, Mat36::zero()); // l x next pose
        Mat<6, 6> dmm = Mat<6, 6>::zero();         // old pose block
        Mat<6, 6> arr = Mat<6, 6>::zero();         // next pose block
        Vec<6> bm6 = Vec<6>::zero(), br6 = Vec<6>::zero();

        auto accumulate = [&](int kf_id, bool old_pose) {
            const Keyframe &kf = map_.keyframes()[kf_id];
            for (int lm : marg_lms) {
                for (const LandmarkObs &o : observations_[lm]) {
                    if (o.keyframe_id != kf_id)
                        continue;
                    const KeyPoint &kp = kf.keypoints[o.keypoint_index];
                    ObsLinearization lin = linearizeObs(
                        kf.pose, map_.points()[lm].position,
                        Vec2{kp.x, kp.y}, rig_, cfg_.huber_px);
                    if (!lin.valid)
                        continue;
                    const double w =
                        lin.weight /
                        (cfg_.pixel_sigma * cfg_.pixel_sigma);
                    const int l = lm_slot[lm];
                    for (int x = 0; x < 3; ++x) {
                        for (int y = 0; y < 3; ++y)
                            hll[l](x, y) +=
                                w * (lin.j_lm(0, x) * lin.j_lm(0, y) +
                                     lin.j_lm(1, x) * lin.j_lm(1, y));
                        bl[l][x] += w * (lin.j_lm(0, x) * lin.r[0] +
                                         lin.j_lm(1, x) * lin.r[1]);
                        for (int y = 0; y < 6; ++y) {
                            double v =
                                w * (lin.j_lm(0, x) * lin.j_pose(0, y) +
                                     lin.j_lm(1, x) * lin.j_pose(1, y));
                            (old_pose ? blm : blr)[l](x, y) += v;
                        }
                    }
                    Mat<6, 6> &pp = old_pose ? dmm : arr;
                    Vec<6> &pb = old_pose ? bm6 : br6;
                    for (int x = 0; x < 6; ++x) {
                        for (int y = 0; y < 6; ++y)
                            pp(x, y) +=
                                w * (lin.j_pose(0, x) * lin.j_pose(0, y) +
                                     lin.j_pose(1, x) * lin.j_pose(1, y));
                        pb[x] += w * (lin.j_pose(0, x) * lin.r[0] +
                                      lin.j_pose(1, x) * lin.r[1]);
                    }
                }
            }
        };
        accumulate(old_kf, true);
        accumulate(next_kf, false);

        // Stage 1: eliminate the landmark block (Tikhonov-guarded: 1e-6
        // on every diagonal, the old pose's included).
        Mat<6, 6> dmr = Mat<6, 6>::zero(); // old-next coupling (fill-in)
        for (int l = 0; l < nm; ++l) {
            Mat3 g = hll[l];
            for (int x = 0; x < 3; ++x)
                g(x, x) += 1e-6;
            if (std::abs(det(g)) < 1e-24)
                continue; // zero-information landmark: nothing to add
            const Mat3 ginv = inverse(g);
            const Mat36 t_m = ginv * blm[l]; // 3x6
            const Mat36 t_r = ginv * blr[l];
            dmm += blm[l].transpose() * t_m * -1.0;
            dmr += blm[l].transpose() * t_r * -1.0;
            arr += blr[l].transpose() * t_r * -1.0;
            const Vec3 gb = ginv * bl[l];
            bm6 += blm[l].transpose() * gb * -1.0;
            br6 += blr[l].transpose() * gb * -1.0;
        }
        for (int x = 0; x < 6; ++x)
            dmm(x, x) += 1e-6;

        // Stage 2: eliminate the old pose through the dense 6x6 core.
        // Combined RHS [D_mr | b_m]; routed through the hub so
        // concurrent sessions' marginalizations execute as one batch.
        MatX mm(6, 6), rhs(6, 7);
        for (int x = 0; x < 6; ++x) {
            for (int y = 0; y < 6; ++y) {
                mm(x, y) = dmm(x, y);
                rhs(x, y) = dmr(x, y);
            }
            rhs(x, 6) = bm6[x];
        }
        MatX sol;
        bool solved = false;
        if (hub_) {
            solved = hub_->luSolve(mm, rhs, sol);
        } else {
            PartialPivLU lu(mm);
            if (lu.ok()) {
                lu.solveInto(rhs, sol);
                solved = true;
            }
        }
        if (solved) {
            // prior = A_rr' - D_mr^T D_mm'^-1 [D_mr | b_m].
            MatX h_new(6, 6);
            VecX b_new(6);
            for (int x = 0; x < 6; ++x) {
                for (int y = 0; y < 6; ++y) {
                    double acc = arr(x, y);
                    for (int k = 0; k < 6; ++k)
                        acc -= dmr(k, x) * sol(k, y);
                    h_new(x, y) = acc;
                }
                double acc = br6[x];
                for (int k = 0; k < 6; ++k)
                    acc -= dmr(k, x) * sol(k, 6);
                b_new[x] = acc;
            }
            pending_.marg_solved = true;
            pending_.prior_kf = next_kf;
            pending_.prior_h = h_new;
            pending_.prior_b = b_new;
        }
    }

    // The structural effects — dropping the old keyframe from the
    // window and its observations, installing the prior — are deferred
    // to the next frame's applyPendingFinish(): this function must stay
    // read-only so it may overlap the next frame's tracking.
    pending_.marg = true;
    pending_.old_kf = old_kf;
}

bool
Mapper::detectLoopClosure(int new_kf_id, MappingTiming &timing)
{
    StageTimer timer(timing.loop_ms);
    bool detected = false;
    const Keyframe &cur = map_.keyframes()[new_kf_id];
    if (voc_ && voc_->trained() &&
        new_kf_id > cfg_.loop_min_gap) {
        auto place =
            map_.queryPlace(cur.bow, new_kf_id - cfg_.loop_min_gap);
        if (place && place->score >= cfg_.loop_min_score) {
            const Keyframe &old = map_.keyframes()[place->keyframe_id];
            // 2D-2D descriptor match, lifted to 3D by the old keyframe's
            // landmark associations.
            std::vector<Match> matches =
                matchDescriptors(old.descriptors, cur.descriptors);
            std::vector<PoseObservation> obs;
            for (const Match &m : matches) {
                int lm = old.map_point_ids[m.query_index];
                if (lm < 0)
                    continue;
                const KeyPoint &kp = cur.keypoints[m.train_index];
                obs.push_back({map_.points()[lm].position,
                               Vec2{kp.x, kp.y}});
            }
            if (static_cast<int>(obs.size()) >= cfg_.loop_min_matches) {
                PoseOptResult opt = optimizePose(
                    cur.pose, obs, rig_.cam, rig_.body_from_camera);
                if (opt.converged &&
                    opt.inliers >= cfg_.loop_min_matches / 2) {
                    // Correction transform mapping the drifted estimate
                    // onto the loop-consistent one. The rigid window
                    // correction is deferred to applyPendingFinish()
                    // (this function is read-only so it may overlap the
                    // next frame's tracking).
                    pending_.loop = true;
                    pending_.correction = opt.pose * cur.pose.inverse();
                    detected = true;
                }
            }
        }
    }
    return detected;
}

std::optional<Pose>
Mapper::applyPendingFinish(MappingTiming &timing)
{
    if (!pending_.marg && !pending_.loop)
        return std::nullopt;
    StageTimer timer(timing.others_ms);

    if (pending_.marg) {
        // Drop the marginalized keyframe from the window and its
        // observations; install the computed prior.
        const int old_kf = pending_.old_kf;
        assert(!window_.empty() && window_.front() == old_kf);
        for (int lm : map_.keyframes()[old_kf].map_point_ids) {
            if (lm < 0)
                continue;
            auto &obs = observations_[lm];
            obs.erase(std::remove_if(obs.begin(), obs.end(),
                                     [old_kf](const LandmarkObs &o) {
                                         return o.keyframe_id == old_kf;
                                     }),
                      obs.end());
        }
        window_.erase(window_.begin());
        if (retire_log_)
            retired_.push_back(old_kf);
        if (pending_.marg_solved) {
            prior_kf_ = pending_.prior_kf;
            prior_h_ = pending_.prior_h;
            prior_b_ = pending_.prior_b;
        }
    }

    std::optional<Pose> correction;
    if (pending_.loop) {
        // Rigid loop correction over the (post-pop) window: poses plus
        // the landmarks they observe, exactly the set the pre-split
        // algorithm transformed.
        const Pose &corr = pending_.correction;
        std::unordered_set<int> win_lms;
        for (int kf_id : window_) {
            Keyframe &kf = map_.keyframes()[kf_id];
            kf.pose = corr * kf.pose;
            for (int lm : kf.map_point_ids)
                if (lm >= 0)
                    win_lms.insert(lm);
        }
        for (int lm : win_lms)
            map_.points()[lm].position =
                corr.apply(map_.points()[lm].position);
        // The prior linearization moved with the window.
        prior_b_ = VecX(6);
        ++loop_closures_;
        correction = corr;
    }

    pending_ = PendingFinish{};
    return correction;
}

MappingResult
Mapper::processFrameSolve(const FrontendOutput &frame,
                          const Pose &pose_estimate)
{
    MappingResult res;
    res.pose = pose_estimate;
    ++frame_counter_;
    finish_kf_ = -1;

    const bool make_keyframe =
        window_.empty() || (frame_counter_ % cfg_.keyframe_interval) == 0;
    if (!make_keyframe)
        return res;

    int kf_id = -1;
    {
        StageTimer timer(res.timing.others_ms);
        kf_id = insertKeyframe(frame, pose_estimate);
        res.keyframe_added = true;
    }

    localBundleAdjustment(res.timing, res.workload);

    finish_kf_ = kf_id;
    res.pose = map_.keyframes()[kf_id].pose;
    return res;
}

void
Mapper::computeFinish(MappingResult &res)
{
    if (finish_kf_ < 0)
        return; // no keyframe this frame: nothing to finish
    pending_ = PendingFinish{};

    if (static_cast<int>(window_.size()) > cfg_.window_size)
        computeMarginalization(res.timing, res.workload);

    res.loop_closed = detectLoopClosure(finish_kf_, res.timing);
    finish_kf_ = -1;
}

MappingResult
Mapper::processFrame(const FrontendOutput &frame, const Pose &pose_estimate)
{
    MappingTiming apply_timing;
    std::optional<Pose> corr = applyPendingFinish(apply_timing);
    const Pose estimate =
        corr ? *corr * pose_estimate : pose_estimate;

    MappingResult res = processFrameSolve(frame, estimate);
    res.timing.others_ms += apply_timing.others_ms;
    computeFinish(res);
    return res;
}

} // namespace edx
