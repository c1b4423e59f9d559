#include "backend/msckf.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "math/blas.hpp"
#include "math/blas_f32.hpp"
#include "math/decomp.hpp"
#include "runtime/solve_hub.hpp"
#include "runtime/telemetry.hpp"

namespace edx {

Msckf::Msckf(const StereoRig &rig, const MsckfConfig &cfg)
    : rig_(rig), cfg_(cfg)
{
}

void
Msckf::initialize(const Pose &world_from_body, double t,
                  const Vec3 &velocity)
{
    q_wb_ = world_from_body.rotation;
    p_wb_ = world_from_body.translation;
    v_ = velocity;
    bg_ = Vec3::zero();
    ba_ = Vec3::zero();
    t_ = t;
    clones_.clear();
    clones_.reserve(static_cast<size_t>(cfg_.max_clones) + 2);

    // Reserve the covariance at its steady-state extent so the
    // augment/marginalize cycle repacks in place from the first frame.
    const int d_max = 15 + 6 * (cfg_.max_clones + 1);
    cov_.reserve(d_max, d_max);
    cov_.resize(15, 15);
    // Initial uncertainty: small attitude/pose (we start from a known
    // reference), moderate velocity and bias uncertainty so the first
    // camera updates can correct initialization error.
    for (int i = 0; i < 3; ++i) {
        cov_(i, i) = 1e-4;            // theta
        cov_(3 + i, 3 + i) = 1e-5;    // bg
        cov_(6 + i, 6 + i) = 1e-1;    // v
        cov_(9 + i, 9 + i) = 1e-2;    // ba
        cov_(12 + i, 12 + i) = 1e-6;  // p
    }
    allocation_events_ = 0;
    initialized_ = true;
}

void
Msckf::propagateOne(const ImuSample &s, double dt)
{
    if (dt <= 0.0)
        return;

    const Vec3 w = s.gyro - bg_;
    const Vec3 a = s.accel - ba_;
    const Mat3 r_wb = q_wb_.toRotationMatrix();
    const Vec3 a_world = r_wb * a + gravityWorld();

    // --- Error-state transition (first order):
    //   theta' = Exp(-w dt) theta - dt * bg_err
    //   v'     = v - R [a]x dt theta - R dt ba_err
    //   p'     = p + dt v
    // The transition matrix differs from identity only in the 15x15
    // IMU-error block, so the covariance update is done blockwise:
    //   P_II <- A P_II A^T + Q,  P_IC <- A P_IC,  P_CC unchanged.
    // This keeps per-sample propagation O(15^2 * d) instead of O(d^3),
    // as deployed MSCKF implementations do.
    const int d = stateDim();
    MatX &a_imu = ws_.a_imu;
    a_imu.setZero();
    for (int i = 0; i < 15; ++i)
        a_imu(i, i) = 1.0;
    const Mat3 exp_neg = Quat::exp(w * (-dt)).toRotationMatrix();
    a_imu.setFixedBlock<3, 3>(0, 0, exp_neg);
    a_imu.setFixedBlock<3, 3>(0, 3, Mat3::identity() * (-dt));
    a_imu.setFixedBlock<3, 3>(6, 0, r_wb * skew(a) * (-dt));
    a_imu.setFixedBlock<3, 3>(6, 9, r_wb * (-dt));
    a_imu.setFixedBlock<3, 3>(12, 6, Mat3::identity() * dt);

    // Discrete process noise (only on the 15 IMU-error states).
    const double qg = cfg_.gyro_sigma * cfg_.gyro_sigma * dt;
    const double qbg = cfg_.gyro_bias_sigma * cfg_.gyro_bias_sigma * dt;
    const double qa = cfg_.accel_sigma * cfg_.accel_sigma * dt;
    const double qba = cfg_.accel_bias_sigma * cfg_.accel_bias_sigma * dt;

    // The IMU block goes through the symmetric sandwich (exact-symmetric
    // by construction), the cross strip through one GEMM with an
    // in-place transpose mirror. The covariance stays exactly
    // symmetric, so no per-sample O(d^2) symmetrize pass is needed.
    for (int i = 0; i < 15; ++i) {
        const double *src = cov_.data() + static_cast<size_t>(i) * d;
        double *dst = ws_.p_ii.data() + static_cast<size_t>(i) * 15;
        std::memcpy(dst, src, sizeof(double) * 15);
    }
    symmetricSandwichInto(a_imu, ws_.p_ii, ws_.ap, ws_.s_ii);
    for (int i = 0; i < 3; ++i) {
        ws_.s_ii(i, i) += qg;
        ws_.s_ii(3 + i, 3 + i) += qbg;
        ws_.s_ii(6 + i, 6 + i) += qa;
        ws_.s_ii(9 + i, 9 + i) += qba;
        ws_.s_ii(12 + i, 12 + i) += qa * dt * dt;
    }
    for (int i = 0; i < 15; ++i) {
        const double *src = ws_.s_ii.data() + static_cast<size_t>(i) * 15;
        double *dst = cov_.data() + static_cast<size_t>(i) * d;
        std::memcpy(dst, src, sizeof(double) * 15);
    }
    if (d > 15) {
        const int dc = d - 15;
        ws_.p_ic.resize(15, dc);
        for (int i = 0; i < 15; ++i) {
            const double *src = cov_.data() + static_cast<size_t>(i) * d + 15;
            double *dst = ws_.p_ic.data() + static_cast<size_t>(i) * dc;
            std::memcpy(dst, src, sizeof(double) * dc);
        }
        gemmInto(a_imu, ws_.p_ic, ws_.ap_ic);
        for (int i = 0; i < 15; ++i) {
            const double *src = ws_.ap_ic.data() + static_cast<size_t>(i) * dc;
            double *dst = cov_.data() + static_cast<size_t>(i) * d + 15;
            std::memcpy(dst, src, sizeof(double) * dc);
            for (int j = 0; j < dc; ++j)
                cov_(15 + j, i) = src[j];
        }
    }

    // --- Nominal-state integration (midpoint on position).
    q_wb_ = q_wb_.integrated(w, dt);
    p_wb_ += v_ * dt + a_world * (0.5 * dt * dt);
    v_ += a_world * dt;
    t_ = s.t;
}

void
Msckf::propagate(const std::vector<ImuSample> &samples)
{
    timing_ = MsckfTiming{};
    StageTimer timer(timing_.imu_ms);
    for (const ImuSample &s : samples) {
        double dt = s.t - t_;
        // Guard against out-of-order, duplicate, and near-duplicate
        // samples (same epsilon as sanitizeImuBatch(): a subnormal dt
        // would pass a plain dt > 0 check and inject a degenerate
        // process-noise step). Batches from Dataset arrive sanitized;
        // this keeps the filter safe for any other caller.
        if (dt > 1e-12 && dt < 0.5)
            propagateOne(s, dt);
        else if (dt >= 0.5)
            t_ = s.t; // gap: re-anchor the clock, skip integration
    }
}

void
Msckf::augmentClone(long clone_id)
{
    const int d = stateDim();

    // J only selects the theta (0..2) and p (12..14) error rows, so J·P
    // is six existing covariance rows and J·P·Jᵀ is the matching 6x6
    // sub-block — the clone augmentation is pure row/column copies, no
    // matrix products.
    cov_.conservativeResize(d + 6, d + 6);
    auto src_row = [](int r) { return r < 3 ? r : 12 + (r - 3); };
    const int dn = d + 6;
    for (int r = 0; r < 6; ++r) {
        const double *src =
            cov_.data() + static_cast<size_t>(src_row(r)) * dn;
        double *dst = cov_.data() + static_cast<size_t>(d + r) * dn;
        std::memcpy(dst, src, sizeof(double) * d);
        // Corner block (J P Jᵀ): columns picked from this row.
        for (int c = 0; c < 6; ++c)
            dst[d + c] = src[src_row(c)];
    }
    // Mirror the new rows into the new columns.
    for (int r = 0; r < 6; ++r) {
        const double *jp_row = cov_.data() + static_cast<size_t>(d + r) * dn;
        for (int c = 0; c < d; ++c)
            cov_(c, d + r) = jp_row[c];
    }

    clones_.push_back({clone_id, q_wb_, p_wb_});
}

void
Msckf::marginalizeOldestClone()
{
    // The MSCKF never keeps feature states, so removing a clone is a
    // plain in-place drop of its rows/columns from the covariance.
    // Dropping matching rows and columns preserves symmetry exactly.
    cov_.removeRowsAndCols(15, 6);
    clones_.erase(clones_.begin());
}

int
Msckf::cloneSlot(long clone_id) const
{
    for (int i = 0; i < static_cast<int>(clones_.size()); ++i)
        if (clones_[i].clone_id == clone_id)
            return i;
    return -1;
}

bool
Msckf::triangulateTrack(const FeatureTrack &track, Vec3 &x_world) const
{
    // Initialization: first observation with stereo depth.
    const TrackObservation *init_obs = nullptr;
    for (const TrackObservation &o : track.observations) {
        if (o.disparity > 0.5 && cloneSlot(o.clone_id) >= 0) {
            init_obs = &o;
            break;
        }
    }
    if (!init_obs)
        return false;
    int slot = cloneSlot(init_obs->clone_id);
    const CloneState &c0 = clones_[slot];
    auto p_cam = rig_.triangulate(init_obs->pixel, init_obs->disparity);
    if (!p_cam)
        return false;
    Pose world_from_cam0 =
        Pose(c0.q_wb, c0.p_wb) * rig_.body_from_camera;
    x_world = world_from_cam0.apply(*p_cam);

    // Gauss-Newton refinement over all windowed observations.
    for (int it = 0; it < cfg_.triangulation_iterations; ++it) {
        Mat3 jtj;
        Vec3 jtr;
        int used = 0;
        for (const TrackObservation &o : track.observations) {
            int s = cloneSlot(o.clone_id);
            if (s < 0)
                continue;
            const CloneState &c = clones_[s];
            Pose cam_from_world =
                (Pose(c.q_wb, c.p_wb) * rig_.body_from_camera).inverse();
            Vec3 p_c = cam_from_world.apply(x_world);
            auto px = rig_.cam.project(p_c);
            if (!px)
                continue;
            Vec2 r{(*px)[0] - o.pixel[0], (*px)[1] - o.pixel[1]};
            Mat23 jp = rig_.cam.projectJacobian(p_c);
            Mat23 j = jp * cam_from_world.rotation.toRotationMatrix();
            for (int a = 0; a < 3; ++a) {
                for (int b = 0; b < 3; ++b)
                    jtj(a, b) += j(0, a) * j(0, b) + j(1, a) * j(1, b);
                jtr[a] += j(0, a) * r[0] + j(1, a) * r[1];
            }
            ++used;
        }
        if (used < 2)
            break;
        for (int i = 0; i < 3; ++i)
            jtj(i, i) += 1e-6;
        if (std::abs(det(jtj)) < 1e-18)
            break;
        Vec3 dx = inverse(jtj) * jtr;
        x_world -= dx;
        if (dx.norm() < 1e-8)
            break;
    }

    // Sanity gate: mean reprojection error must be small and the point
    // in front of every observing camera.
    double err = 0.0;
    int used = 0;
    for (const TrackObservation &o : track.observations) {
        int s = cloneSlot(o.clone_id);
        if (s < 0)
            continue;
        const CloneState &c = clones_[s];
        Pose cam_from_world =
            (Pose(c.q_wb, c.p_wb) * rig_.body_from_camera).inverse();
        Vec3 p_c = cam_from_world.apply(x_world);
        if (p_c[2] < 0.2)
            return false;
        auto px = rig_.cam.project(p_c);
        if (!px)
            return false;
        err += Vec2{(*px)[0] - o.pixel[0], (*px)[1] - o.pixel[1]}.norm();
        ++used;
    }
    if (used < 2)
        return false;
    return err / used <= cfg_.max_reprojection_px;
}

int
Msckf::buildTrackBlock(const FeatureTrack &track, const Vec3 &x_world,
                       MatX &h_out, VecX &r_out, int row0)
{
    const int d = stateDim();

    // Raw per-observation Jacobians.
    ws_.slots.clear();
    for (const TrackObservation &o : track.observations) {
        int s = cloneSlot(o.clone_id);
        if (s >= 0)
            ws_.slots.push_back(s);
    }
    const int m = static_cast<int>(ws_.slots.size());
    if (m < 2)
        return 0;

    MatX &hx = ws_.hx;
    MatX &hf = ws_.hf;
    VecX &r = ws_.r_track;
    hx.resize(2 * m, d);
    hf.resize(2 * m, 3);
    r.resize(2 * m);

    int row = 0;
    for (const TrackObservation &o : track.observations) {
        int s = cloneSlot(o.clone_id);
        if (s < 0)
            continue;
        const CloneState &c = clones_[s];
        const Mat3 r_bw = c.q_wb.inverse().toRotationMatrix();
        const Mat3 r_cb =
            rig_.body_from_camera.rotation.inverse().toRotationMatrix();
        const Vec3 u = r_bw * (x_world - c.p_wb); // point in body frame
        const Vec3 p_c =
            r_cb * (u - rig_.body_from_camera.translation);
        auto px = rig_.cam.project(p_c);
        if (!px)
            return 0;
        Mat23 jp = rig_.cam.projectJacobian(p_c);
        // d p_c / d theta = R_cb [u]x ; d p_c / d p = -R_cb R_bw ;
        // d p_c / d x_world = +R_cb R_bw.
        Mat23 h_theta = jp * (r_cb * skew(u));
        Mat23 h_p = jp * (r_cb * r_bw * (-1.0));
        Mat23 h_x = jp * (r_cb * r_bw);

        const int col = 15 + 6 * s;
        for (int i = 0; i < 2; ++i) {
            for (int k = 0; k < 3; ++k) {
                hx(row + i, col + k) = h_theta(i, k);
                hx(row + i, col + 3 + k) = h_p(i, k);
                hf(row + i, k) = h_x(i, k);
            }
        }
        r[row] = o.pixel[0] - (*px)[0];
        r[row + 1] = o.pixel[1] - (*px)[1];
        row += 2;
    }

    // Nullspace projection: multiply by the left nullspace of Hf, i.e.
    // the trailing rows of Q^T from the QR of Hf.
    const int out_rows = 2 * m - 3;
    ws_.qr_track.compute(hf);
    ws_.qr_track.qtbInPlace(hx);
    ws_.qr_track.qtbInPlace(r);
    for (int i = 0; i < out_rows; ++i) {
        const double *src = hx.data() + static_cast<size_t>(3 + i) * d;
        double *dst = h_out.data() + static_cast<size_t>(row0 + i) * d;
        std::memcpy(dst, src, sizeof(double) * d);
        r_out[row0 + i] = r[3 + i];
    }
    return out_rows;
}

long
Msckf::update(const std::vector<FeatureTrack> &finished_tracks,
              long clone_id)
{
    assert(initialized_);
    const size_t capacity_before = workspaceCapacityBytes();
    workload_ = MsckfWorkload{};
    // Reset the update-side timings (imu_ms belongs to propagate());
    // the stage timers below accumulate into these sinks.
    timing_.cov_ms = timing_.jacobian_ms = timing_.qr_ms = 0.0;
    timing_.kalman_gain_ms = timing_.update_ms = 0.0;

    // --- Covariance augmentation for the new camera clone.
    {
        StageTimer timer(timing_.cov_ms);
        augmentClone(clone_id);
    }

    // --- Build stacked residuals for usable tracks.
    StageTimer jacobian_timer(timing_.jacobian_ms);
    ws_.usable.clear();
    ws_.points.clear();
    int total_rows = 0;
    for (const FeatureTrack &track : finished_tracks) {
        int in_window = 0;
        for (const TrackObservation &o : track.observations)
            if (cloneSlot(o.clone_id) >= 0)
                ++in_window;
        if (in_window < cfg_.min_track_length)
            continue;
        Vec3 x;
        if (!triangulateTrack(track, x))
            continue;
        ws_.usable.push_back(&track);
        ws_.points.push_back(x);
        total_rows += 2 * in_window - 3;
    }

    const int d = stateDim();
    MatX &h = ws_.h;
    VecX &r = ws_.r;
    // Rows [0, row) are written whole by buildTrackBlock and the rest
    // trimmed before any read, so the stacked target needs no zeroing
    // (the sparse per-track hx/hf buffers inside DO need it).
    h.resizeNoInit(std::max(total_rows, 1), d);
    r.resize(std::max(total_rows, 1));
    int row = 0;
    for (size_t i = 0; i < ws_.usable.size(); ++i)
        row += buildTrackBlock(*ws_.usable[i], ws_.points[i], h, r, row);
    jacobian_timer.stop();
    workload_.tracks_used = static_cast<int>(ws_.usable.size());
    workload_.stacked_rows = row;
    workload_.state_dim = d;

    auto finishWindow = [&]() {
        while (static_cast<int>(clones_.size()) > cfg_.max_clones)
            marginalizeOldestClone();
        if (workspaceCapacityBytes() > capacity_before)
            ++allocation_events_;
        return clones_.front().clone_id;
    };

    if (row == 0)
        return finishWindow(); // nothing to update; manage the window

    h.conservativeResize(row, d); // same width: shrink in place
    r.conservativeResize(row);

    // --- QR compression when the stack is taller than the state.
    StageTimer qr_timer(timing_.qr_ms);
    const MatX *h_used = &h;
    if (row > d) {
        ws_.qr_compress.compute(h);
        ws_.qr_compress.qtbInPlace(r);
        ws_.qr_compress.extractRInto(ws_.h_compressed);
        r.conservativeResize(d); // top d rows of Q^T r
        h_used = &ws_.h_compressed;
    }
    qr_timer.stop();
    const int rows = h_used->rows();

    // --- Kalman gain: S = H P H^T + R ; solve S K^T = H P.
    StageTimer kalman_gain_timer(timing_.kalman_gain_ms);
    const double r_var = cfg_.pixel_sigma * cfg_.pixel_sigma;
    bool gain_ok = true;
    bool used_f32 = false;
    if (cfg_.float32_covariance_update && !hub_ &&
        float32KalmanGain(*h_used, rows, d, r_var)) {
        used_f32 = true; // gain in ws_.kt_f, intermediates in hp_f/s_f
    } else {
        // H P is both the sandwich intermediate and the solve RHS —
        // one kernel, no transposes, triangle-only S.
        symmetricSandwichInto(*h_used, cov_, ws_.hp, ws_.s);
        for (int i = 0; i < rows; ++i)
            ws_.s(i, i) += r_var;
        if (hub_) {
            // Cross-session batched solve (bit-identical flow).
            gain_ok = hub_->solveSpd(ws_.s, ws_.hp, ws_.k_t);
        } else if (ws_.chol.compute(ws_.s)) {
            ws_.k_t = ws_.hp; // capacity-reusing copy, no zero pass
            ws_.chol.solveInPlace(ws_.k_t);
        } else if (ws_.lu.compute(ws_.s)) {
            ws_.lu.solveInto(ws_.hp, ws_.k_t);
        } else {
            gain_ok = false;
        }
    }
    kalman_gain_timer.stop();
    if (!gain_ok)
        return finishWindow();

    // --- State/covariance injection.
    StageTimer update_timer(timing_.update_ms);
    VecX &dx = ws_.dx;
    dx.resize(d);
    if (used_f32) {
        // The correction is accumulated in f64 from the f32 gain and
        // the f64 residual — the gain carries the only f32 rounding.
        for (int j = 0; j < rows; ++j) {
            const double rj = r[j];
            const float *ktj = ws_.kt_f.data() + static_cast<size_t>(j) * d;
            for (int i = 0; i < d; ++i)
                dx[i] += static_cast<double>(ktj[i]) * rj;
        }
    } else {
        for (int j = 0; j < rows; ++j) {
            const double rj = r[j];
            const double *ktj = ws_.k_t.data() + static_cast<size_t>(j) * d;
            for (int i = 0; i < d; ++i)
                dx[i] += ktj[i] * rj;
        }
    }

    q_wb_ = (q_wb_ * Quat::exp(dx.fixedSegment<3>(0))).normalized();
    bg_ += dx.fixedSegment<3>(3);
    v_ += dx.fixedSegment<3>(6);
    ba_ += dx.fixedSegment<3>(9);
    p_wb_ += dx.fixedSegment<3>(12);
    for (int c = 0; c < static_cast<int>(clones_.size()); ++c) {
        clones_[c].q_wb =
            (clones_[c].q_wb * Quat::exp(dx.fixedSegment<3>(15 + 6 * c)))
                .normalized();
        clones_[c].p_wb += dx.fixedSegment<3>(15 + 6 * c + 3);
    }

    // P <- P - P H^T K^T == P - (H P)^T k_t. The symmetric downdate
    // computes one triangle and mirrors, so the covariance leaves this
    // update *exactly* symmetric (no asymmetry drift into solveSpd's
    // LU fallback).
    if (used_f32) {
        // The downdate term is formed in f32 (lower triangle), then
        // subtracted from the f64 master and mirrored — exactly
        // symmetric, same as the f64 kernel's contract.
        f32::downdateTerm(ws_.hp_f.data(), ws_.kt_f.data(), rows, d,
                          ws_.t_f);
        for (int i = 0; i < d; ++i) {
            const float *ti = ws_.t_f.data() + static_cast<size_t>(i) * d;
            for (int j = 0; j <= i; ++j)
                cov_(i, j) -= static_cast<double>(ti[j]);
        }
        cov_.mirrorLowerToUpper();
    } else {
        symmetricDowndateInto(ws_.hp, ws_.k_t, cov_);
    }
    // Numerical floor to keep the covariance positive.
    for (int i = 0; i < d; ++i)
        cov_(i, i) = std::max(cov_(i, i), 1e-12);
    update_timer.stop();

    // --- Window management.
    return finishWindow();
}

bool
Msckf::float32KalmanGain(const MatX &h, int rows, int d, double r_var)
{
    f32::pack(h, ws_.h_f);
    f32::pack(cov_, ws_.p_f);
    f32::sandwich(ws_.h_f.data(), ws_.p_f.data(), rows, d, ws_.hp_f,
                  ws_.s_f);
    const float rv = static_cast<float>(r_var);
    for (int i = 0; i < rows; ++i)
        ws_.s_f[static_cast<size_t>(i) * rows + i] += rv;
    if (!f32::choleskyLower(ws_.s_f.data(), rows))
        return false; // not SPD in f32 — rerun the update in f64
    ws_.kt_f.assign(ws_.hp_f.begin(), ws_.hp_f.end());
    f32::choleskySolveInPlace(ws_.s_f.data(), rows, ws_.kt_f.data(), d);
    return true;
}

Pose
Msckf::pose() const
{
    return Pose(q_wb_, p_wb_);
}

} // namespace edx
