/**
 * @file
 * Backend linear-algebra micro-bench: every blocked/SIMD kernel of the
 * overhaul against its retained scalar reference at MSCKF-realistic
 * sizes (state dim d ~ 195 = 15 + 6x30 clones, compression stacks of a
 * few hundred rows), plus the end-to-end MSCKF backend on a synthetic
 * steady-state VIO run. The pre-overhaul MSCKF reference flow is
 * retired: its row and the speedup over it are frozen rows of
 * BENCH_reference.json (common/reference.hpp), printed with the commit
 * they were measured at.
 *
 * Doubles as the CI perf smoke: when EDX_BACKEND_MS_CEILING is set
 * (milliseconds), the bench exits non-zero if the optimized MSCKF
 * update exceeds it — a generous ceiling, so regressions fail loudly
 * without flaking on machine noise (pattern of bench_frontend_kernels).
 */
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <unordered_map>

#include "backend/msckf.hpp"
#include "common/reference.hpp"
#include "common/runner.hpp"
#include "common/table.hpp"
#include "math/blas.hpp"
#include "math/blas_f32.hpp"
#include "math/cpu_features.hpp"
#include "math/decomp.hpp"
#include "math/rng.hpp"
#include "runtime/telemetry.hpp"
#include "sim/dataset.hpp"
#include "sim/trajectory.hpp"

using namespace edx;
using namespace edx::bench;

namespace {

MatX
randomMat(int r, int c, uint64_t seed)
{
    Rng rng(seed);
    MatX m(r, c);
    for (int i = 0; i < r; ++i)
        for (int j = 0; j < c; ++j)
            m(i, j) = rng.gaussian();
    return m;
}

MatX
randomSpd(int n, uint64_t seed)
{
    MatX a = randomMat(n, n, seed);
    MatX s = gram(a);
    for (int i = 0; i < n; ++i)
        s(i, i) += n;
    return s;
}

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
 * One kernel row: the reference once, the optimized kernel once per
 * available SIMD tier.
 */
template <typename RefFn, typename OptFn>
void
addKernelRow(Table &t, const std::string &name, const std::string &shape,
             int iters, RefFn &&ref_fn, OptFn &&opt_fn)
{
    const double ref = timeMs(iters, ref_fn);
    const double sse2 = timeMsAtTier(SimdTier::kSse2, iters, opt_fn);
    const double avx2 =
        hasAvx2() ? timeMsAtTier(SimdTier::kAvx2, iters, opt_fn) : -1.0;
    const double best = hasAvx2() ? avx2 : sse2;
    t.addRow({name, shape, fmt(ref, 3), fmt(sse2, 3),
              avx2 < 0.0 ? "-" : fmt(avx2, 3), speedup(ref, best)});
}

/**
 * Steady-state synthetic VIO loop (the test_backend world): returns
 * the mean per-frame backend ms (propagate + update) once warm.
 */
double
msckfBackendMs(int frames, bool float32 = false)
{
    Trajectory traj = Trajectory::drone(8.0, 40.0);
    StereoRig rig = platformRig(Platform::Drone);
    Rng rng(71);
    std::vector<Vec3> landmarks;
    for (int i = 0; i < 240; ++i) {
        double ang = rng.uniform(0, 2 * M_PI);
        double r = rng.uniform(10.0, 16.0);
        landmarks.push_back(Vec3{r * std::cos(ang), r * std::sin(ang),
                                 rng.uniform(0, 4)});
    }
    auto observe = [&](const Pose &wb, const Vec3 &lm, Vec2 &px,
                       double &disp) {
        Pose cw = (wb * rig.body_from_camera).inverse();
        Vec3 pc = cw.rotation.rotate(lm) + cw.translation;
        auto proj = rig.cam.project(pc);
        if (!proj || !rig.cam.inImage(*proj, 8.0))
            return false;
        px = *proj;
        disp = rig.disparityFromDepth(pc[2]);
        return true;
    };

    MsckfConfig cfg;
    cfg.float32_covariance_update = float32;
    Msckf filter(rig, cfg);
    filter.initialize(traj.poseAt(0.0), 0.0, traj.velocityAt(0.0));

    const double fps = 10.0, rate = 200.0;
    const int warm = 40;
    std::unordered_map<int, FeatureTrack> live;
    long next_id = 1;
    double total = 0.0;
    int measured = 0;
    for (int f = 1; f <= warm + frames; ++f) {
        std::vector<FeatureTrack> finished;
        Pose truth = traj.poseAt(f / fps);
        for (int li = 0; li < static_cast<int>(landmarks.size()); ++li) {
            Vec2 px;
            double disp;
            bool vis = observe(truth, landmarks[li], px, disp);
            auto it = live.find(li);
            if (vis) {
                if (it == live.end()) {
                    FeatureTrack tr;
                    tr.id = next_id++;
                    live.emplace(li, std::move(tr));
                    it = live.find(li);
                }
                TrackObservation ob;
                ob.clone_id = f;
                ob.pixel = px;
                ob.disparity = disp;
                it->second.observations.push_back(ob);
            } else if (it != live.end()) {
                finished.push_back(std::move(it->second));
                live.erase(it);
            }
        }
        std::vector<ImuSample> imu;
        for (double t = (f - 1) / fps; t < f / fps - 1e-12;
             t += 1.0 / rate)
            imu.push_back(traj.imuTruthAt(t + 0.5 / rate));
        filter.propagate(imu);
        long oldest = filter.update(finished, f);
        for (auto &[li, tr] : live) {
            auto &obs = tr.observations;
            obs.erase(std::remove_if(obs.begin(), obs.end(),
                                     [&](const TrackObservation &o) {
                                         return o.clone_id < oldest;
                                     }),
                      obs.end());
        }
        if (f > warm) {
            total += filter.lastTiming().total();
            ++measured;
        }
    }
    return measured > 0 ? total / measured : 0.0;
}

} // namespace

int
main()
{
    banner("backend kernels",
           "blocked/SIMD vs retained scalar reference, MSCKF sizes");
    note("SIMD tier: " + simdTierSummary());
    const int iters = benchFrames(12);

    // The MSCKF-realistic shapes: d = 195 (30 clones), compression
    // stack ~2x the state, Kalman S at the compressed size.
    const int d = 195, rows = 390;

    Table t({"kernel", "shape", "reference ms", "sse2 ms", "avx2 ms",
             "speedup"});

    {
        MatX a = randomMat(d, d, 1), b = randomMat(d, d, 2), c;
        addKernelRow(t, "gemm", "195x195x195", iters,
                     [&] { gemmReference(a, b, c); },
                     [&] { gemmInto(a, b, c); });
    }
    {
        MatX a = randomMat(rows, d, 3), b = randomMat(d, d, 4), c;
        addKernelRow(t, "A*B^T", "390x195 * (195x195)^T", iters,
                     [&] { multiplyTransposedReference(a, b, c); },
                     [&] { multiplyTransposedInto(a, b, c); });
    }
    {
        MatX h = randomMat(d, d, 5);
        MatX p = randomSpd(d, 6);
        MatX hp, s;
        addKernelRow(t, "H*P*H^T (sym)", "195x195 sandwich", iters,
                     [&] { symmetricSandwichReference(h, p, hp, s); },
                     [&] { symmetricSandwichInto(h, p, hp, s); });
    }
    {
        MatX a = randomMat(rows, d, 7), b = randomMat(rows, d, 8);
        MatX c_ref = MatX::identity(d) * 2.0, c_opt = c_ref;
        addKernelRow(t, "P -= A^T*B (sym)", "390x195 downdate", iters,
                     [&] { symmetricDowndateReference(a, b, c_ref); },
                     [&] { symmetricDowndateInto(a, b, c_opt); });
    }
    {
        MatX s = randomSpd(d, 9);
        addKernelRow(t, "Cholesky", "195x195", iters,
                     [&] { CholeskyReference chol(s); },
                     [&] { Cholesky chol(s); });
    }
    {
        MatX s = randomSpd(d, 10);
        MatX b = randomMat(d, d, 11);
        CholeskyReference chol_ref(s);
        Cholesky chol_opt(s);
        addKernelRow(t, "chol solve", "195 x 195 RHS", iters,
                     [&] { MatX x = chol_ref.solve(b); },
                     [&] {
                         MatX x = b;
                         chol_opt.solveInPlace(x);
                     });
    }
    {
        MatX a = randomMat(rows, d, 12);
        addKernelRow(t, "Householder QR", "390x195", iters,
                     [&] { HouseholderQRReference qr(a); },
                     [&] { HouseholderQR qr(a); });
    }
    {
        // The mixed-precision Kalman-gain slice (pack + f32 sandwich +
        // f32 Cholesky + f32 solve) against the f64 kernels doing the
        // same work — the slice MsckfConfig::float32_covariance_update
        // swaps per update.
        MatX h = randomMat(d, d, 13);
        MatX p = randomSpd(d, 14);
        MatX hp, sm, kt;
        Cholesky chol;
        AlignedVector<float> h_f, p_f, hp_f, s_f, kt_f;
        addKernelRow(t, "gain slice f32", "195x195 S+solve", iters,
                     [&] {
                         symmetricSandwichInto(h, p, hp, sm);
                         for (int i = 0; i < d; ++i)
                             sm(i, i) += 2.25;
                         chol.compute(sm);
                         kt = hp;
                         chol.solveInPlace(kt);
                     },
                     [&] {
                         f32::pack(h, h_f);
                         f32::pack(p, p_f);
                         f32::sandwich(h_f.data(), p_f.data(), d, d, hp_f,
                                       s_f);
                         for (int i = 0; i < d; ++i)
                             s_f[static_cast<size_t>(i) * d + i] += 2.25f;
                         f32::choleskyLower(s_f.data(), d);
                         kt_f.assign(hp_f.begin(), hp_f.end());
                         f32::choleskySolveInPlace(s_f.data(), d,
                                                   kt_f.data(), d);
                     });
    }
    t.print();

    // --- end-to-end MSCKF backend ----------------------------------------
    std::cout << "\n";
    Table e({"MSCKF backend path", "ms/frame (steady state)"});
    const int frames = benchFrames(40);
    const FrozenRow be_ref =
        frozenRow("bench_backend_kernels/msckf_reference_ms");
    const FrozenRow be_speedup =
        frozenRow("bench_backend_kernels/msckf_speedup");
    double be_sse2 = -1.0;
    if (hasAvx2()) {
        setSimdTier(SimdTier::kSse2);
        be_sse2 = msckfBackendMs(frames);
        setSimdTier(SimdTier::kAvx2);
    }
    const double be_opt = msckfBackendMs(frames);
    const double be_f32 = msckfBackendMs(frames, true);
    e.addRow({"reference kernels (frozen)", frozenCell(be_ref)});
    if (be_sse2 >= 0.0)
        e.addRow({"optimized workspace, sse2 tier", fmt(be_sse2, 2)});
    e.addRow({"optimized workspace", fmt(be_opt, 2)});
    e.addRow({"optimized + f32 covariance", fmt(be_f32, 2)});
    e.addRow({"speedup (frozen)", frozenCell(be_speedup, 2, "x")});
    e.print();
    note(frozenNote(be_ref));
    note("steady state = clone window full (30 clones, d = 201); the "
         "optimized path is additionally zero-heap-alloc "
         "(test-enforced in tests/test_backend.cpp)");

    if (const char *ceiling = std::getenv("EDX_BACKEND_MS_CEILING")) {
        const double limit = std::atof(ceiling);
        if (limit > 0.0 && be_opt > limit) {
            std::cerr << "PERF REGRESSION: optimized MSCKF backend "
                      << be_opt << " ms/frame exceeds ceiling " << limit
                      << " ms\n";
            return 1;
        }
        std::cout << "\nperf smoke: " << be_opt << " ms/frame <= "
                  << limit << " ms ceiling\n";
    }
    return 0;
}
