#include "features/optical_flow.hpp"

#include <algorithm>
#include <cmath>

#include "math/cpu_features.hpp"
#include "math/mat.hpp"
#if defined(EDX_HAVE_AVX2)
#include "features/optical_flow_avx2.hpp"
#endif

namespace edx {

namespace {

/**
 * Tracks one point at one pyramid level against cached gradients of
 * the previous image. Returns false when the point leaves the image or
 * the system is ill-conditioned.
 *
 * This one routine is the solver for both the workspace path and the
 * reference path — the two differ only in where the gradient images
 * and window buffers come from, so their tracks are bit-identical by
 * construction (and the gradient images themselves are golden-tested
 * against the scalar reference). With @p wide, the window's
 * elementwise products come from the AVX2 twins and only the sums run
 * here, in the same index order; the reference path never sets it.
 */
bool
trackAtLevel(const ImageU8 &prev, const Gradients &grad,
             const ImageU8 &next, double px, double py, double &nx,
             double &ny, const FlowConfig &cfg, bool wide, FlowScratch &s,
             double &residual_out)
{
    const int r = cfg.window_radius;
    if (!prev.containsWithBorder(px, py, r + 2))
        return false;

    // DC task: sample the template window and its cached gradients
    // with one shared set of bilinear weights (every sample in the
    // window has the same sub-pixel fraction).
    const int n = (2 * r + 1) * (2 * r + 1);
    const int x0 = static_cast<int>(std::floor(px)) - r;
    const int y0 = static_cast<int>(std::floor(py)) - r;
    const double fx = px - std::floor(px);
    const double fy = py - std::floor(py);
    const double w00 = (1 - fx) * (1 - fy), w10 = fx * (1 - fy);
    const double w01 = (1 - fx) * fy, w11 = fx * fy;

    s.iv.resize(n);
    s.ix.resize(n);
    s.iy.resize(n);
    double *iv = s.iv.data(), *ix = s.ix.data(), *iy = s.iy.data();
    if (wide) {
        s.dix.resize(n);
        s.diy.resize(n);
        s.adi.resize(n);
    }
    double *dix = s.dix.data(), *diy = s.diy.data(), *adi = s.adi.data();

    Mat2 g;
    if (wide) {
#if defined(EDX_HAVE_AVX2)
        avx2::lkTemplateWindow(prev.rowPtr(y0) + x0,
                               grad.gx.rowPtr(y0) + x0,
                               grad.gy.rowPtr(y0) + x0, prev.width(), w00,
                               w10, w01, w11, iv, ix, iy);
#endif
        for (int i = 0; i < n; ++i) {
            g(0, 0) += ix[i] * ix[i];
            g(0, 1) += ix[i] * iy[i];
            g(1, 1) += iy[i] * iy[i];
        }
    } else {
        int idx = 0;
        for (int dy = 0; dy <= 2 * r; ++dy) {
            const uint8_t *p0 = prev.rowPtr(y0 + dy) + x0;
            const uint8_t *p1 = prev.rowPtr(y0 + dy + 1) + x0;
            const float *gx0 = grad.gx.rowPtr(y0 + dy) + x0;
            const float *gx1 = grad.gx.rowPtr(y0 + dy + 1) + x0;
            const float *gy0 = grad.gy.rowPtr(y0 + dy) + x0;
            const float *gy1 = grad.gy.rowPtr(y0 + dy + 1) + x0;
            for (int dx = 0; dx <= 2 * r; ++dx, ++idx) {
                iv[idx] = w00 * p0[dx] + w10 * p0[dx + 1] + w01 * p1[dx] +
                          w11 * p1[dx + 1];
                const double gx = w00 * gx0[dx] + w10 * gx0[dx + 1] +
                                  w01 * gx1[dx] + w11 * gx1[dx + 1];
                const double gy = w00 * gy0[dx] + w10 * gy0[dx + 1] +
                                  w01 * gy1[dx] + w11 * gy1[dx + 1];
                ix[idx] = gx;
                iy[idx] = gy;
                g(0, 0) += gx * gx;
                g(0, 1) += gx * gy;
                g(1, 1) += gy * gy;
            }
        }
    }
    g(1, 0) = g(0, 1);

    // Conditioning gate: minimum eigenvalue of G normalized by window
    // area (rejects textureless or edge-only regions).
    double tr = g(0, 0) + g(1, 1);
    double dt = det(g);
    double disc = std::sqrt(std::max(0.0, tr * tr / 4.0 - dt));
    double lambda_min = (tr / 2.0 - disc) / n;
    if (lambda_min < cfg.min_eigenvalue)
        return false;

    Mat2 ginv = inverse(g);

    // LSS task: iterate v <- v + G^{-1} b until the update is small.
    // As in DC, every window sample shares the current sub-pixel
    // fraction of (nx, ny), so the bilinear weights are hoisted out of
    // the window loop.
    for (int it = 0; it < cfg.max_iterations; ++it) {
        if (!next.containsWithBorder(nx, ny, r + 2))
            return false;
        const int nx0 = static_cast<int>(std::floor(nx));
        const int ny0 = static_cast<int>(std::floor(ny));
        const double nfx = nx - nx0, nfy = ny - ny0;
        const double q00 = (1 - nfx) * (1 - nfy), q10 = nfx * (1 - nfy);
        const double q01 = (1 - nfx) * nfy, q11 = nfx * nfy;

        Vec2 b;
        double res = 0.0;
        if (wide) {
#if defined(EDX_HAVE_AVX2)
            avx2::lkIterationTerms(next.rowPtr(ny0 - r) + nx0 - r,
                                   next.width(), q00, q10, q01, q11, iv, ix,
                                   iy, dix, diy, adi);
#endif
            for (int i = 0; i < n; ++i) {
                b[0] += dix[i];
                b[1] += diy[i];
                res += adi[i];
            }
        } else {
            int idx = 0;
            for (int dy = -r; dy <= r; ++dy) {
                const uint8_t *r0 = next.rowPtr(ny0 + dy) + nx0 - r;
                const uint8_t *r1 = next.rowPtr(ny0 + dy + 1) + nx0 - r;
                for (int dx = 0; dx <= 2 * r; ++dx, ++idx) {
                    double sample = q00 * r0[dx] + q10 * r0[dx + 1] +
                                    q01 * r1[dx] + q11 * r1[dx + 1];
                    double dI = sample - iv[idx];
                    b[0] += dI * ix[idx];
                    b[1] += dI * iy[idx];
                    res += std::abs(dI);
                }
            }
        }
        residual_out = res / n;
        Vec2 v = ginv * b;
        nx -= v[0];
        ny -= v[1];
        if (v.norm() < cfg.epsilon)
            break;
    }
    return next.containsWithBorder(nx, ny, r + 2);
}

/** Levels tracked: the configured count, capped by what is cached. */
int
trackedLevels(const Pyramid &prev, const std::vector<Gradients> &prev_grads,
              const Pyramid &next, const FlowConfig &cfg)
{
    return std::min({cfg.pyramid_levels, prev.levels(), next.levels(),
                     static_cast<int>(prev_grads.size())});
}

/**
 * Tracks prev_pts[i] coarse to fine over @p levels (> 0) levels. A pure
 * function of the frames and the point (the scratch windows are fully
 * rewritten before they are read), so any split of the point list
 * tracks every point identically. @return false when the point is lost.
 */
bool
trackPoint(const Pyramid &prev, const std::vector<Gradients> &prev_grads,
           const Pyramid &next, const std::vector<KeyPoint> &prev_pts,
           int i, int levels, const FlowConfig &cfg, bool wide,
           FlowScratch &scratch, TemporalMatch &m)
{
    const KeyPoint &kp = prev_pts[i];
    // Start at the coarsest level with the identity guess.
    double scale = std::pow(2.0, levels - 1);
    double nx = kp.x / scale, ny = kp.y / scale;
    bool ok = true;
    double residual = 0.0;
    for (int l = levels - 1; l >= 0; --l) {
        double s = std::pow(2.0, l);
        double px = kp.x / s, py = kp.y / s;
        double cx = nx, cy = ny;
        ok = trackAtLevel(prev.level(l), prev_grads[l], next.level(l), px,
                          py, cx, cy, cfg, wide, scratch, residual);
        if (ok) {
            nx = cx;
            ny = cy;
        } else if (l > 0) {
            // Coarse levels may lack texture (patches shrink to a few
            // pixels); keep the current guess and let finer levels
            // recover. Only the finest level must succeed.
            ok = true;
        } else {
            break;
        }
        if (l > 0) {
            nx *= 2.0;
            ny *= 2.0;
        }
    }
    if (!ok || residual > cfg.max_residual)
        return false;
    m = {i, static_cast<float>(nx), static_cast<float>(ny),
         static_cast<float>(residual)};
    return true;
}

/** trackLucasKanadeRange with the window path chosen by the caller. */
void
trackRange(const Pyramid &prev, const std::vector<Gradients> &prev_grads,
           const Pyramid &next, const std::vector<KeyPoint> &prev_pts,
           int begin, int end, const FlowConfig &cfg, bool wide,
           FlowScratch &scratch, std::vector<TemporalMatch> &slots)
{
    const int levels = trackedLevels(prev, prev_grads, next, cfg);
    for (int i = begin; i < end; ++i)
        if (levels <= 0 || !trackPoint(prev, prev_grads, next, prev_pts, i,
                                       levels, cfg, wide, scratch, slots[i]))
            slots[i] = TemporalMatch{};
}

} // namespace

void
trackLucasKanadeInto(const Pyramid &prev,
                     const std::vector<Gradients> &prev_grads,
                     const Pyramid &next,
                     const std::vector<KeyPoint> &prev_pts,
                     const FlowConfig &cfg, FlowScratch &scratch,
                     std::vector<TemporalMatch> &out)
{
    out.resize(prev_pts.size());
    trackLucasKanadeRange(prev, prev_grads, next, prev_pts, 0,
                          static_cast<int>(prev_pts.size()), cfg, scratch,
                          out);
    dropLostTracks(out);
}

void
trackLucasKanadeRange(const Pyramid &prev,
                      const std::vector<Gradients> &prev_grads,
                      const Pyramid &next,
                      const std::vector<KeyPoint> &prev_pts, int begin,
                      int end, const FlowConfig &cfg, FlowScratch &scratch,
                      std::vector<TemporalMatch> &slots)
{
#if defined(EDX_HAVE_AVX2)
    const bool wide = simdTierIsAvx2() &&
                      cfg.window_radius == avx2::kLkWideRadius;
#else
    const bool wide = false;
#endif
    trackRange(prev, prev_grads, next, prev_pts, begin, end, cfg, wide,
               scratch, slots);
}

void
dropLostTracks(std::vector<TemporalMatch> &slots)
{
    slots.erase(std::remove_if(slots.begin(), slots.end(),
                               [](const TemporalMatch &m) {
                                   return m.prev_index < 0;
                               }),
                slots.end());
}

std::vector<TemporalMatch>
trackLucasKanade(const Pyramid &prev, const Pyramid &next,
                 const std::vector<KeyPoint> &prev_pts,
                 const FlowConfig &cfg)
{
    const int levels = std::min({cfg.pyramid_levels, prev.levels(),
                                 next.levels()});
    std::vector<Gradients> grads;
    for (int l = 0; l < levels; ++l)
        grads.push_back(centralDiffGradients(prev.level(l)));
    FlowScratch scratch;
    std::vector<TemporalMatch> out;
    trackLucasKanadeInto(prev, grads, next, prev_pts, cfg, scratch, out);
    return out;
}

std::vector<TemporalMatch>
trackLucasKanadeReference(const Pyramid &prev, const Pyramid &next,
                          const std::vector<KeyPoint> &prev_pts,
                          const FlowConfig &cfg)
{
    const int levels = std::min({cfg.pyramid_levels, prev.levels(),
                                 next.levels()});
    std::vector<Gradients> grads;
    for (int l = 0; l < levels; ++l)
        grads.push_back(centralDiffGradientsReference(prev.level(l)));
    // Scalar windows on every tier: the reference never dispatches.
    FlowScratch scratch;
    std::vector<TemporalMatch> out(prev_pts.size());
    trackRange(prev, grads, next, prev_pts, 0,
               static_cast<int>(prev_pts.size()), cfg, /*wide=*/false,
               scratch, out);
    dropLostTracks(out);
    return out;
}

} // namespace edx
