#include "map/map_service.hpp"

#include <chrono>
#include <unordered_map>

#include "backend/pose_opt.hpp"
#include "features/matcher.hpp"
#include "math/cpu_features.hpp"

namespace edx {

namespace {

double
msSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

MapService::MapService(const Vocabulary *vocabulary, const StereoRig &rig,
                       const MapServiceConfig &cfg)
    : voc_(vocabulary), rig_(rig), cfg_(cfg)
{
    if (cfg_.publish_min_keyframes < 1)
        cfg_.publish_min_keyframes = 1;
    epoch_ = std::make_shared<MapEpoch>(); // epoch 0: empty map
    worker_ = std::thread(&MapService::workerLoop, this);
}

MapService::~MapService()
{
    {
        std::lock_guard<std::mutex> lk(inbox_m_);
        stopping_ = true;
    }
    inbox_cv_.notify_all();
    worker_.join();
}

int
MapService::registerSession()
{
    return next_session_key_.fetch_add(1, std::memory_order_relaxed);
}

void
MapService::seed(const Map &prior)
{
    MapContribution c;
    c.keyframes = prior.keyframes();
    c.points.reserve(prior.points().size());
    for (int i = 0; i < prior.pointCount(); ++i)
        c.points.emplace_back(i, prior.points()[i]);
    contribute(-1, std::move(c));
}

void
MapService::contribute(int session_key, MapContribution c)
{
    {
        std::lock_guard<std::mutex> lk(inbox_m_);
        if (stopping_)
            return;
        ++stats_.contributions;
        stats_.keyframes_ingested +=
            static_cast<long>(c.keyframes.size());
        stats_.points_ingested += static_cast<long>(c.points.size());
        inbox_keyframes_ += c.keyframes.size();
        inbox_.push_back({session_key, std::move(c)});
        ++enqueued_batches_;
    }
    inbox_cv_.notify_all();
}

std::shared_ptr<const MapEpoch>
MapService::currentEpoch() const
{
    std::lock_guard<std::mutex> lk(epoch_m_);
    return epoch_;
}

void
MapService::flush()
{
    std::unique_lock<std::mutex> lk(inbox_m_);
    ++flush_waiters_;
    inbox_cv_.notify_all();
    inbox_cv_.wait(lk,
                   [&] { return merged_batches_ == enqueued_batches_; });
    --flush_waiters_;
}

MapServiceStats
MapService::stats() const
{
    std::lock_guard<std::mutex> lk(inbox_m_);
    MapServiceStats s = stats_;
    s.sessions = next_session_key_.load(std::memory_order_relaxed);
    return s;
}

void
MapService::workerLoop()
{
    // A merge rebuilds the whole merged map (hundreds of ms at fleet
    // scale) and no frame waits for it, so it yields the CPU to frame
    // work; published maps do not depend on when it runs.
    lowerThreadPriority();
    for (;;) {
        std::vector<InboxItem> batch;
        uint64_t taken = 0;
        {
            std::unique_lock<std::mutex> lk(inbox_m_);
            inbox_cv_.wait(lk, [&] {
                return stopping_ ||
                       (!inbox_.empty() &&
                        (inbox_keyframes_ >= static_cast<size_t>(
                                                 cfg_.publish_min_keyframes) ||
                         flush_waiters_ > 0));
            });
            if (stopping_ && inbox_.empty())
                return;
            batch.swap(inbox_);
            inbox_keyframes_ = 0;
            taken = batch.size();
        }

        // Fold the batch into the per-session ordered stores. Stores
        // are worker-owned; no lock is held from here through
        // publication, which is what keeps contribute()/currentEpoch()
        // latency bounded during a merge.
        for (InboxItem &item : batch) {
            SessionStore &store = stores_[item.session_key];
            for (auto &[lid, point] : item.contribution.points)
                store.points.emplace(lid, point); // first write wins
            for (Keyframe &kf : item.contribution.keyframes)
                store.keyframes.push_back(std::move(kf));
            // Bound the store under the same budget the epoch obeys:
            // keyframes beyond the cap could never survive eviction,
            // so holding them only grows the rebuild.
            if (cfg_.budget.max_keyframes > 0 &&
                static_cast<int>(store.keyframes.size()) >
                    cfg_.budget.max_keyframes)
                store.keyframes.erase(
                    store.keyframes.begin(),
                    store.keyframes.end() - cfg_.budget.max_keyframes);
        }

        const auto t0 = std::chrono::steady_clock::now();
        mergeAndPublish();
        const double merge_ms = msSince(t0);

        {
            std::lock_guard<std::mutex> lk(inbox_m_);
            merged_batches_ += taken;
            ++stats_.merges;
            if (merge_ms > stats_.max_merge_ms)
                stats_.max_merge_ms = merge_ms;
        }
        inbox_cv_.notify_all();
    }
}

void
MapService::mergeAndPublish()
{
    // Deterministic rebuild: sessions in ascending key order (seed -1
    // first), keyframes in session-local sequence order. The merged
    // map is a pure function of the stores, independent of arrival
    // interleaving and pass boundaries.
    Map m;
    int sessions_merged = 0;
    int loops = 0;

    for (auto &[sid, store] : stores_) {
        if (store.keyframes.empty())
            continue;
        ++sessions_merged;
        Pose align = Pose::identity(); //!< session -> shared frame
        std::unordered_map<int, int> lid2gid;
        const int first_kf = m.keyframeCount();
        const int first_pt = m.pointCount();

        for (const Keyframe &src : store.keyframes) {
            Keyframe kf = src;
            kf.pose = align * kf.pose;
            for (int &lm : kf.map_point_ids) {
                if (lm < 0)
                    continue;
                auto it = lid2gid.find(lm);
                if (it == lid2gid.end()) {
                    auto pit = store.points.find(lm);
                    if (pit == store.points.end()) {
                        lm = -1; // landmark never shipped: orphan ref
                        continue;
                    }
                    MapPoint p = pit->second;
                    p.position = align.apply(p.position);
                    p.observations = 0;
                    it = lid2gid.emplace(lm, m.addPoint(p)).first;
                }
                lm = it->second;
                ++m.points()[lm].observations;
            }
            const int gid = m.addKeyframe(std::move(kf));

            // Cross-session loop detection: query only the keyframes
            // of *earlier* sessions (ids below this session's first),
            // mirroring the mapper's intra-session loop gate. A hit
            // re-aligns everything this session merged so far and
            // pre-aligns the rest of its stream.
            if (!voc_ || !voc_->trained() || first_kf == 0)
                continue;
            const Keyframe &cur = m.keyframes()[gid];
            if (cur.bow.empty())
                continue;
            auto place = m.queryPlace(cur.bow, first_kf - 1);
            if (!place || place->score < cfg_.merge_min_score)
                continue;
            const Keyframe &old = m.keyframes()[place->keyframe_id];
            std::vector<Match> matches =
                matchDescriptors(old.descriptors, cur.descriptors);
            std::vector<PoseObservation> obs;
            for (const Match &match : matches) {
                int lm = old.map_point_ids[match.query_index];
                if (lm < 0)
                    continue;
                const KeyPoint &kp = cur.keypoints[match.train_index];
                obs.push_back(
                    {m.points()[lm].position, Vec2{kp.x, kp.y}});
            }
            if (static_cast<int>(obs.size()) < cfg_.merge_min_matches)
                continue;
            PoseOptResult opt = optimizePose(cur.pose, obs, rig_.cam,
                                             rig_.body_from_camera);
            if (!opt.converged ||
                opt.inliers < cfg_.merge_min_matches / 2)
                continue;
            const Pose corr = opt.pose * cur.pose.inverse();
            for (int k = first_kf; k <= gid; ++k)
                m.keyframes()[k].pose = corr * m.keyframes()[k].pose;
            for (int p = first_pt; p < m.pointCount(); ++p)
                m.points()[p].position =
                    corr.apply(m.points()[p].position);
            align = corr * align;
            ++loops;
        }
    }

    const MapEvictionResult ev = m.evictToBudget(cfg_.budget);
    if (cfg_.tile_size_m > 0.0)
        m.buildTileIndex(cfg_.tile_size_m);

    auto next = std::make_shared<MapEpoch>();
    next->map = std::move(m);
    next->sessions = sessions_merged;
    next->cross_session_loops = loops;
    next->points_evicted = ev.points_evicted;
    next->keyframes_evicted = ev.keyframes_evicted;

    // Publication is a pointer swap: the only reader-visible cost.
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t published = 0;
    {
        std::lock_guard<std::mutex> lk(epoch_m_);
        next->epoch = epoch_->epoch + 1;
        published = next->epoch;
        epoch_ = std::move(next);
    }
    const double publish_ms = msSince(t0);

    std::lock_guard<std::mutex> lk(inbox_m_);
    stats_.epochs_published = published;
    stats_.cross_session_loops = loops;
    stats_.evicted_points = ev.points_evicted;
    stats_.evicted_keyframes = ev.keyframes_evicted;
    if (publish_ms > stats_.max_publish_ms)
        stats_.max_publish_ms = publish_ms;
}

} // namespace edx
