#include "frontend/lane_group.hpp"

#include <utility>

namespace edx {

LaneGroup::~LaneGroup()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
LaneGroup::dispatch(int helpers, int tasks, Thunk thunk, void *fn)
{
    while (static_cast<int>(threads_.size()) < helpers) {
        const int lane = static_cast<int>(threads_.size()) + 1;
        threads_.emplace_back(&LaneGroup::helperLoop, this, lane);
    }
    {
        std::lock_guard<std::mutex> lk(m_);
        thunk_ = thunk;
        fn_ = fn;
        tasks_ = tasks;
        next_.store(0, std::memory_order_relaxed);
        joined_ = helpers;
        pending_ = helpers;
        ++generation_;
    }
    wake_cv_.notify_all();
    drain(0);
    std::unique_lock<std::mutex> lk(m_);
    done_cv_.wait(lk, [&] { return pending_ == 0; });
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
LaneGroup::helperLoop(int lane)
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        // A helper above joined_ sits this job out; the caller waits
        // for exactly the joined ones, so none can miss its turn.
        wake_cv_.wait(lk, [&] {
            return stop_ || (generation_ != seen && lane <= joined_);
        });
        if (stop_)
            return;
        seen = generation_;
        lk.unlock();
        drain(lane);
        lk.lock();
        if (--pending_ == 0)
            done_cv_.notify_one();
    }
}

void
LaneGroup::drain(int lane)
{
    try {
        for (int t; (t = next_.fetch_add(1, std::memory_order_relaxed)) <
                    tasks_;)
            thunk_(fn_, t, lane);
    } catch (...) {
        // The caller's callable must outlive every lane, so the caller
        // rethrows only after the join; the other lanes stop early.
        next_.store(tasks_, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(m_);
        if (!error_)
            error_ = std::current_exception();
    }
}

} // namespace edx
