/**
 * @file
 * The fork-join primitive of the data-parallel frontend.
 *
 * The hardware time-shares one feature-extraction pipeline across the
 * two camera streams and streams LK windows through parallel lanes
 * (Sec. V-B, Fig. 12); the software analogue runs a frontend block's
 * per-eye and per-keypoint work on a LaneGroup: the calling thread is
 * lane 0 and persistent helper threads are lanes 1, 2, ...
 *
 * run() hands out the task indices [0, tasks) through one atomic
 * counter; every participating lane, the caller included, pulls
 * indices until they run out, and run() returns once every lane has
 * finished. Tasks write only their own output slots, so which lane
 * ran which task never shows in the result. With one lane (or one
 * task) run() is a plain loop on the caller — the frontend has one
 * code path for every lane count.
 *
 * Helpers start on the first run() that needs them and are joined by
 * the destructor: constructing a group starts no thread. Posting a job
 * never heap-allocates (the callable travels by pointer), so warm
 * frames stay allocation-free at any lane count.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace edx {

/** The caller's thread plus lazily started helper threads. */
class LaneGroup
{
  public:
    LaneGroup() = default;
    ~LaneGroup();

    LaneGroup(const LaneGroup &) = delete;
    LaneGroup &operator=(const LaneGroup &) = delete;

    /**
     * Calls fn(task, lane) once for every task in [0, @p tasks) on at
     * most @p lanes lanes and returns when all calls have returned.
     * `lane` lies in [0, lanes) and is distinct among concurrently
     * running calls, so it can index per-lane scratch. One thread at a
     * time may call run() on a group. An exception thrown by fn on any
     * lane stops the hand-out of further tasks and is rethrown here
     * once every lane has returned.
     */
    template <typename Fn>
    void
    run(int lanes, int tasks, Fn &&fn)
    {
        const int helpers = std::min(lanes, tasks) - 1;
        if (helpers <= 0) {
            for (int t = 0; t < tasks; ++t)
                fn(t, 0);
            return;
        }
        using F = std::remove_reference_t<Fn>;
        dispatch(helpers, tasks,
                 [](void *f, int task, int lane) {
                     (*static_cast<F *>(f))(task, lane);
                 },
                 const_cast<void *>(static_cast<const void *>(&fn)));
    }

  private:
    using Thunk = void (*)(void *, int, int);

    void dispatch(int helpers, int tasks, Thunk thunk, void *fn);
    void helperLoop(int lane);
    /** Runs tasks on @p lane until the counter passes tasks_; records
     *  the first exception instead of letting it escape. */
    void drain(int lane);

    std::mutex m_;
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;

    // The posted job. Written under m_ before the generation bump and
    // left alone until every joined helper has checked back in.
    Thunk thunk_ = nullptr;
    void *fn_ = nullptr;
    int tasks_ = 0;
    std::atomic<int> next_{0};

    uint64_t generation_ = 0; //!< bumped once per posted job
    int joined_ = 0;          //!< helpers 1..joined_ take the job
    int pending_ = 0;         //!< joined helpers still running it
    std::exception_ptr error_; //!< first exception of the job
    bool stop_ = false;

    std::vector<std::thread> threads_; //!< threads_[k] is lane k + 1
};

} // namespace edx
