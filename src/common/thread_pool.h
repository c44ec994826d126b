/**
 * @file
 * Shared work-pool execution layer.
 *
 * One bounded pool serves every parallel site in the simulator: trace
 * generation, per-batch statistics, the per-table [Plan] streams,
 * serving's per-table tier replay, and whole-system sweeps in
 * ExperimentRunner. One primitive,
 * parallelFor(n, fn), runs fn(0..n-1) cooperatively: the calling
 * thread participates, so nesting a parallelFor inside a pool task
 * can never deadlock -- if all workers are busy the caller simply
 * executes every index itself.
 *
 * Every parallel site in this codebase writes result i from call
 * fn(i) only, so outputs are bit-identical to a serial loop no matter
 * how indices interleave across threads.
 *
 * ThreadPool::global() is the process-wide pool. Its width defaults
 * to hardware_concurrency (overridable via the SP_JOBS environment
 * variable, bounded like --jobs) and can be set explicitly with
 * setGlobalThreads() -- call it at startup, before any parallel work,
 * as spsim --jobs does.
 */

#ifndef SP_COMMON_THREAD_POOL_H
#define SP_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sp::common
{

/** Fixed-width thread pool with a cooperative parallel-for. */
class ThreadPool
{
  public:
    /** @param threads worker count; clamped to at least 1. */
    explicit ThreadPool(size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    /**
     * Run fn(0), ..., fn(n-1), distributing indices over the workers
     * *and* the calling thread. Returns once every index has run.
     * The first exception is rethrown on the caller after the
     * remaining indices are drained (un-run indices are skipped once
     * an exception is recorded). A pool of width 1 runs serially on
     * the caller.
     *
     * `max_helpers` caps the worker tasks enqueued alongside the
     * caller, bounding concurrency to max_helpers + 1 lanes without
     * spinning up a second pool (ExperimentRunner's --jobs bound).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                     size_t max_helpers = SIZE_MAX);

    /** The process-wide pool (created on first use). */
    static ThreadPool &global();

    /**
     * Width of global() before it is created: SP_JOBS when set, else
     * std::thread::hardware_concurrency(). SP_JOBS takes decimal
     * digits in 0..kMaxJobs, as --jobs does, with 0 meaning every
     * core; any other value is a FatalError.
     */
    static size_t defaultThreads();

    /**
     * Resize the process-wide pool. Startup-time only: the previous
     * pool (if any) is drained and destroyed, so no other thread may
     * be using global() concurrently.
     */
    static void setGlobalThreads(size_t threads);

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/** Shorthand: global().parallelFor(n, fn). */
void parallelFor(size_t n, const std::function<void(size_t)> &fn);

} // namespace sp::common

#endif // SP_COMMON_THREAD_POOL_H
