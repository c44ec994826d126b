/**
 * @file
 * Shared work-pool execution layer.
 *
 * One bounded pool serves every parallel site in the simulator: trace
 * generation, per-batch statistics, per-table [Plan] fan-out, sharded
 * mark-pass probes, serving's per-table tier replay, and whole-system
 * sweeps in ExperimentRunner. Two primitives:
 *
 *   parallelFor(n,fn) run fn(0..n-1) cooperatively: the calling
 *                     thread participates, so nesting a parallelFor
 *                     inside a pool task can never deadlock -- if all
 *                     workers are busy the caller simply executes
 *                     every index itself;
 *   parallelForAsync(n,fn)
 *                     the same index space, but the call returns a
 *                     Completion token immediately so the caller can
 *                     overlap its own work with the fan-out (the
 *                     engine's two-deep planning pipeline). wait() is
 *                     the phase barrier: the caller drains whatever
 *                     indices the workers have not picked up, so
 *                     completion never depends on pool capacity.
 *
 * Every parallel site in this codebase writes result i from call
 * fn(i) only, so outputs are bit-identical to a serial loop no matter
 * how indices interleave across threads.
 *
 * ThreadPool::global() is the process-wide pool. Its width defaults
 * to hardware_concurrency (overridable via the SP_JOBS environment
 * variable) and can be set explicitly with setGlobalThreads() --
 * call it at startup, before any parallel work, as spsim --jobs does.
 */

#ifndef SP_COMMON_THREAD_POOL_H
#define SP_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sp::common
{

namespace detail
{
struct ForState;
} // namespace detail

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

    /**
     * Completion token of one parallelForAsync call: a one-shot phase
     * barrier. wait() drains any indices the workers have not started
     * (the caller participates, exactly as in parallelFor), blocks
     * until every index has retired, and rethrows the first exception
     * the body raised. Dropping a pending token waits too (errors
     * swallowed) so in-flight tasks can never outlive the state they
     * capture. Default-constructed and already-waited tokens are
     * inert.
     */
    class Completion
    {
      public:
        Completion() noexcept = default;
        ~Completion();
        Completion(Completion &&other) noexcept = default;
        Completion &operator=(Completion &&other) noexcept;
        Completion(const Completion &) = delete;
        Completion &operator=(const Completion &) = delete;

        /** Phase barrier: help finish, then block; rethrows the first
         *  body exception. Idempotent. */
        void wait();

        /** True until wait() (or the destructor) has retired it. */
        bool pending() const { return state_ != nullptr; }

      private:
        friend class ThreadPool;
        std::shared_ptr<detail::ForState> state_;
    };

    /**
     * Start fn(0..n-1) on up to min(size(), n, max_helpers) workers
     * and return immediately; the caller joins the fan-out only when
     * it wait()s the returned token. Used by the two-deep planning
     * pipeline: batch i+1's plans fan out here while the caller
     * reduces batch i's outcomes. Results are written slot-i-from-
     * call-i by every site, so scheduling never changes outputs.
     */
    Completion parallelForAsync(size_t n, std::function<void(size_t)> fn,
                                size_t max_helpers = SIZE_MAX);

    /** The process-wide pool (created on first use). */
    static ThreadPool &global();

    /**
     * Width of global() before it is created: SP_JOBS when set to a
     * positive integer, else std::thread::hardware_concurrency().
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
