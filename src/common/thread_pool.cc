#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/args.h"
#include "common/fault.h"
#include "common/logging.h"

namespace sp::common
{

ThreadPool::ThreadPool(size_t threads)
{
    const size_t count = threads == 0 ? 1 : threads;
    workers_.reserve(count);
    for (size_t i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panicIf(stop_, "enqueue on a stopping ThreadPool");
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        // ForState::drain reports errors through its first-error
        // slot, so an exception reaching this frame is a task wrapper
        // bug -- but it must not std::terminate the process. Isolate
        // the worker and keep serving the queue.
        try {
            task();
        } catch (const std::exception &e) {
            warnRateLimited("thread_pool.worker",
                            std::string("exception escaped a pooled "
                                        "task: ") +
                                e.what());
        } catch (...) {
            warnRateLimited("thread_pool.worker",
                            "non-std exception escaped a pooled task");
        }
    }
}

namespace detail
{

/** Shared progress of one parallelFor call. Helpers may outlive the
 *  call (they run as soon as a worker frees up, which can be after the
 *  caller finished every index itself), so the state is kept alive by
 *  shared_ptr and owns a copy of the body. */
struct ForState
{
    std::function<void(size_t)> fn;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mutex;
    std::condition_variable finished;
    std::exception_ptr error;
    std::atomic<bool> has_error{false};

    void
    drain()
    {
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            if (!has_error.load(std::memory_order_relaxed)) {
                try {
                    SP_FAULT_POINT("thread_pool.task");
                    fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (!has_error.exchange(true))
                        error = std::current_exception();
                }
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
                std::lock_guard<std::mutex> lock(mutex);
                finished.notify_all();
            }
        }
    }

    /** Block until every index has retired (drain() first to make
     *  progress independent of pool capacity). */
    void
    finish()
    {
        drain();
        std::unique_lock<std::mutex> lock(mutex);
        finished.wait(lock, [this] {
            return done.load(std::memory_order_acquire) == n;
        });
        // Phase ordering: the join releases only after every index
        // retired, and retirement is monotonic -- a count past n
        // means an index ran twice (double-drain of one state).
        SP_ASSERT(done.load(std::memory_order_acquire) == n,
                  "parallelFor join released with ",
                  done.load(std::memory_order_acquire), " of ", n,
                  " indices retired");
    }
};

} // namespace detail

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn,
                        size_t max_helpers)
{
    if (n == 0)
        return;
    if (n == 1 || size() <= 1 || max_helpers == 0) {
        // Serial fast path: the caller is the join point, so the
        // first exception (including an injected "thread_pool.task"
        // fault) propagates directly; later indices are skipped,
        // exactly as drain() skips them once an error is recorded.
        for (size_t i = 0; i < n; ++i) {
            SP_FAULT_POINT("thread_pool.task");
            fn(i);
        }
        return;
    }

    auto state = std::make_shared<detail::ForState>();
    state->fn = fn;
    state->n = n;

    const size_t helpers = std::min({size(), n - 1, max_helpers});
    for (size_t h = 0; h < helpers; ++h)
        enqueue([state] { state->drain(); });

    state->finish();
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->error)
            std::rethrow_exception(state->error);
    }
}

namespace
{

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;

} // namespace

size_t
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("SP_JOBS")) {
        // Digits only and at most kMaxJobs, like --jobs: a typo must
        // not pick a width silently, nor a stray digit spawn
        // thousands of threads. An unsigned from_chars takes no sign
        // or blank and reports overflow.
        const char *end = env + std::strlen(env);
        uint64_t jobs = 0;
        const auto [stop, error] = std::from_chars(env, end, jobs);
        fatalIf(error != std::errc() || stop != end ||
                    jobs > static_cast<uint64_t>(kMaxJobs),
                "SP_JOBS must be decimal digits in 0..", kMaxJobs,
                " (0 = every core), got '", env, "'");
        if (jobs > 0)
            return static_cast<size_t>(jobs);
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (!g_global_pool)
        g_global_pool = std::make_unique<ThreadPool>(defaultThreads());
    return *g_global_pool;
}

void
ThreadPool::setGlobalThreads(size_t threads)
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (g_global_pool && g_global_pool->size() == std::max<size_t>(1, threads))
        return;
    g_global_pool = std::make_unique<ThreadPool>(threads);
}

void
parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    ThreadPool::global().parallelFor(n, fn);
}

} // namespace sp::common
