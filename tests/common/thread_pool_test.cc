/** @file ThreadPool / parallelFor unit tests. */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"

namespace sp::common
{
namespace
{

TEST(ThreadPool, ClampsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                           size_t{64}, size_t{1000}}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallelFor(n, [&hits](size_t i) { ++hits[i]; });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

TEST(ThreadPool, ParallelForIsDeterministicByIndex)
{
    // Writing slot i from call i gives serial-identical results no
    // matter how indices interleave -- the contract every parallel
    // site in the simulator relies on.
    ThreadPool pool(8);
    std::vector<uint64_t> out(5000);
    pool.parallelFor(out.size(),
                     [&out](size_t i) { out[i] = i * i + 1; });
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i * i + 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstError)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("bad");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A parallelFor issued from inside a pool task must complete even
    // when every worker is busy: the inner caller participates in its
    // own loop.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&pool, &total](size_t) {
        pool.parallelFor(8, [&total](size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallelFor(5, [&order](size_t i) {
        order.push_back(static_cast<int>(i));
    });
    // Width-1 pools run parallelFor serially on the caller, in order.
    const std::vector<int> expected = {0, 1, 2, 3, 4};
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, AsyncCompletionCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{64},
                           size_t{1000}}) {
        std::vector<std::atomic<int>> hits(n);
        auto token = pool.parallelForAsync(
            n, [&hits](size_t i) { ++hits[i]; });
        token.wait();
        EXPECT_FALSE(token.pending());
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
}

TEST(ThreadPool, AsyncOverlapsCallerWork)
{
    // The point of the token: the caller keeps doing its own work
    // between launch and wait(), and both sides' results are intact
    // at the barrier -- the engine's two-deep planning pipeline in
    // miniature.
    ThreadPool pool(2);
    std::vector<uint64_t> out(512);
    auto token = pool.parallelForAsync(
        out.size(), [&out](size_t i) { out[i] = i + 1; });
    uint64_t own = 0;
    for (uint64_t i = 0; i < 1000; ++i)
        own += i;
    token.wait();
    EXPECT_EQ(own, 499'500u);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], i + 1);
}

TEST(ThreadPool, AsyncWaitRethrowsFirstErrorOnce)
{
    ThreadPool pool(4);
    auto token = pool.parallelForAsync(100, [](size_t i) {
        if (i == 37)
            throw std::runtime_error("bad");
    });
    EXPECT_THROW(token.wait(), std::runtime_error);
    // The token is spent after the rethrow; waiting again is a no-op.
    EXPECT_FALSE(token.pending());
    token.wait();
}

TEST(ThreadPool, AsyncErrorSkipsRemainingIndicesButRetiresThem)
{
    // Zero helpers pins the whole index space on the caller, in
    // order, so the post-error behaviour is deterministic: indices
    // before the throw run, indices after it are skipped, and yet the
    // barrier retires all of them -- the wait() neither hangs nor
    // reruns the body.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    auto token = pool.parallelForAsync(
        10,
        [&ran](size_t i) {
            if (i == 2)
                throw std::runtime_error("bad");
            ++ran;
        },
        /*max_helpers=*/0);
    EXPECT_THROW(token.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 2);
    // Surfaced exactly once: the spent token is silent from here on.
    EXPECT_FALSE(token.pending());
    token.wait();
}

TEST(ThreadPool, AsyncDropAfterErrorDoesNotTerminate)
{
    // Dropping a token whose body threw must swallow the error in the
    // destructor (the pipeline only abandons a token while unwinding
    // from the same root cause), never std::terminate.
    ThreadPool pool(2);
    {
        auto token = pool.parallelForAsync(
            8, [](size_t) { throw std::runtime_error("bad"); });
    }
    SUCCEED();
}

TEST(ThreadPool, AsyncCompletesWithZeroHelpers)
{
    // max_helpers == 0 enqueues nothing: wait() must drain every
    // index on the caller (completion never depends on pool
    // capacity).
    ThreadPool pool(2);
    std::vector<int> out(64, 0);
    auto token = pool.parallelForAsync(
        out.size(), [&out](size_t i) { out[i] = 1; },
        /*max_helpers=*/0);
    token.wait();
    for (const int value : out)
        ASSERT_EQ(value, 1);
}

TEST(ThreadPool, AsyncDropWithoutWaitFinishesTasks)
{
    // A dropped pending token blocks in its destructor until the body
    // is done with everything it captured -- locals below must not be
    // written after scope exit.
    ThreadPool pool(2);
    std::atomic<int> count{0};
    {
        auto token = pool.parallelForAsync(
            200, [&count](size_t) { ++count; });
    }
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, AsyncMoveAssignRetiresPreviousToken)
{
    ThreadPool pool(2);
    std::atomic<int> first{0}, second{0};
    auto token = pool.parallelForAsync(
        64, [&first](size_t) { ++first; });
    token = pool.parallelForAsync(
        32, [&second](size_t) { ++second; });
    // Assignment waits the first launch before adopting the second.
    EXPECT_EQ(first.load(), 64);
    token.wait();
    EXPECT_EQ(second.load(), 32);
}

TEST(ThreadPool, GlobalPoolIsUsableAndSized)
{
    ThreadPool &pool = ThreadPool::global();
    EXPECT_GE(pool.size(), 1u);
    std::atomic<int> counter{0};
    parallelFor(32, [&counter](size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, DefaultThreadsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
}

} // namespace
} // namespace sp::common
